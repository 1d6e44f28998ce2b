"""Scale-interlacing masks.

A mask is an owner map: it says which pyramid level owns each output
pixel (spatial masks) or each output frame pair (temporal masks).

A spatial mask's ``indices`` index into the levels an output frame draws
from, 0 being the finest (raw). Every spatial mask staggers its levels
over block tiles along diagonals, the way a color filter array staggers
its channels: ``window`` (32-pixel blocks, the attention window) and
``patch`` (4-pixel blocks, the embedding patch) are the two-level stagger,
a checkerboard whose tile (0, 0) is raw; ``make_interlace_mask`` staggers
3 or 4 levels. Temporal masks assign one pyramid level per two-frame
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadArity, IndivisibleDims

WINDOW_BLOCK = 32  # attention window, pixels
PATCH_BLOCK = 4  # embedding patch, pixels

_SPATIAL_BLOCKS = {"window": WINDOW_BLOCK, "patch": PATCH_BLOCK}

# Diagonal stagger of level indices over mask tiles; the middle level is
# doubled for the 3-scale layout (the green-channel analogy).
_INTERLACE_CYCLES = {3: (0, 1, 1, 2), 4: (0, 1, 2, 3)}


@dataclass(frozen=True)
class SpatialMask:
    """Per-pixel owner map: ``indices[y, x]`` is the index of the level that
    owns output pixel (y, x), 0 being the finest (raw) level."""

    kind: str
    block: int
    indices: np.ndarray  # (H, W) uint8

    @property
    def height(self) -> int:
        return self.indices.shape[0]

    @property
    def width(self) -> int:
        return self.indices.shape[1]

    def tile_counts(self) -> dict[int, int]:
        """{level index: number of block tiles it owns}."""
        tiles = self.indices[:: self.block, :: self.block]
        vals, counts = np.unique(tiles, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


@dataclass(frozen=True)
class TemporalMask:
    """Per-frame-pair scale assignment; pair k covers frames 2k and 2k+1."""

    kind: str
    schedule: tuple[int, ...]
    n_levels: int

    @property
    def frames(self) -> int:
        return 2 * len(self.schedule)

    def frame_scales(self) -> np.ndarray:
        """Scale id per output frame (each pair contributes two frames)."""
        return np.repeat(np.asarray(self.schedule, dtype=np.int64), 2)


def _stagger(kind: str, cycle: tuple[int, ...], out_h: int, out_w: int, block: int) -> SpatialMask:
    """Tile (i, j) of block x block pixels is owned by ``cycle[(i + j) % len(cycle)]``."""
    if block < 1:
        raise ValueError("block must be >= 1")
    if out_h % block or out_w % block:
        raise IndivisibleDims(
            f"{out_h}x{out_w} not divisible by the {block}-pixel block"
        )
    ti = np.arange(out_h) // block
    tj = np.arange(out_w) // block
    lut = np.asarray(cycle, dtype=np.uint8)
    indices = lut[(ti[:, None] + tj[None, :]) % len(cycle)]
    indices.setflags(write=False)
    return SpatialMask(kind=kind, block=block, indices=indices)


@lru_cache(maxsize=64)
def make_spatial_mask(kind: str, out_h: int, out_w: int) -> SpatialMask:
    """Two-level checkerboard of block x block tiles; tile (i, j) is raw
    (index 0) iff i+j is even.

    Masks are pure constants, so repeated calls share one read-only array.
    """
    block = _SPATIAL_BLOCKS.get(kind)
    if block is None:
        raise ValueError(f"unknown spatial mask kind {kind!r}")
    return _stagger(kind, (0, 1), out_h, out_w, block)


def make_interlace_mask(n_scales: int, out_h: int, out_w: int, block: int) -> SpatialMask:
    """Stagger 3 or 4 levels over block tiles along diagonals."""
    cycle = _INTERLACE_CYCLES.get(n_scales)
    if cycle is None:
        raise BadArity(f"interlace supports 3 or 4 scales, got {n_scales}")
    return _stagger(f"interlace{n_scales}", cycle, out_h, out_w, block)


def temporal_levels(kind: str, frames: int) -> int:
    """The level count a temporal mask of ``frames`` frames takes: one per
    frame pair for progressive, one per quarter-length pair for mixed, and
    for choppy one per pair but at least the two it alternates."""
    if kind == "progressive":
        return frames // 2
    if kind == "mixed":
        return frames // 4
    if kind == "choppy":
        return max(frames // 2, 2)
    raise ValueError(f"unknown temporal mask kind {kind!r}")


def make_temporal_mask(kind: str, frames: int, n_levels: int) -> TemporalMask:
    """Assign pyramid levels to frame pairs.

    progressive walks finest to coarsest (one level per pair), choppy
    alternates finest and coarsest, mixed runs a half-length progression
    twice.
    """
    if frames < 2 or frames % 2 != 0:
        raise BadArity(f"temporal masks need an even frame count, got {frames}")
    pairs = frames // 2
    if kind == "progressive":
        if n_levels != temporal_levels(kind, frames):
            raise BadArity(
                f"progressive needs one level per pair: {pairs} pairs, "
                f"{n_levels} levels"
            )
        schedule = tuple(range(pairs))
    elif kind == "choppy":
        if n_levels < 2:
            raise BadArity("choppy alternates two distinct levels")
        schedule = tuple(0 if k % 2 == 0 else n_levels - 1 for k in range(pairs))
    elif kind == "mixed":
        if frames % 4 != 0:
            raise BadArity("mixed needs a frame count divisible by 4")
        if n_levels != temporal_levels(kind, frames):
            raise BadArity(
                f"mixed needs one level per quarter-length pair: "
                f"{frames // 4} levels, got {n_levels}"
            )
        schedule = tuple(range(frames // 4)) * 2
    else:
        raise ValueError(f"unknown temporal mask kind {kind!r}")
    return TemporalMask(kind=kind, schedule=schedule, n_levels=n_levels)
