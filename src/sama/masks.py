"""Scale-interlacing masks.

Spatial masks are block checkerboards (tile (0, 0) takes the raw scale):
32-pixel blocks matching the attention window, or 4-pixel blocks matching
the embedding patch. Temporal masks assign one pyramid level per two-frame
block. The multi-scale interlace staggers 3 or 4 levels along tile
diagonals, the way a color filter array staggers its channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadArity, IndivisibleDims

WINDOW_BLOCK = 32  # attention window, pixels
PATCH_BLOCK = 4  # embedding patch, pixels

# Diagonal stagger of scale ids over mask tiles; the middle scale is doubled
# for the 3-scale layout (the green-channel analogy).
_INTERLACE_CYCLES = {3: (0, 1, 1, 2), 4: (0, 1, 2, 3)}


@dataclass(frozen=True)
class SpatialMask:
    """Binary per-pixel mask: 1 selects scale 0 (raw), 0 the scaled mosaic."""

    kind: str
    block: int
    bitmap: np.ndarray  # (H, W) uint8 in {0, 1}

    @property
    def height(self) -> int:
        return self.bitmap.shape[0]

    @property
    def width(self) -> int:
        return self.bitmap.shape[1]

    def tile_counts(self) -> tuple[int, int]:
        """(# tiles selecting scale 0, # selecting scale 1)."""
        tiles = self.bitmap[:: self.block, :: self.block]
        ones = int((tiles == 1).sum())
        return ones, tiles.size - ones


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


@dataclass(frozen=True)
class InterlaceMask:
    """Multi-valued mask: pixel value is the owning scale id."""

    n_scales: int
    block: int
    indices: np.ndarray  # (H, W) uint8 scale ids

    def tile_counts(self) -> dict[int, int]:
        tiles = self.indices[:: self.block, :: self.block]
        vals, counts = np.unique(tiles, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


@lru_cache(maxsize=64)
def make_spatial_mask(kind: str, out_h: int, out_w: int) -> SpatialMask:
    """Checkerboard of block x block tiles; tile (i, j) is raw iff i+j even.

    Masks are pure constants, so repeated calls share one read-only array.
    """
    if kind == "window":
        block = WINDOW_BLOCK
    elif kind == "patch":
        block = PATCH_BLOCK
    else:
        raise ValueError(f"unknown spatial mask kind {kind!r}")
    if out_h % block or out_w % block:
        raise IndivisibleDims(
            f"{out_h}x{out_w} not divisible by the {block}-pixel block"
        )
    ti = np.arange(out_h) // block
    tj = np.arange(out_w) // block
    bitmap = ((ti[:, None] + tj[None, :]) % 2 == 0).astype(np.uint8)
    bitmap.setflags(write=False)
    return SpatialMask(kind=kind, block=block, bitmap=bitmap)


def make_interlace_mask(n_scales: int, out_h: int, out_w: int, block: int) -> InterlaceMask:
    """Stagger 3 or 4 scales over block tiles along diagonals."""
    cycle = _INTERLACE_CYCLES.get(n_scales)
    if cycle is None:
        raise BadArity(f"interlace supports 3 or 4 scales, got {n_scales}")
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
    return InterlaceMask(n_scales=n_scales, block=block, indices=indices)


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
        if n_levels != pairs:
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
        if n_levels != frames // 4:
            raise BadArity(
                f"mixed needs one level per quarter-length pair: "
                f"{frames // 4} levels, got {n_levels}"
            )
        schedule = tuple(range(frames // 4)) * 2
    else:
        raise ValueError(f"unknown temporal mask kind {kind!r}")
    return TemporalMask(kind=kind, schedule=schedule, n_levels=n_levels)
