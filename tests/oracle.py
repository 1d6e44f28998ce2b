"""Reference sampling path: whole-level mosaics and their composition.

This is the sampler written the long way, FAST-VQA style (Wu et al.,
arXiv 2207.02595): every needed level is materialized frame by frame
(``PyramidLevel.frame``), one fragment per grid cell is sliced out of it
into a mosaic, and masks then pick each output pixel from exactly one
mosaic, never blending. Tests compare ``sama.pipeline`` against it byte
for byte, data and provenance. It shares only ``plan_level`` (where the
fragments go) and ``PyramidLevel.frame`` (the whole-frame resize) with
the library, never the per-pixel taps or gather it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from sama.errors import BadArity, DimMismatch
from sama.fragments import plan_level
from sama.masks import SpatialMask, TemporalMask
from sama.media import PROVENANCE_DTYPE, SamplerConfig
from sama.pack import SampledTensor
from sama.pyramid import PyramidLevel


@dataclass(frozen=True)
class FragmentMosaic:
    """Fixed-size mosaic gathered from one pyramid level.

    ``frames`` holds the gathered frames for ``frame_indices`` (a subset of
    the level's frames is allowed; offsets never depend on which frames are
    gathered). ``src_y``/``src_x`` map every mosaic pixel back to its level
    coordinates.
    """

    scale_id: int
    frames: np.ndarray  # (F, grid_rows*frag_h, grid_cols*frag_w, 3) uint8
    frame_indices: np.ndarray  # (F,) level frame indices
    offsets: np.ndarray  # (grid_rows, grid_cols, 2) per-cell (y, x)
    src_y: np.ndarray  # (H, W) uint32
    src_x: np.ndarray  # (H, W) uint32

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    def frame_position(self, frame_index: int) -> int:
        """Position of a level frame index inside ``frames``."""
        pos = np.nonzero(self.frame_indices == frame_index)[0]
        if pos.size == 0:
            raise KeyError(f"frame {frame_index} was not gathered for this mosaic")
        return int(pos[0])


def gather_mosaic_frame(
    level_frame: np.ndarray,
    offsets: np.ndarray,
    frag_h: int,
    frag_w: int,
) -> np.ndarray:
    """Copy one fragment per cell out of a level frame (slice copies)."""
    grid_rows, grid_cols = offsets.shape[:2]
    out = np.empty((grid_rows * frag_h, grid_cols * frag_w, 3), dtype=np.uint8)
    for r in range(grid_rows):
        for c in range(grid_cols):
            y, x = offsets[r, c]
            out[r * frag_h : (r + 1) * frag_h, c * frag_w : (c + 1) * frag_w] = (
                level_frame[y : y + frag_h, x : x + frag_w]
            )
    return out


def sample_fragments(
    level: PyramidLevel,
    config: SamplerConfig,
    frame_indices: Sequence[int] | None = None,
) -> FragmentMosaic:
    """Build the fragment mosaic of one pyramid level.

    For clips the same per-cell offsets are reused for every frame, so a
    static clip yields a static mosaic.
    """
    plan = plan_level(level, config)
    if frame_indices is None:
        frame_indices = range(level.frame_count)
    indices = np.asarray(list(frame_indices), dtype=np.int64)
    frames = np.stack(
        [
            gather_mosaic_frame(level.frame(int(i)), plan.offsets, config.frag_h, config.frag_w)
            for i in indices
        ]
    )
    return FragmentMosaic(
        scale_id=level.scale_id,
        frames=frames,
        frame_indices=indices,
        offsets=plan.offsets,
        src_y=plan.src_y,
        src_x=plan.src_x,
    )


def _mosaic_provenance(m: FragmentMosaic, stored: int) -> np.ndarray:
    prov = np.empty(m.frames.shape[1:3], dtype=PROVENANCE_DTYPE)
    prov["scale"] = m.scale_id
    prov["frame"] = m.frame_indices[stored]
    prov["y"] = m.src_y
    prov["x"] = m.src_x
    return prov


def compose_spatial(
    m0: FragmentMosaic,
    m1: FragmentMosaic,
    mask: SpatialMask,
    config: SamplerConfig | None = None,
    kind: str | None = None,
) -> SampledTensor:
    """Select per pixel between the raw mosaic (mask 1) and the scaled one."""
    if m0.scale_id != 0:
        raise DimMismatch("first mosaic must be the raw level (scale 0)")
    if m0.frames.shape != m1.frames.shape:
        raise DimMismatch("mosaics differ in shape")
    if (mask.height, mask.width) != (m0.height, m0.width):
        raise DimMismatch("mask does not match the mosaic dims")
    if not np.array_equal(m0.frame_indices, m1.frame_indices):
        raise DimMismatch("mosaics cover different frames")
    n_frames = m0.frames.shape[0]
    pick0 = mask.bitmap.astype(bool)
    data = np.where(pick0[None, :, :, None], m0.frames, m1.frames)
    prov = np.empty((n_frames, m0.height, m0.width), dtype=PROVENANCE_DTYPE)
    for f in range(n_frames):
        p0 = _mosaic_provenance(m0, f)
        p1 = _mosaic_provenance(m1, f)
        # np.where does not handle structured dtypes; select per field
        for name in PROVENANCE_DTYPE.names:
            prov[f][name] = np.where(pick0, p0[name], p1[name])
    if kind is None:
        kind = "image" if n_frames == 1 else "video"
    grid = None if config is None else (config.grid_rows, config.grid_cols)
    return SampledTensor(
        kind=kind,
        data=data,
        n_scales=2 if config is None else config.n_scales,
        spatial_mask=mask.kind,
        temporal_mask="none" if config is None else config.temporal_mask,
        seed=0 if config is None else config.seed,
        schedule=(),
        provenance=prov,
        grid=grid,
    )


def compose_temporal(
    mosaics: Mapping[int, FragmentMosaic] | Sequence[FragmentMosaic],
    mask: TemporalMask,
    config: SamplerConfig | None = None,
) -> SampledTensor:
    """Copy each frame pair from the level its schedule entry names.

    Frame indices are preserved: output frame t is frame t of the chosen
    level's mosaic, so scale changes over time but time never repeats.
    """
    if isinstance(mosaics, Mapping):
        by_scale = dict(mosaics)
    else:
        by_scale = {m.scale_id: m for m in mosaics}
    frames = mask.frames
    first = next(iter(by_scale.values()))
    out_h, out_w = first.height, first.width
    data = np.empty((frames, out_h, out_w, 3), dtype=np.uint8)
    prov = np.empty((frames, out_h, out_w), dtype=PROVENANCE_DTYPE)
    for k, scale in enumerate(mask.schedule):
        m = by_scale.get(scale)
        if m is None:
            raise BadArity(f"schedule needs level {scale} but no mosaic covers it")
        if (m.height, m.width) != (out_h, out_w):
            raise DimMismatch("mosaics differ in shape")
        for t in (2 * k, 2 * k + 1):
            try:
                stored = m.frame_position(t)
            except KeyError as exc:
                raise BadArity(
                    f"level {scale} mosaic lacks frame {t} required by the schedule"
                ) from exc
            data[t] = m.frames[stored]
            prov[t] = _mosaic_provenance(m, stored)
    grid = None if config is None else (config.grid_rows, config.grid_cols)
    return SampledTensor(
        kind="video",
        data=data,
        n_scales=mask.n_levels if config is None else config.n_scales,
        spatial_mask="none" if config is None else config.spatial_mask,
        temporal_mask=mask.kind,
        seed=0 if config is None else config.seed,
        schedule=mask.schedule,
        provenance=prov,
        grid=grid,
    )
