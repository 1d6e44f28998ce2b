"""End-to-end sampling: pyramid -> fragments -> masked composition.

The composition here is fused: offsets and per-pixel source maps are
planned per level, then every output pixel is copied once, directly from
the level that owns it. That keeps the gather cost identical to plain
single-scale fragment sampling regardless of how many levels are
interlaced (the pyramid interpolation is the only part that grows), and
it is byte-identical to materializing full per-level mosaics and
composing them with the reference operations in ``masks``.

Set SAMA_THREADS to parallelize per-frame work; results are bit-identical
at any thread count because every draw is counter-based and every frame
is assembled independently.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .fragments import (
    choose_offsets,
    grid_partition,
    offsets_array,
    source_coord_maps,
)
from .masks import make_spatial_mask, make_temporal_mask
from .media import (
    PROVENANCE_DTYPE,
    FrameBuffer,
    MediaClip,
    SamplerConfig,
    select_frames,
)
from .pack import SampledTensor
from .pyramid import PyramidLevel, build_pyramid


def thread_count() -> int:
    """Worker cap from SAMA_THREADS; anything unset/invalid means serial."""
    raw = os.environ.get("SAMA_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(n, 1)


def _parallel_map(fn, items: list) -> tuple[list, float | None]:
    """``[fn(x) for x in items]`` on up to SAMA_THREADS threads.

    Also returns the summed duration of the calls when they ran on threads,
    where they overlap in wall-clock time; None when they ran serially.
    """
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items], None

    def timed(x):
        t0 = time.perf_counter()
        out = fn(x)
        return out, time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=n) as ex:
        pairs = list(ex.map(timed, items))
    return [out for out, _ in pairs], sum(d for _, d in pairs)


@dataclass(frozen=True)
class LevelPlan:
    """Offsets and per-pixel source coordinates for one pyramid level."""

    scale_id: int
    offsets: np.ndarray  # (grid_rows, grid_cols, 2)
    src_y: np.ndarray  # (H, W) uint32
    src_x: np.ndarray  # (H, W) uint32


def plan_level(level: PyramidLevel, config: SamplerConfig) -> LevelPlan:
    cells = grid_partition(level.height, level.width, config.grid_rows, config.grid_cols)
    offs = choose_offsets(
        cells,
        config.frag_h,
        config.frag_w,
        config.offset_policy,
        config.seed,
        scale_id=level.scale_id,
        aligned=config.aligned_offsets,
    )
    offsets = offsets_array(offs, config.grid_rows, config.grid_cols)
    src_y, src_x = source_coord_maps(offsets, config.frag_h, config.frag_w)
    return LevelPlan(level.scale_id, offsets, src_y, src_x)


@dataclass
class SampleResult:
    tensor: SampledTensor
    pyramid: list[PyramidLevel]
    timings: dict[str, float]


# ---------------------------------------------------------------------------
# Fused gathers


@lru_cache(maxsize=64)
def _cellwise_pick(kind: str, out_h: int, out_w: int, gr: int, gc: int, fh: int, fw: int):
    """(grid_rows, grid_cols) bool picking the raw level, if cells are pure.

    Window-block masks coincide with fragment cells, so every cell comes
    from a single level and the gather can run on whole-fragment slices.
    Patch-block masks mix levels inside a cell and fall back to the
    per-pixel path.
    """
    mask = make_spatial_mask(kind, out_h, out_w)
    tiles = mask.bitmap.reshape(gr, fh, gc, fw)
    lo = tiles.min(axis=(1, 3))
    hi = tiles.max(axis=(1, 3))
    if not np.array_equal(lo, hi):
        return None
    pick = lo.astype(bool)
    pick.setflags(write=False)
    return pick


def _interp_blocks(
    level: PyramidLevel,
    frame_idx: int,
    plan: LevelPlan,
    config: SamplerConfig,
    cells: list[tuple[int, int]],
) -> dict[tuple[int, int], np.ndarray]:
    """Interpolate just the fragment windows this level contributes.

    Levels never materialize whole frames here; each window is resized
    directly (bit-identical to slicing a full resize).
    """
    fh, fw = config.frag_h, config.frag_w
    return {
        (r, c): level.rect(
            frame_idx, int(plan.offsets[r, c, 0]), int(plan.offsets[r, c, 1]), fh, fw
        )
        for r, c in cells
    }


def _all_cells(config: SamplerConfig) -> list[tuple[int, int]]:
    return [
        (r, c) for r in range(config.grid_rows) for c in range(config.grid_cols)
    ]


def _assemble(
    blocks_by_scale: dict[int, dict[tuple[int, int], np.ndarray]],
    cell_scale: np.ndarray,
    config: SamplerConfig,
    bitmap_pair: tuple[np.ndarray, int, int] | None = None,
) -> np.ndarray:
    """Place fragment blocks into the output mosaic.

    ``cell_scale[r, c]`` names the level a cell comes from. For masks finer
    than a cell, ``bitmap_pair = (pick_first, scale_a, scale_b)`` selects
    per pixel between the two levels' blocks inside every cell.
    """
    fh, fw = config.frag_h, config.frag_w
    gr, gc = config.grid_rows, config.grid_cols
    out = np.empty((gr * fh, gc * fw, 3), dtype=np.uint8)
    for r in range(gr):
        for c in range(gc):
            dst = out[r * fh : (r + 1) * fh, c * fw : (c + 1) * fw]
            if bitmap_pair is None:
                dst[:] = blocks_by_scale[int(cell_scale[r, c])][(r, c)]
            else:
                pick, scale_a, scale_b = bitmap_pair
                cell_pick = pick[r * fh : (r + 1) * fh, c * fw : (c + 1) * fw]
                dst[:] = np.where(
                    cell_pick[..., None],
                    blocks_by_scale[scale_a][(r, c)],
                    blocks_by_scale[scale_b][(r, c)],
                )
    return out


def _single_template(plan: LevelPlan) -> np.ndarray:
    """Frame-independent provenance; per frame only the index changes."""
    prov = np.empty(plan.src_y.shape, dtype=PROVENANCE_DTYPE)
    prov["scale"] = plan.scale_id
    prov["frame"] = 0
    prov["y"] = plan.src_y
    prov["x"] = plan.src_x
    return prov


def _pair_template(plan_a: LevelPlan, plan_b: LevelPlan, pick_a: np.ndarray) -> np.ndarray:
    prov = np.empty(pick_a.shape, dtype=PROVENANCE_DTYPE)
    prov["scale"] = np.where(pick_a, plan_a.scale_id, plan_b.scale_id)
    prov["frame"] = 0
    prov["y"] = np.where(pick_a, plan_a.src_y, plan_b.src_y)
    prov["x"] = np.where(pick_a, plan_a.src_x, plan_b.src_x)
    return prov


def _stamp(template: np.ndarray, frame_idx: int) -> np.ndarray:
    prov = template.copy()
    prov["frame"] = frame_idx
    return prov


# ---------------------------------------------------------------------------
# Per-frame rendering and the two pipelines


def _render_single(pyramid, scale, t, plans, config, template):
    """(data, provenance, interpolation seconds) for a one-level frame."""
    t0 = time.perf_counter()
    blocks = {scale: _interp_blocks(pyramid[scale], t, plans[scale], config, _all_cells(config))}
    interp = time.perf_counter() - t0
    cell_scale = np.full((config.grid_rows, config.grid_cols), scale, dtype=np.int64)
    data = _assemble(blocks, cell_scale, config)
    return data, _stamp(template, t), interp


def _render_pair(pyramid, scale_a, scale_b, t, plans, config, pick_a, cell_pick, template):
    """(data, provenance, interpolation seconds) for a two-level frame."""
    t0 = time.perf_counter()
    if cell_pick is not None:
        cells_a = [(r, c) for r, c in _all_cells(config) if cell_pick[r, c]]
        cells_b = [(r, c) for r, c in _all_cells(config) if not cell_pick[r, c]]
        blocks = {
            scale_a: _interp_blocks(pyramid[scale_a], t, plans[scale_a], config, cells_a),
            scale_b: _interp_blocks(pyramid[scale_b], t, plans[scale_b], config, cells_b),
        }
        interp = time.perf_counter() - t0
        cell_scale = np.where(cell_pick, scale_a, scale_b)
        data = _assemble(blocks, cell_scale, config)
    else:
        cells = _all_cells(config)
        blocks = {
            scale_a: _interp_blocks(pyramid[scale_a], t, plans[scale_a], config, cells),
            scale_b: _interp_blocks(pyramid[scale_b], t, plans[scale_b], config, cells),
        }
        interp = time.perf_counter() - t0
        data = _assemble(
            blocks, np.zeros((1, 1)), config, bitmap_pair=(pick_a, scale_a, scale_b)
        )
    return data, _stamp(template, t), interp


def sample_image(frame: FrameBuffer, config: SamplerConfig) -> SampleResult:
    """Sample one image into a (1, out_h, out_w, 3) tensor with provenance."""
    config.validate("image")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    pyramid = build_pyramid(frame, config)
    timings["pyramid"] = time.perf_counter() - t0
    used = [0] if config.n_scales == 1 else [0, config.n_scales - 1]

    t0 = time.perf_counter()
    plans = {s: plan_level(pyramid[s], config) for s in used}
    mask = None
    cell_pick = None
    if config.spatial_mask != "none":
        mask = make_spatial_mask(config.spatial_mask, config.out_h, config.out_w)
        cell_pick = _cellwise_pick(
            config.spatial_mask, config.out_h, config.out_w,
            config.grid_rows, config.grid_cols, config.frag_h, config.frag_w,
        )
        pick_a = mask.bitmap.astype(bool)
        template = _pair_template(plans[0], plans[used[1]], pick_a)
    else:
        template = _single_template(plans[0])
    timings["fragments"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if mask is None:
        data, prov, interp = _render_single(pyramid, 0, 0, plans, config, template)
    else:
        data, prov, interp = _render_pair(
            pyramid, 0, used[1], 0, plans, config, pick_a, cell_pick, template
        )
    timings["pyramid"] += interp
    timings["compose"] = time.perf_counter() - t0 - interp
    tensor = SampledTensor(
        kind="image",
        data=data[None],
        n_scales=config.n_scales,
        spatial_mask=config.spatial_mask,
        temporal_mask="none",
        seed=config.seed,
        schedule=(),
        provenance=prov[None],
        grid=(config.grid_rows, config.grid_cols),
    )
    return SampleResult(tensor=tensor, pyramid=pyramid, timings=timings)


# ---------------------------------------------------------------------------
# Video pipeline


def sample_video(clip: MediaClip, config: SamplerConfig) -> SampleResult:
    """Select frames, pyramid them, and interlace scales over time/space."""
    config.validate("video")
    frames_out = config.frames_out
    selected = select_frames(clip, frames_out, config.seed, config.offset_policy)

    spatial = config.spatial_mask != "none"
    temporal = config.temporal_mask != "none"
    schedule: tuple[int, ...] = ()
    if temporal:
        tmask = make_temporal_mask(config.temporal_mask, frames_out, config.n_scales)
        schedule = tmask.schedule
        frame_scales = tmask.frame_scales()
    elif spatial:
        frame_scales = np.zeros(frames_out, dtype=np.int64)
    else:
        if config.n_scales != 1:
            raise ConfigError("video without masks must be single-scale")
        frame_scales = np.zeros(frames_out, dtype=np.int64)

    if temporal and spatial:
        # experimental: interlace each frame pair between its scheduled
        # level and the next-coarser one (clamped at the top)
        partner = np.minimum(frame_scales + 1, config.n_scales - 1)
    else:
        partner = None

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    pyramid = build_pyramid(selected, config)
    timings["pyramid"] = time.perf_counter() - t0
    needed: set[int] = set()
    for t in range(frames_out):
        needed.add(int(frame_scales[t]))
        if partner is not None:
            needed.add(int(partner[t]))
    if spatial and not temporal:
        needed.add(config.n_scales - 1)

    t0 = time.perf_counter()
    plans = {s: plan_level(pyramid[s], config) for s in needed}
    mask = None
    cell_pick = None
    pick_a = None
    if spatial:
        mask = make_spatial_mask(config.spatial_mask, config.out_h, config.out_w)
        cell_pick = _cellwise_pick(
            config.spatial_mask, config.out_h, config.out_w,
            config.grid_rows, config.grid_cols, config.frag_h, config.frag_w,
        )
        pick_a = mask.bitmap.astype(bool)
    # provenance is frame-independent per level (or level pair): build once
    single_tmpl = {}
    pair_tmpl = {}
    if partner is not None:
        for a, b in {(int(a), int(b)) for a, b in zip(frame_scales, partner)}:
            if a == b:
                single_tmpl[a] = _single_template(plans[a])
            else:
                pair_tmpl[(a, b)] = _pair_template(plans[a], plans[b], pick_a)
    elif spatial:
        pair_tmpl[(0, config.n_scales - 1)] = _pair_template(
            plans[0], plans[config.n_scales - 1], pick_a
        )
    else:
        single_tmpl = {s: _single_template(plans[s]) for s in needed}
    timings["fragments"] = time.perf_counter() - t0

    t0 = time.perf_counter()

    def one_frame(t: int) -> tuple[np.ndarray, np.ndarray, float]:
        if partner is not None:  # combined spatial + temporal
            a, b = int(frame_scales[t]), int(partner[t])
            if a == b:
                return _render_single(pyramid, a, t, plans, config, single_tmpl[a])
            return _render_pair(
                pyramid, a, b, t, plans, config, pick_a, cell_pick, pair_tmpl[(a, b)]
            )
        if spatial:  # spatial-only: every frame interlaces levels 0 and n-1
            b = config.n_scales - 1
            return _render_pair(
                pyramid, 0, b, t, plans, config, pick_a, cell_pick, pair_tmpl[(0, b)]
            )
        s = int(frame_scales[t])
        return _render_single(pyramid, s, t, plans, config, single_tmpl[s])

    results, busy = _parallel_map(one_frame, list(range(frames_out)))
    data = np.stack([d for d, _, _ in results])
    prov = np.stack([p for _, p, _ in results])
    tensor = SampledTensor(
        kind="video",
        data=data,
        n_scales=config.n_scales,
        spatial_mask=config.spatial_mask,
        temporal_mask=config.temporal_mask,
        seed=config.seed,
        schedule=schedule,
        provenance=prov,
        grid=(config.grid_rows, config.grid_cols),
    )
    span = time.perf_counter() - t0
    # Serially, each frame's interpolation is a disjoint part of this span.
    # Threaded frames overlap, so the span is split by the interpolation
    # share of the summed per-frame time instead.
    interp = sum(i for _, _, i in results)
    if busy:
        interp = span * (interp / busy)
    timings["pyramid"] += interp
    timings["compose"] = span - interp
    return SampleResult(tensor=tensor, pyramid=pyramid, timings=timings)


def sample_media(media, config: SamplerConfig) -> SampleResult:
    """Dispatch on media type."""
    if isinstance(media, FrameBuffer):
        return sample_image(media, config)
    if isinstance(media, MediaClip):
        return sample_video(media, config)
    raise TypeError(f"expected FrameBuffer or MediaClip, got {type(media)!r}")
