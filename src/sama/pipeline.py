"""End-to-end sampling: pyramid -> plan -> one gather per (frame, level).

An image is a one-frame clip: ``sample_image`` and ``sample_video`` run
the same selection, pyramid, plan and gather, and differ only in the
validation they apply and the number of output frames.

Every mode reduces to the same two steps. The plan of an output frame is
its per-pixel (scale, y, x): which level owns each pixel and where in that
level it lies. Single-scale frames, temporal schedules, spatial window and
patch masks and their combination differ only in the plan. A plan is built
once per distinct level or level pair, and each level it draws on gets its
full-axis bilinear taps, indexed by the plan, once per call. Each (frame,
level) then runs one gather straight into the preallocated output, and the
provenance is the plans with the frame index broadcast in. The gather
cost does not grow with the number of levels interlaced. The tests check
the bytes against a reference that materializes whole per-level mosaics
and composes them by mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fragments import LevelPlan, plan_level
from .masks import make_spatial_mask, make_temporal_mask
from .media import (
    PROVENANCE_DTYPE,
    FrameBuffer,
    MediaClip,
    SamplerConfig,
    select_frames,
)
from .pack import SampledTensor
from .pyramid import PixelTaps, PyramidLevel, build_pyramid, gather_taps, pixel_taps


@dataclass
class SampleResult:
    tensor: SampledTensor
    pyramid: list[PyramidLevel]
    timings: dict[str, float]


# ---------------------------------------------------------------------------
# Plan and gather


# An RGB pixel as one 3-byte item, so owned pixels move as whole records.
_RGB = np.dtype("V3")


@dataclass(frozen=True)
class _Owner:
    """The output pixels of a frame plan that one level owns, with their taps."""

    level: PyramidLevel
    owned: np.ndarray | None  # (H*W,) bool over the output; None when it owns all
    taps: PixelTaps


def _frame_plan(levels: tuple[int, ...], plans: dict[int, LevelPlan], pick_a) -> np.ndarray:
    """Per-pixel (scale, y, x) of an output frame drawn from one level, or
    from a level pair split by the spatial mask; ``frame`` is left 0."""
    a = plans[levels[0]]
    plan = np.empty(a.src_y.shape, dtype=PROVENANCE_DTYPE)
    plan["frame"] = 0
    if len(levels) == 1:
        plan["scale"] = a.scale_id
        plan["y"] = a.src_y
        plan["x"] = a.src_x
    else:
        b = plans[levels[1]]
        plan["scale"] = np.where(pick_a, a.scale_id, b.scale_id)
        plan["y"] = np.where(pick_a, a.src_y, b.src_y)
        plan["x"] = np.where(pick_a, a.src_x, b.src_x)
    return plan


def _owners(plan: np.ndarray, pyramid: list[PyramidLevel]) -> list[_Owner]:
    """Split a frame plan by owning level and precompute each part's taps."""
    scale = plan["scale"].reshape(-1)
    ys = plan["y"].reshape(-1)
    xs = plan["x"].reshape(-1)
    counts = np.bincount(scale, minlength=len(pyramid))
    owners = []
    for s in np.flatnonzero(counts):
        level = pyramid[s]
        if counts[s] == scale.size:
            owners.append(_Owner(level, None, pixel_taps(level, ys, xs)))
        else:
            owned = scale == s
            owners.append(_Owner(level, owned, pixel_taps(level, ys[owned], xs[owned])))
    return owners


def _render(
    pyramid: list[PyramidLevel],
    config: SamplerConfig,
    frame_levels: list[tuple[int, ...]],
    timings: dict[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """(data, provenance) of output frames ``t`` drawn from ``frame_levels[t]``.

    Each distinct level tuple gets one frame plan and one set of taps; every
    (frame, level) then runs one gather straight into the output. Adds the
    planning time to ``timings["fragments"]``, the taps and gathers to
    ``timings["pyramid"]`` and the provenance fill to ``timings["compose"]``.
    """
    t0 = time.perf_counter()
    needed = sorted({s for levels in frame_levels for s in levels})
    plans = {s: plan_level(pyramid[s], config) for s in needed}
    pick_a = None
    if config.spatial_mask != "none":
        mask = make_spatial_mask(config.spatial_mask, config.out_h, config.out_w)
        pick_a = mask.bitmap.astype(bool)
    frame_plans = {levels: _frame_plan(levels, plans, pick_a) for levels in set(frame_levels)}
    timings["fragments"] = time.perf_counter() - t0

    t0 = time.perf_counter()  # taps are interpolation weights: pyramid work
    owners = {levels: _owners(plan, pyramid) for levels, plan in frame_plans.items()}
    timings["pyramid"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    n_frames = len(frame_levels)
    prov = np.empty((n_frames, config.out_h, config.out_w), dtype=PROVENANCE_DTYPE)
    records = prov.view(np.uint8)  # raw copies: ~25x faster than field-wise
    for t, levels in enumerate(frame_levels):
        records[t] = frame_plans[levels].view(np.uint8)
    prov["frame"] = np.arange(n_frames)[:, None, None]
    timings["compose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    data = np.empty((n_frames, config.out_h, config.out_w, 3), dtype=np.uint8)
    for t, levels in enumerate(frame_levels):
        out = data[t].view(_RGB).reshape(-1)
        for owner in owners[levels]:
            pixels = gather_taps(owner.level.sources[t], owner.taps).view(_RGB).reshape(-1)
            if owner.owned is None:
                out[:] = pixels
            else:
                out[owner.owned] = pixels
    timings["pyramid"] += time.perf_counter() - t0
    return data, prov


# ---------------------------------------------------------------------------
# Entry points: an image is a one-frame clip


def _frame_levels(
    config: SamplerConfig, frames_out: int
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """The pyramid levels each output frame draws from, and the temporal
    schedule (empty without a temporal mask)."""
    spatial = config.spatial_mask != "none"
    if config.temporal_mask == "none":
        levels = (0, config.n_scales - 1) if spatial else (0,)
        return [levels] * frames_out, ()
    tmask = make_temporal_mask(config.temporal_mask, frames_out, config.n_scales)
    frame_scales = [int(s) for s in tmask.frame_scales()]
    if not spatial:
        return [(s,) for s in frame_scales], tmask.schedule
    # experimental: interlace each frame pair between its scheduled level
    # and the next-coarser one (clamped at the top)
    top = config.n_scales - 1
    return [(a,) if a == top else (a, a + 1) for a in frame_scales], tmask.schedule


def _sample(kind: str, clip: MediaClip, config: SamplerConfig, frames_out: int) -> SampleResult:
    """Select ``frames_out`` frames of ``clip``, pyramid them and render each
    output frame from its levels; ``config`` is already validated for ``kind``."""
    selected = select_frames(clip, frames_out, config.seed, config.offset_policy)
    frame_levels, schedule = _frame_levels(config, frames_out)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    pyramid = build_pyramid(selected, config)
    timings["pyramid"] = time.perf_counter() - t0
    data, prov = _render(pyramid, config, frame_levels, timings)
    tensor = SampledTensor(
        kind=kind,
        data=data,
        n_scales=config.n_scales,
        spatial_mask=config.spatial_mask,
        temporal_mask=config.temporal_mask,
        seed=config.seed,
        schedule=schedule,
        provenance=prov,
        grid=(config.grid_rows, config.grid_cols),
    )
    return SampleResult(tensor=tensor, pyramid=pyramid, timings=timings)


def sample_image(frame: FrameBuffer, config: SamplerConfig) -> SampleResult:
    """Sample one image into a (1, out_h, out_w, 3) tensor with provenance.

    The image is sampled as a one-frame clip; ``config.frames_out`` is
    ignored.
    """
    config.validate("image")
    return _sample("image", MediaClip((frame,)), config, 1)


def sample_video(clip: MediaClip, config: SamplerConfig) -> SampleResult:
    """Select frames, pyramid them, and interlace scales over time/space."""
    config.validate("video")
    return _sample("video", clip, config, config.frames_out)


def sample_media(media, config: SamplerConfig) -> SampleResult:
    """Dispatch on media type."""
    if isinstance(media, FrameBuffer):
        return sample_image(media, config)
    if isinstance(media, MediaClip):
        return sample_video(media, config)
    raise TypeError(f"expected FrameBuffer or MediaClip, got {type(media)!r}")
