"""End-to-end sampling: pyramid -> plan -> one gather per (frame, level).

An image is a one-frame clip: ``sample_image`` and ``sample_video`` run
the same selection, pyramid, plan and gather, and differ only in the
validation they apply and the number of output frames.

Every mode reduces to the same two steps. The plan of an output frame is
its per-pixel (scale, y, x): which level owns each pixel and where in that
level it lies. A frame draws on a tuple of levels (one level, or a level
pair under a spatial mask), and one owner map, the spatial mask's
``indices`` or all zeros without one, says which of them owns each pixel.
Single-scale frames, temporal schedules, spatial window and patch masks
and their combination differ only in their level tuples and owner map. A
plan is built once per distinct level tuple.

Then the selected source frames are streamed, and only the source rows
the plans tap are read. Source frames whose output frames draw on the
same level tuples tap the same rows: for each such group the rows are
marked from the plans (``tap_rows``) and each level's taps are built on
those rows (``pixel_taps``), once. Each source frame of the group is
then read once, just those rows (``sources.read(i, rows)``, on the clip
the levels share, whose frames may be smaller than the levels), every
(frame, level) that draws on it runs one gather straight into the
preallocated output, and it is released before the next is read. So
memory is one source frame's rows and one group's taps plus the output.
The provenance is the plans with the frame index broadcast in. The
gather cost does not grow with the number of levels interlaced.
The tests check the bytes against a reference that materializes whole
per-level mosaics and composes them by mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fragments import LevelPlan, plan_level
from .masks import level_count, make_spatial_mask, make_temporal_mask
from .media import (
    PROVENANCE_DTYPE,
    FrameBuffer,
    MediaClip,
    SamplerConfig,
    select_frames,
)
from .pack import SampledTensor
from .pyramid import PixelTaps, PyramidLevel, build_pyramid, gather_taps, pixel_taps, tap_rows


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

    owned: np.ndarray | None  # (H*W,) bool over the output; None when it owns all
    taps: PixelTaps


def _frame_plan(
    levels: tuple[int, ...], plans: dict[int, LevelPlan], owner: np.ndarray
) -> tuple[np.ndarray, list]:
    """Per-pixel (scale, y, x) of an output frame whose pixel p is drawn from
    level ``levels[owner[p]]`` (``frame`` left 0), and each level's part of
    it: (s, owned, ys, xs), ``owned`` None when the level owns every pixel.
    A level named twice in ``levels`` owns the union of its indices."""
    plan = np.zeros(owner.size, dtype=PROVENANCE_DTYPE)
    parts = []
    for s in sorted(set(levels)):
        index = [k for k, level in enumerate(levels) if level == s]
        owned = None if len(index) == len(levels) else np.isin(owner.reshape(-1), index)
        where = slice(None) if owned is None else owned
        p = plans[s]
        ys, xs = p.src_y.reshape(-1)[where], p.src_x.reshape(-1)[where]
        for field, value in (("scale", p.scale_id), ("y", ys), ("x", xs)):
            plan[field][where] = value
        parts.append((s, owned, ys, xs))
    return plan.reshape(owner.shape), parts


def _gather_frame(src: np.ndarray, out: np.ndarray, owners: list[_Owner]) -> None:
    """Fill one output frame, viewed as (H*W,) RGB items, from its source."""
    for owner in owners:
        pixels = gather_taps(src, owner.taps).view(_RGB).reshape(-1)
        if owner.owned is None:
            out[:] = pixels
        else:
            out[owner.owned] = pixels


def _render(
    pyramid: list[PyramidLevel],
    config: SamplerConfig,
    frame_levels: list[tuple[int, ...]],
    timings: dict[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """(data, provenance) of output frames ``t`` drawn from ``frame_levels[t]``.

    Each distinct level tuple gets one frame plan. Source frames are taken
    in groups that draw on the same level tuples; a group's tapped rows
    and taps are found once, then each of its source frames is read once,
    those rows only, every output frame drawn from it is gathered, and it
    is released before the next is read, so the sources held at once are
    one frame's rows. Adds the planning time to ``timings["fragments"]``,
    the taps, row reads and gathers to ``timings["pyramid"]`` and the
    provenance fill to ``timings["compose"]``.
    """
    t0 = time.perf_counter()
    needed = sorted({s for levels in frame_levels for s in levels})
    plans = {s: plan_level(pyramid[s], config) for s in needed}
    if config.spatial_mask == "none":
        owner_map = np.zeros((config.out_h, config.out_w), dtype=np.uint8)
    else:
        owner_map = make_spatial_mask(config.spatial_mask, config.out_h, config.out_w).indices
    frame_plans, frame_parts = {}, {}
    for levels in set(frame_levels):
        frame_plans[levels], frame_parts[levels] = _frame_plan(levels, plans, owner_map)
    timings["fragments"] = time.perf_counter() - t0

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
    sources = pyramid[0].sources  # the clip the levels of one pyramid share
    slots: dict[int, list[int]] = {}
    for t, key in enumerate(sources.source_keys):
        slots.setdefault(key, []).append(t)
    # source frames whose slots draw on the same level tuples tap the same rows
    groups: dict[frozenset, list[int]] = {}
    for key, ts in slots.items():
        groups.setdefault(frozenset(frame_levels[t] for t in ts), []).append(key)
    for tuples, keys in groups.items():
        marks = np.zeros(sources.height, dtype=bool)
        for levels in tuples:
            for s, _, ys, _ in frame_parts[levels]:
                tap_rows(pyramid[s], ys, marks)
        rows = np.flatnonzero(marks)
        owners = {
            levels: [
                _Owner(owned, pixel_taps(pyramid[s], ys, xs, rows))
                for s, owned, ys, xs in frame_parts[levels]
            ]
            for levels in tuples
        }
        for key in keys:
            ts = slots[key]
            src = sources.read(ts[0], rows)
            for t in ts:
                _gather_frame(src, data[t].view(_RGB).reshape(-1), owners[frame_levels[t]])
            del src  # release this frame before the next is read
    timings["pyramid"] += time.perf_counter() - t0
    return data, prov


# ---------------------------------------------------------------------------
# Entry points: an image is a one-frame clip


def _frame_levels(
    config: SamplerConfig, frames_out: int
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """The pyramid levels each output frame draws from, and the temporal
    schedule (empty without a temporal mask). In every mode a frame draws on
    its scheduled level (0 without a temporal mask) and the next coarser
    ones, as many as the spatial mask staggers, capped at the coarsest."""
    scales, schedule = [0] * frames_out, ()
    if config.temporal_mask != "none":
        tmask = make_temporal_mask(config.temporal_mask, frames_out, config.n_scales)
        scales, schedule = tmask.frame_scales().tolist(), tmask.schedule
    width = level_count(config.spatial_mask, "none", frames_out)
    top = config.n_scales - 1
    return [tuple(min(s + k, top) for k in range(width)) for s in scales], schedule


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
