"""End-to-end sampling: select -> pyramid -> plan -> one gather per (frame, level).

An image is a one-frame clip: ``sample_image`` and ``sample_video`` run
the same selection, pyramid, plan and gather, and differ only in the
validation they apply and the number of output frames.

Every output byte follows from one value, a ``SamplingPlan``, which
``plan_sampling`` builds from the config, the raw dims and the selected
source keys alone, with no clip or pixel: ``level_dims``, which
``build_pyramid`` follows too, gives the level dims. An output frame draws
on a tuple of levels (one level, or a level pair under a spatial mask),
and one owner map, the spatial mask's ``indices`` or all zeros, says
which of them owns each pixel; every mode differs only in its level
tuples and owner map. The plan alone states where a pixel lies in its
level (``coords``), which level of a tuple owns which pixels (``parts``)
and each level's share of the output (``shares``). The output is a grid
of fragments, so a pixel's level row depends only on its (cell row, cell
col, dy) and its level column only on (cell row, cell col, dx):
``coords`` returns those two compact factors, and every consumer
broadcasts them rather than expanding them per pixel.

``_render`` executes a plan. Source frames whose output frames draw on
the same level tuples tap the same source rows and form a group. The
render marks the rows every tuple of a group taps (``tap_rows``) from the
compact ``coords`` factors (under a spatial mask, the factor rows holding
an owned pixel), then reads each of the group's source frames once, just
those rows, one after another, and runs one gather straight into the
output for every (frame, level) drawing on it, releasing the frame before
the next is read. A source frame's output frames are rendered in
level-tuple order, and only the last-built tuple's taps on the rows
(``pixel_taps``) are kept: reused while the next output frame draws on
the same tuple and dropped before the next tuple's are built, from its
parts' owned-pixel coordinates built just for them. So memory is the
output, one source frame's rows, one tuple's taps and one gather's
temporaries, for every clip length: under the VQA default a 1080p clip
of 1 to 64 frames peaks at 23.1 MB under ``tracemalloc``, and the gather
cost does not grow with the number of levels interlaced. A clip of at
least ``frames_out`` frames, and every image, builds each tuple's taps
once; a shorter clip builds a tuple once per source frame that draws on
it. No owner mask is kept from row marking to tap building: ``parts``
compares the owner map afresh for each, in microseconds.
``provenance`` likewise fills one level tuple's records at a time,
straight into the array it returns. The tests check the bytes against a
reference that composes whole per-level mosaics.

``SampleResult.timings``: ``pyramid`` is the pyramid layout plus the
plan's execution (coordinates, row marking, taps, row reads, gathers),
``fragments`` the planning (level tuples, owner map, offsets), and
``compose`` the v1 provenance records (``plan.provenance()``).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .fragments import plan_level
from .masks import level_count, make_spatial_mask, make_temporal_mask
from .media import PROVENANCE_DTYPE, FrameBuffer, MediaClip, SamplerConfig, select_frames
from .pack import SampledTensor
from .pyramid import (
    PixelTaps, PyramidLevel, build_pyramid, gather_taps, level_dims, pixel_taps, tap_rows,
)


# ---------------------------------------------------------------------------
# The plan


@dataclass(frozen=True)
class SamplingPlan:
    """Which source frame, level and level pixel feed each output pixel:
    pixel (i, j) of output frame t is the pixel of level
    ``s = frame_levels[t][owner[i, j]]`` over source frame
    ``source_keys[t]`` of the selected clip at the (i, j) entry of the
    ``coords(s)`` factors broadcast to (out_h, out_w)."""

    config: SamplerConfig
    source_keys: tuple[int, ...]  # per output frame
    frame_levels: tuple[tuple[int, ...], ...]  # per output frame
    schedule: tuple[int, ...]  # per frame pair; empty without a temporal mask
    offsets: dict[int, np.ndarray]  # needed level -> (grid_rows, grid_cols, 2)
    owner: np.ndarray  # (out_h, out_w) uint8, an index into a frame's level tuple

    def coords(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """(ys, xs): the level-``s`` coordinates of the output pixels as two
        factors in (row, dy, col, dx) order, ``ys`` of shape (grid_rows,
        frag_h, grid_cols, 1) and ``xs`` of shape (grid_rows, 1, grid_cols,
        frag_w). A pixel's coordinate is its cell's fragment offset plus its
        place in the fragment, so broadcast together and reshaped to
        (out_h, out_w) they are the per-pixel maps."""
        c = self.config
        off = self.offsets[s]
        ys = off[:, None, :, None, 0] + np.arange(c.frag_h)[:, None, None]
        xs = off[:, None, :, None, 1] + np.arange(c.frag_w)
        return ys, xs

    @property
    def grid_shape(self) -> tuple[int, int, int, int]:
        """The (row, dy, col, dx) shape the ``coords`` factors broadcast to;
        it reshapes to (out_h, out_w) without a copy."""
        c = self.config
        return (c.grid_rows, c.frag_h, c.grid_cols, c.frag_w)

    def parts(self, levels: tuple[int, ...]) -> list[tuple[int, np.ndarray | None]]:
        """(s, owned) for each level s of the tuple ``levels`` that owns
        output pixels. Pixel p is owned by ``levels[owner[p]]``, so a level
        named twice owns the union of its indices: ``owned`` is the OR of
        ``owner == k`` over them, an (out_h*out_w,) bool over the output,
        None when s owns every pixel (and no owner map is read)."""
        owner = self.owner.reshape(-1)
        parts = []
        for s in sorted(set(levels)):
            index = [k for k, level in enumerate(levels) if level == s]
            owned = None
            if len(index) < len(levels):
                owned = np.logical_or.reduce([owner == k for k in index])
            if owned is None or owned.any():
                parts.append((s, owned))
        return parts

    def shares(self) -> dict[int, float]:
        """Fraction of output pixels each level feeds: the frames drawing on
        it times the owner-map pixels it owns in them."""
        pixels: dict[int, int] = {}
        for levels, n_frames in Counter(self.frame_levels).items():
            for s, owned in self.parts(levels):
                owns = self.owner.size if owned is None else int(np.count_nonzero(owned))
                pixels[s] = pixels.get(s, 0) + n_frames * owns
        total = len(self.frame_levels) * self.owner.size
        return {s: pixels[s] / total for s in sorted(pixels)}

    def provenance(self) -> np.ndarray:
        """The (T, out_h, out_w) PROVENANCE_DTYPE records of a v1 container:
        each output pixel's level, output frame and level coordinates."""
        n_frames = len(self.frame_levels)
        prov = np.empty((n_frames, *self.owner.shape), dtype=PROVENANCE_DTYPE)
        records = prov.reshape(n_frames, -1).view(np.uint8)
        frames: dict[tuple[int, ...], list[int]] = {}
        for t, levels in enumerate(self.frame_levels):
            frames.setdefault(levels, []).append(t)
        # fill each level tuple's first frame field-wise, then copy its raw
        # records into the tuple's other frames: ~25x faster than field-wise
        for levels, (first, *rest) in frames.items():
            records[first] = 0
            grid = prov[first].reshape(self.grid_shape)  # a view: fields write into prov
            for s, owned in self.parts(levels):
                where = True if owned is None else owned.reshape(self.grid_shape)
                for name, value in zip(("scale", "y", "x"), (s, *self.coords(s))):
                    np.copyto(grid[name], value, where=where, casting="unsafe")
            records[rest] = records[first]
        prov["frame"] = np.arange(n_frames)[:, None, None]
        return prov


def plan_sampling(
    height: int, width: int, source_keys: tuple[int, ...], config: SamplerConfig
) -> SamplingPlan:
    """The plan that samples each of ``source_keys``, frames of a
    ``height`` x ``width`` clip, into one output frame, under a validated
    ``config``; needs no clip and reads no pixel. A frame draws on its
    scheduled level (0 without a temporal mask) and the next coarser ones
    the spatial mask staggers, capped at the top."""
    frames_out = len(source_keys)
    scales, schedule = [0] * frames_out, ()
    if config.temporal_mask != "none":
        tmask = make_temporal_mask(config.temporal_mask, frames_out, config.n_scales)
        scales, schedule = tmask.frame_scales().tolist(), tmask.schedule
    span = level_count(config.spatial_mask, "none", frames_out)
    top = config.n_scales - 1
    frame_levels = tuple(tuple(min(s + k, top) for k in range(span)) for s in scales)
    if config.spatial_mask == "none":
        owner = np.zeros((config.out_h, config.out_w), dtype=np.uint8)
    else:
        owner = make_spatial_mask(config.spatial_mask, config.out_h, config.out_w).indices
    dims = level_dims(height, width, config)
    needed = sorted({s for levels in frame_levels for s in levels})
    offsets = {s: plan_level(*dims[s], s, config) for s in needed}
    return SamplingPlan(config, tuple(source_keys), frame_levels, schedule, offsets, owner)


@dataclass
class SampleResult:
    tensor: SampledTensor
    pyramid: list[PyramidLevel]
    timings: dict[str, float]
    plan: SamplingPlan


# ---------------------------------------------------------------------------
# Gather


# An RGB pixel as one 3-byte item, so owned pixels move as whole records.
_RGB = np.dtype("V3")


def _render(plan: SamplingPlan, pyramid: list[PyramidLevel]) -> np.ndarray:
    """The (T, out_h, out_w, 3) pixels ``plan`` assigns, read from the clip
    the levels of ``pyramid`` share. For each group of source frames
    drawing on the same level tuples, the rows those tuples tap are marked
    once; then the group's source frames are read one after another, just
    those rows, and each one's output frames rendered in level-tuple order.
    Only the last-built tuple's taps are kept: reused while the next output
    frame draws on the same tuple, dropped before the next tuple's taps are
    built."""
    c = plan.config
    data = np.empty((len(plan.frame_levels), c.out_h, c.out_w, 3), dtype=np.uint8)
    slots: dict[int, list[int]] = {}
    for t, key in enumerate(plan.source_keys):
        slots.setdefault(key, []).append(t)
    groups: dict[frozenset, dict[int, list[int]]] = {}
    for key, ts in slots.items():
        groups.setdefault(frozenset(plan.frame_levels[t] for t in ts), {})[key] = ts
    sources = pyramid[0].sources
    for tuples, group in groups.items():
        # the last-built level tuple and its [(owned, taps)]; taps index the
        # group's rows, so each group builds afresh
        built, taps = None, None
        marks = np.zeros(sources.height, dtype=bool)
        for levels in tuples:
            for s, owned in plan.parts(levels):
                ys = plan.coords(s)[0]
                if owned is not None:  # the level rows of the (row, dy, col) lines holding an owned pixel
                    ys = ys[..., 0][owned.reshape(plan.grid_shape).any(axis=3)]
                tap_rows(pyramid[s], ys, marks)
        rows = np.flatnonzero(marks)
        for key, ts in group.items():
            src = sources.read(ts[0], rows)
            for t in sorted(ts, key=plan.frame_levels.__getitem__):
                levels = plan.frame_levels[t]
                if levels != built:
                    built, taps = levels, None  # drop the last tuple's taps first
                    taps = [(owned, _part_taps(plan, pyramid[s], owned, rows))
                            for s, owned in plan.parts(levels)]
                out = data[t].view(_RGB).reshape(-1)  # one frame as (H*W,) RGB items
                for owned, level_taps in taps:
                    pixels = gather_taps(src, level_taps).view(_RGB).reshape(-1)
                    if owned is None:
                        out[:] = pixels
                    else:
                        out[owned] = pixels
            del src  # release this frame before the next is read
    return data


def _part_taps(
    plan: SamplingPlan, level: PyramidLevel, owned: np.ndarray | None, rows: np.ndarray
) -> PixelTaps:
    """The taps of one part of a level tuple on the source ``rows``. A
    level that owns every pixel (``owned`` None) is tapped at the compact
    coords factors; a part's owned pixels' coordinates (16 bytes a pixel)
    are built just for its taps."""
    ys, xs = plan.coords(level.scale_id)
    if owned is not None:
        shape = plan.grid_shape
        ys, xs = (np.broadcast_to(a, shape)[owned.reshape(shape)] for a in (ys, xs))
    return pixel_taps(level, ys, xs, rows)


# ---------------------------------------------------------------------------
# Entry points: an image is a one-frame clip


def _sample(kind: str, clip: MediaClip, config: SamplerConfig, frames_out: int) -> SampleResult:
    """Select ``frames_out`` frames of ``clip``, pyramid and plan them, and
    render the plan; ``config`` is already validated for ``kind``."""
    selected = select_frames(clip, frames_out, config.seed, config.offset_policy)
    t0 = time.perf_counter()
    pyramid = build_pyramid(selected, config)
    t1 = time.perf_counter()
    plan = plan_sampling(selected.height, selected.width, selected.source_keys, config)
    t2 = time.perf_counter()
    data = _render(plan, pyramid)
    t3 = time.perf_counter()
    prov = plan.provenance()
    timings = {
        "pyramid": (t1 - t0) + (t3 - t2),
        "fragments": t2 - t1,
        "compose": time.perf_counter() - t3,
    }
    tensor = SampledTensor(
        kind=kind,
        data=data,
        n_scales=config.n_scales,
        spatial_mask=config.spatial_mask,
        temporal_mask=config.temporal_mask,
        seed=config.seed,
        schedule=plan.schedule,
        provenance=prov,
    )
    return SampleResult(tensor=tensor, pyramid=pyramid, timings=timings, plan=plan)


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
