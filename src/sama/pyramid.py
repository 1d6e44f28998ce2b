"""Multi-granularity pyramid: linear min-side schedule + bilinear resize.

Levels hold no pixels: the levels of one pyramid share the ``MediaClip``
they were built from as ``level.sources``, which reads a source frame, or
just some of its rows (``sources.read(i, rows)``), when asked and keeps
nothing, so building a pyramid reads nothing. The level dims are one rule
of the raw dims and the config, ``level_dims``, which the planner calls
without a pyramid. A clip below the coarsest level's min side gets levels
larger than its frames: they tap the raw frames like any other level, so
there is no separate upscale. The sampler
marks the source rows a group of its frames taps (``tap_rows``), turns
the level pixels that group needs into ``PixelTaps`` on those rows
(``pixel_taps``, which allocates each at its own size), then reads just
those rows of each of the group's source frames once and runs one
``gather_taps`` per (frame, level) on them. Both take level coordinates
as broadcastable arrays, so the sampler's compact row and column factors
are looked up at their own size and only the index adds and fraction
fills run once per pixel. A level is a value: ``PyramidLevel.frame``
resizes a whole source frame on every call and keeps nothing; it serves
the pyramid-cost gate in ``bench`` and the tests' reference sampler.
Every path blends with ``_lerp_core`` on taps from ``_axis_taps``, so
they agree byte for byte, and access order never changes results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputTooSmall
from .imageio import MAX_PIXELS
from .media import MediaClip, SamplerConfig


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _dims_for_min_side(raw_h: int, raw_w: int, min_side: int) -> tuple[int, int]:
    """Target dims with the given min-side, other side from the raw aspect."""
    if raw_h <= raw_w:
        return min_side, _round_half_up(min_side * raw_w / raw_h)
    return _round_half_up(min_side * raw_h / raw_w), min_side


def _covering_min_side(raw_h: int, raw_w: int, out_h: int, out_w: int) -> int:
    """The least min side whose dims at the raw aspect cover out_h x out_w."""
    short, long = sorted((raw_h, raw_w))
    need_short, need_long = (out_h, out_w) if raw_h <= raw_w else (out_w, out_h)
    # the long side is round_half_up(m * long / short); step past float error
    m = max(need_short, math.floor((need_long - 0.5) * short / long))
    while max(_dims_for_min_side(raw_h, raw_w, m)) < need_long:
        m += 1
    return m


def scale_schedule(
    raw_h: int, raw_w: int, target_min: int, levels: int
) -> tuple[tuple[int, int], ...]:
    """Per-level (height, width) targets; level 0 is the raw resolution.

    Min-side decreases linearly from the raw value to ``target_min``. The
    off side is derived from the raw aspect ratio at every level so
    rounding never accumulates. With a raw min-side equal to the target the
    schedule degenerates to repeated raw dims, which is fine: consecutive
    equal levels just share pixels.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    raw_min = min(raw_h, raw_w)
    if raw_min < target_min:
        raise InputTooSmall(
            f"min side {raw_min} below target {target_min}; upscale first"
        )
    dims = [(raw_h, raw_w)]
    for k in range(1, levels):
        if k == levels - 1:
            m = target_min
        else:
            m = _round_half_up(raw_min + k * (target_min - raw_min) / (levels - 1))
        dims.append(_dims_for_min_side(raw_h, raw_w, m))
    return tuple(dims)


def level_dims(raw_h: int, raw_w: int, config: SamplerConfig) -> tuple[tuple[int, int], ...]:
    """The (height, width) of each of the config's levels over a raw_h x
    raw_w input. The coarsest level is the least size at the raw aspect
    that covers the output. An input below its min side is upscaled to it,
    so every level has that size and level 0 is the raw input, maybe
    upscaled. Raises InputTooSmall when that upscale has more than
    ``MAX_PIXELS`` pixels, as a thin input's would, and ValueError when a
    raw dim is below 1."""
    if raw_h < 1 or raw_w < 1:
        raise ValueError(f"raw dims must be >= 1, got {raw_h}x{raw_w}")
    target_min = _covering_min_side(raw_h, raw_w, config.out_h, config.out_w)
    if min(raw_h, raw_w) < target_min:
        raw_h, raw_w = _dims_for_min_side(raw_h, raw_w, target_min)
        if raw_h * raw_w > MAX_PIXELS:
            raise InputTooSmall(
                f"covering the output upscales the input to {raw_h}x{raw_w}, "
                f"more than the {MAX_PIXELS} pixels allowed"
            )
    return scale_schedule(raw_h, raw_w, target_min, config.n_scales)


def _axis_taps(n_in: int, n_out: int):
    """Source taps of every output index along one axis: the index below
    and above its half-pixel centre, clamped to the edge, and the float32
    weight of the one above."""
    centers = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    centers = np.clip(centers, 0.0, n_in - 1.0)
    i0 = np.floor(centers).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = (centers - i0).astype(np.float32)
    return i0, i1, frac


def _lerp_core(p00, p01, p10, p11, fy, fx):
    """Bilinear blend of four float32 corner arrays, rounded half up to uint8.

    ``fy`` and ``fx`` arrive already broadcastable against the corners. The
    whole-frame resize and the sampler's gather share this arithmetic, so
    their results are byte-identical. The blend runs in place: ``p01`` and
    ``p11`` are overwritten.
    """
    top = p01
    top -= p00
    top *= fx
    top += p00  # p00 + fx * (p01 - p00)
    bot = p11
    bot -= p10
    bot *= fx
    bot += p10  # p10 + fx * (p11 - p10)
    bot -= top
    bot *= fy
    bot += top  # top + fy * (bot - top)
    # a convex blend of uint8 corners lies in [0, 255] up to float32
    # rounding, so bot + 0.5 lies in (0, 256), where the cast truncates
    # as floor would and nothing needs clipping
    bot += 0.5
    return bot.astype(np.uint8)


def resize_rgb(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W, 3) uint8 array, half-pixel centers.

    Channels are resampled independently; values are rounded half-up after
    interpolation. An identity target returns the input unchanged.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be >= 1")
    in_h, in_w = src.shape[:2]
    if (out_h, out_w) == (in_h, in_w):
        return src
    y0, y1, fy = _axis_taps(in_h, out_h)
    x0, x1, fx = _axis_taps(in_w, out_w)
    rows0, rows1 = src[y0], src[y1]  # row slabs, then column picks
    return _lerp_core(
        rows0[:, x0].astype(np.float32),
        rows0[:, x1].astype(np.float32),
        rows1[:, x0].astype(np.float32),
        rows1[:, x1].astype(np.float32),
        fy[:, None, None],
        fx[None, :, None],
    )


# Nothing in the library calls resize_rect; it stays only because the
# benchmark trace wraps it by name, until ROADMAP item 1 retargets the trace.
def resize_rect(
    src: np.ndarray, out_h: int, out_w: int, y0: int, x0: int, h: int, w: int
) -> np.ndarray:
    """The (y0:y0+h, x0:x0+w) window of resize_rgb(src, out_h, out_w)."""
    return resize_rgb(src, out_h, out_w)[y0 : y0 + h, x0 : x0 + w]


@dataclass(frozen=True)
class PixelTaps:
    """Bilinear taps of N level pixels, as flat source-pixel indices.

    ``index`` is (4, N): the top-left, top-right, bottom-left and
    bottom-right source pixel behind each of N level pixels, and ``fy`` and
    ``fx`` are their (N, 3) float32 fractions, repeated per channel so the
    blend runs on contiguous operands. A level the size of its source has a
    (1, N) index and no fractions: its pixels are source pixels, so its
    taps hold 8 bytes a pixel where a resampled level's hold 56. The N
    pixels are the coordinates given to ``pixel_taps`` broadcast together,
    in C order.
    """

    index: np.ndarray
    fy: np.ndarray | None
    fx: np.ndarray | None


def tap_rows(level: PyramidLevel, ys: np.ndarray, marks: np.ndarray) -> None:
    """Set ``marks[r]`` (one bool per source row) for every source row r
    that the taps of level rows ``ys`` read, as ``pixel_taps`` makes them.
    ``ys`` may have any shape, such as a row factor of
    ``SamplingPlan.coords``; the work is the size of ``ys``."""
    if (level.sources.height, level.sources.width) == (level.height, level.width):
        marks[ys] = True
        return
    y0, y1, _ = _axis_taps(level.sources.height, level.height)
    used = np.zeros(level.height, dtype=bool)
    used[ys] = True
    marks[y0[used]] = True
    marks[y1[used]] = True


def _row_starts(positions: np.ndarray, ys: np.ndarray, src_w: int) -> np.ndarray:
    """Flat index of the first pixel of the held source row each level row
    of ``ys`` taps, given each level row's position among the held rows
    (negative where the row is not held)."""
    pos = positions[ys]
    if pos.size and pos.min() < 0:
        raise ValueError("rows misses a source row that the taps read")
    return pos * src_w


def pixel_taps(
    level: PyramidLevel, ys: np.ndarray, xs: np.ndarray, rows: np.ndarray | None = None
) -> PixelTaps:
    """Taps of the level pixels at rows ``ys`` and columns ``xs`` broadcast
    together, into a source frame that holds only the source rows ``rows``
    (ascending; every row when None), such as ``sources.read(i, rows)``.

    Every table lookup runs on ``ys`` and ``xs`` as given, so the compact
    factors of ``SamplingPlan.coords`` cost their own size; only the index
    adds and fraction fills run once per pixel, broadcasting into new
    tables of exactly the size ``PixelTaps`` describes. The taps are indexed
    out of the full-axis taps, so a gather equals the same pixels of
    ``level.frame``. A source row that the taps read and ``rows`` misses
    raises ValueError."""
    src_h, src_w = level.sources.height, level.sources.width
    ys = np.asarray(ys, dtype=np.intp)
    xs = np.asarray(xs, dtype=np.intp)
    shape = np.broadcast_shapes(ys.shape, xs.shape)
    # source row -> its position among ``rows``; -1 marks a row not held
    rowmap = np.arange(src_h)
    if rows is not None:
        rowmap = np.full(src_h, -1, dtype=np.intp)
        rowmap[rows] = np.arange(len(rows))
    if (src_h, src_w) == (level.height, level.width):
        cols = np.arange(src_w)[xs]  # a column past the edge raises, as x0[xs] does
        return PixelTaps((_row_starts(rowmap, ys, src_w) + cols).reshape(1, -1), None, None)
    y0, y1, fy = _axis_taps(src_h, level.height)
    x0, x1, fx = _axis_taps(src_w, level.width)
    r0 = _row_starts(rowmap[y0], ys, src_w)
    r1 = _row_starts(rowmap[y1], ys, src_w)
    c0 = x0[xs]
    c1 = x1[xs]
    index = np.empty((4, *shape), np.intp)
    for k, (r, c) in enumerate(((r0, c0), (r0, c1), (r1, c0), (r1, c1))):
        np.add(r, c, out=index[k])
    fys, fxs = (np.empty((*shape, 3), np.float32) for _ in range(2))
    np.copyto(fys, fy[ys][..., None])
    np.copyto(fxs, fx[xs][..., None])
    return PixelTaps(index.reshape(4, -1), fys.reshape(-1, 3), fxs.reshape(-1, 3))


def gather_taps(src: np.ndarray, taps: PixelTaps) -> np.ndarray:
    """The (N, 3) uint8 level pixels behind ``taps``, from one source frame."""
    corners = src.reshape(-1, 3).take(taps.index, axis=0)
    if taps.fy is None:
        return corners[0]
    c = corners.astype(np.float32)
    return _lerp_core(c[0], c[1], c[2], c[3], taps.fy, taps.fx)


@dataclass(frozen=True)
class PyramidLevel:
    """One pyramid level: target dims over source frames it does not hold.

    ``sources`` is the ``MediaClip`` the level resamples; its dims may be
    below, at or above the level's. The sampler reads a level through
    ``pixel_taps``/``gather_taps`` and never materializes it.
    """

    scale_id: int
    sources: MediaClip
    height: int
    width: int

    def frame(self, i: int) -> np.ndarray:
        """The (height, width, 3) pixels of frame ``i`` at this level,
        resized afresh on every call; a level the size of its source
        returns the source frame itself."""
        return resize_rgb(self.sources.read(i), self.height, self.width)

    # Nothing in the library calls rect; it stays only because the benchmark
    # trace wraps it by name, until ROADMAP item 1 retargets the trace.
    def rect(self, i: int, y0: int, x0: int, h: int, w: int) -> np.ndarray:
        """The (h, w, 3) window (y0:y0+h, x0:x0+w) of frame ``i``."""
        return self.frame(i)[y0 : y0 + h, x0 : x0 + w]


def build_pyramid(clip: MediaClip, config: SamplerConfig) -> list[PyramidLevel]:
    """The ``level_dims`` levels over one clip, which they share as
    ``sources``. Decodes nothing: the raw dims come from the clip."""
    dims = level_dims(clip.height, clip.width, config)
    return [PyramidLevel(s, clip, h, w) for s, (h, w) in enumerate(dims)]
