"""Multi-granularity pyramid: linear min-side schedule + bilinear resize.

Levels hold no pixels: the levels of one pyramid share one
``SourceFrames``, which reads a source frame, or just some of its rows
(``sources[i, rows]``), when asked and keeps nothing, and building a
pyramid reads nothing. ``SourceFrames`` is also the one upscale path: a
clip below the coarsest level's min side is read whole and upscaled as
each frame is read. The sampler marks the source rows its plan taps
(``tap_rows``), turns the level pixels it needs into ``PixelTaps`` on
those rows (``pixel_taps``), then reads just those rows of each distinct
source frame once and runs one ``gather_taps`` per (frame, level) on
them. Whole frames (``PyramidLevel.frame``, memoized per source frame)
serve the pyramid-cost gate in ``bench`` and the tests' reference
sampler. Every path blends with ``_lerp_core`` on taps from
``_axis_taps``, so they agree byte for byte, and access order never
changes results.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputTooSmall
from .media import FrameBuffer, MediaClip, SamplerConfig


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


@dataclass(frozen=True)
class ScaleSchedule:
    """Per-level (height, width) targets; level 0 is the raw resolution."""

    dims: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> tuple[int, int]:
        return self.dims[i]

    def __iter__(self):
        return iter(self.dims)

    @property
    def min_sides(self) -> tuple[int, ...]:
        return tuple(min(h, w) for h, w in self.dims)


def scale_schedule(raw_h: int, raw_w: int, target_min: int, levels: int) -> ScaleSchedule:
    """Min-side decreases linearly from the raw value to ``target_min``.

    The off side is derived from the raw aspect ratio at every level so
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
    return ScaleSchedule(tuple(dims))


def _axis_taps(n_in: int, n_out: int, start: int = 0, count: int | None = None):
    """Source taps for output indices [start, start+count); the subrange of
    the full-axis taps, computed with the identical expression."""
    stop = n_out if count is None else start + count
    centers = (np.arange(start, stop, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    centers = np.clip(centers, 0.0, n_in - 1.0)
    i0 = np.floor(centers).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = (centers - i0).astype(np.float32)
    return i0, i1, frac


def _lerp_core(p00, p01, p10, p11, fy, fx):
    """Bilinear blend of four float32 corner arrays, rounded half up to uint8.

    ``fy`` and ``fx`` arrive already broadcastable against the corners. Every
    resize path and the sampler's gather share this arithmetic, so windowed,
    whole-frame and per-pixel results are byte-identical. The blend runs in
    place: ``p01`` and ``p11`` are overwritten.
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
    bot += 0.5
    np.floor(bot, out=bot)
    np.clip(bot, 0, 255, out=bot)
    return bot.astype(np.uint8)


def _lerp_gather(src, y0, y1, fy, x0, x1, fx):
    # row slabs then column picks; for a window, only the window's taps
    rows0 = src[y0]
    rows1 = src[y1]
    return _lerp_core(
        rows0[:, x0].astype(np.float32),
        rows0[:, x1].astype(np.float32),
        rows1[:, x0].astype(np.float32),
        rows1[:, x1].astype(np.float32),
        fy[:, None, None],
        fx[None, :, None],
    )


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
    return _lerp_gather(src, y0, y1, fy, x0, x1, fx)


# Nothing in the library calls resize_rect; it stays only because the
# benchmark trace wraps it by name, until ROADMAP item 1 retargets the trace.
def resize_rect(
    src: np.ndarray, out_h: int, out_w: int, y0: int, x0: int, h: int, w: int
) -> np.ndarray:
    """The (y0:y0+h, x0:x0+w) window of resize_rgb(src, out_h, out_w).

    Bit-identical to slicing the full resize, at the cost of only the
    window: interpolation is local, so pipelines that keep a few fragments
    per level never pay for whole-level frames.
    """
    ty0, ty1, tfy = _axis_taps(src.shape[0], out_h, y0, h)
    tx0, tx1, tfx = _axis_taps(src.shape[1], out_w, x0, w)
    return _lerp_gather(src, ty0, ty1, tfy, tx0, tx1, tfx)


@dataclass(frozen=True)
class PixelTaps:
    """Bilinear taps of scattered level pixels, as flat source-pixel indices.

    ``index`` is (4, N): the top-left, top-right, bottom-left and
    bottom-right source pixel behind each of N level pixels, and ``fy`` and
    ``fx`` are their (N, 3) float32 fractions, repeated per channel so the
    blend runs on contiguous operands. A level the size of its source has a
    (1, N) index and no fractions: its pixels are source pixels.
    """

    index: np.ndarray
    fy: np.ndarray | None
    fx: np.ndarray | None


def tap_rows(level: PyramidLevel, ys: np.ndarray, marks: np.ndarray) -> None:
    """Set ``marks[r]`` (one bool per source row) for every source row r
    that the taps of level rows ``ys`` read, as ``pixel_taps`` makes them."""
    if (level.sources.height, level.sources.width) == (level.height, level.width):
        marks[ys] = True
        return
    y0, y1, _ = _axis_taps(level.sources.height, level.height)
    used = np.zeros(level.height, dtype=bool)
    used[ys] = True
    marks[y0[used]] = True
    marks[y1[used]] = True


def pixel_taps(
    level: PyramidLevel, ys: np.ndarray, xs: np.ndarray, rows: np.ndarray | None = None
) -> PixelTaps:
    """Taps of level pixels (ys[k], xs[k]) into a source frame that holds
    only the source rows ``rows`` (ascending; every row when None), such
    as ``sources[i, rows]``. They are indexed out of the full-axis taps,
    so a gather equals the same pixels of ``level.frame``; ``rows`` must
    hold every row ``tap_rows`` marks for ``ys``."""
    src_h, src_w = level.sources.height, level.sources.width
    ys = ys.astype(np.intp)
    xs = xs.astype(np.intp)
    rowmap = np.arange(src_h)  # source row -> its position among ``rows``
    if rows is not None:
        rowmap[rows] = np.arange(len(rows))
    if (src_h, src_w) == (level.height, level.width):
        return PixelTaps((rowmap[ys] * src_w + xs)[None], None, None)
    y0, y1, fy = _axis_taps(src_h, level.height)
    x0, x1, fx = _axis_taps(src_w, level.width)
    r0 = (rowmap[y0] * src_w)[ys]
    r1 = (rowmap[y1] * src_w)[ys]
    c0 = x0[xs]
    c1 = x1[xs]
    index = np.empty((4, ys.size), dtype=np.intp)
    for k, (r, c) in enumerate(((r0, c0), (r0, c1), (r1, c0), (r1, c1))):
        np.add(r, c, out=index[k])
    return PixelTaps(index, np.repeat(fy[ys, None], 3, axis=1), np.repeat(fx[xs, None], 3, axis=1))


def gather_taps(src: np.ndarray, taps: PixelTaps) -> np.ndarray:
    """The (N, 3) uint8 level pixels behind ``taps``, from one source frame."""
    corners = src.reshape(-1, 3).take(taps.index, axis=0)
    if taps.fy is None:
        return corners[0]
    c = corners.astype(np.float32)
    return _lerp_core(c[0], c[1], c[2], c[3], taps.fy, taps.fx)


class SourceFrames(Sequence):
    """The source frames a pyramid's levels resize from, read when indexed.

    ``sources[i]`` is frame ``i`` of the clip as an (H, W, 3) array, and
    ``sources[i, rows]`` just its rows ``rows`` (ascending), as a
    (len(rows), W, 3) array. Both read with ``MediaClip.read``, so a frame
    its clip has not kept is read and not kept. A clip below the pyramid's
    min side is read whole and upscaled to ``height`` x ``width`` as each
    frame is read, since the upscale taps every row. ``keys[i]`` names the
    source behind frame ``i``: frames with equal keys hold the same pixels.
    """

    def __init__(self, clip: MediaClip, height: int | None = None, width: int | None = None):
        self.clip = clip
        self.keys = clip.source_keys
        self.height = clip.height if height is None else height
        self.width = clip.width if width is None else width

    def __len__(self) -> int:
        return len(self.clip)

    def __getitem__(self, item) -> np.ndarray:
        i, rows = item if isinstance(item, tuple) else (item, None)
        if (self.clip.height, self.clip.width) == (self.height, self.width):
            return self.clip.read(i, rows)
        src = resize_rgb(self.clip.read(i), self.height, self.width)
        return src if rows is None else src[rows]


class PyramidLevel:
    """One pyramid level: target dims over source frames it does not hold.

    ``sources`` is a ``SourceFrames``, or a list of arrays, which is
    wrapped as one. The sampler reads a level through
    ``pixel_taps``/``gather_taps`` and never materializes it. ``frame``
    resizes a whole frame on first access and memoizes it per source frame
    (``sources.keys``); ``rect`` resizes one window.
    """

    def __init__(
        self, scale_id: int, sources: SourceFrames | list[np.ndarray], height: int, width: int
    ):
        if not isinstance(sources, SourceFrames):
            sources = SourceFrames(MediaClip(tuple(FrameBuffer(a) for a in sources)))
        self.scale_id = scale_id
        self.height = height
        self.width = width
        self.sources = sources
        self._cache: dict[int, np.ndarray] = {}

    @property
    def frame_count(self) -> int:
        return len(self.sources)

    def frame(self, i: int) -> np.ndarray:
        """The (height, width, 3) pixels of frame ``i`` at this level."""
        key = self.sources.keys[i]
        if key not in self._cache:
            # resize_rgb returns a raw level's (or degenerate schedule's)
            # source itself: it shares pixels
            self._cache[key] = resize_rgb(self.sources[i], self.height, self.width)
        return self._cache[key]

    # Nothing in the library calls rect; it stays only because the benchmark
    # trace wraps it by name, until ROADMAP item 1 retargets the trace.
    def rect(self, i: int, y0: int, x0: int, h: int, w: int) -> np.ndarray:
        """The (h, w, 3) window of frame ``i`` without materializing it.

        Byte-identical to ``self.frame(i)[y0:y0+h, x0:x0+w]``.
        """
        cached = self._cache.get(self.sources.keys[i])
        if cached is not None:
            return cached[y0 : y0 + h, x0 : x0 + w]
        src = self.sources[i]
        if src.shape[:2] == (self.height, self.width):
            return src[y0 : y0 + h, x0 : x0 + w]
        return resize_rect(src, self.height, self.width, y0, x0, h, w)


def build_pyramid(media, config: SamplerConfig, levels: int | None = None) -> list[PyramidLevel]:
    """Lay out ``levels`` levels over one shared ``SourceFrames``.

    Decodes nothing: the raw dims come from the clip. A ``FrameBuffer`` is
    read as a one-frame clip. The coarsest level is the least size at the raw
    aspect that covers the output; a clip below its min side is upscaled
    bilinearly as each frame is read (the one upscale path), so level 0 is
    the raw frame, maybe upscaled. Every frame of a level gets the same dims.
    """
    if not isinstance(media, (FrameBuffer, MediaClip)):
        raise TypeError(f"expected FrameBuffer or MediaClip, got {type(media)!r}")
    n_levels = config.n_scales if levels is None else levels
    clip = MediaClip((media,)) if isinstance(media, FrameBuffer) else media
    raw_h, raw_w = clip.height, clip.width
    target_min = _covering_min_side(raw_h, raw_w, config.out_h, config.out_w)
    if min(raw_h, raw_w) < target_min:
        raw_h, raw_w = _dims_for_min_side(raw_h, raw_w, target_min)
    schedule = scale_schedule(raw_h, raw_w, target_min, n_levels)
    sources = SourceFrames(clip, raw_h, raw_w)
    return [PyramidLevel(i, sources, h, w) for i, (h, w) in enumerate(schedule)]
