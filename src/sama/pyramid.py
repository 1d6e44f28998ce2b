"""Multi-granularity pyramid: linear min-side schedule + bilinear resize.

Levels hold references to the source frames and never resize eagerly.
The sampler turns the level pixels its plan needs into ``PixelTaps`` once
(``pixel_taps``) and runs one ``gather_taps`` per (frame, level): one flat
take of the four corner pixels and one blend. Whole frames
(``PyramidLevel.frame``, memoized) and windows (``PyramidLevel.rect``) are
kept for callers outside the sampler. Every path blends with ``_lerp_core``
on taps from ``_axis_taps``, so they agree byte for byte, and access order
never changes results.
"""

from __future__ import annotations

import math
import threading
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
    ``fx`` are their (N, 1) float32 fractions. A level the size of its
    source has a (1, N) index and no fractions: its pixels are source pixels.
    """

    index: np.ndarray
    fy: np.ndarray | None
    fx: np.ndarray | None


def pixel_taps(level: PyramidLevel, ys: np.ndarray, xs: np.ndarray) -> PixelTaps:
    """Taps of level pixels (ys[k], xs[k]), indexed out of the full-axis taps,
    so a gather equals the same pixels of ``level.frame``."""
    src_h, src_w = level.sources[0].shape[:2]
    ys = ys.astype(np.intp)
    xs = xs.astype(np.intp)
    if (src_h, src_w) == (level.height, level.width):
        return PixelTaps((ys * src_w + xs)[None], None, None)
    y0, y1, fy = _axis_taps(src_h, level.height)
    x0, x1, fx = _axis_taps(src_w, level.width)
    r0 = y0[ys] * src_w
    r1 = y1[ys] * src_w
    c0 = x0[xs]
    c1 = x1[xs]
    index = np.stack([r0 + c0, r0 + c1, r1 + c0, r1 + c1])
    return PixelTaps(index, fy[ys, None], fx[xs, None])


def gather_taps(src: np.ndarray, taps: PixelTaps) -> np.ndarray:
    """The (N, 3) uint8 level pixels behind ``taps``, from one source frame."""
    corners = src.reshape(-1, 3).take(taps.index, axis=0)
    if taps.fy is None:
        return corners[0]
    c = corners.astype(np.float32)
    return _lerp_core(c[0], c[1], c[2], c[3], taps.fy, taps.fx)


def bilinear_resize(frame: FrameBuffer, out_h: int, out_w: int) -> FrameBuffer:
    return FrameBuffer(resize_rgb(frame.data, out_h, out_w))


class PyramidLevel:
    """One pyramid level: target dims over shared source frames.

    The sampler reads a level through ``pixel_taps``/``gather_taps`` and
    never materializes it. ``frame`` resizes a whole frame on first access
    and memoizes it; ``rect`` resizes one window. Both are kept for callers
    outside the sampler.
    """

    def __init__(self, scale_id: int, sources: list[np.ndarray], height: int, width: int):
        self.scale_id = scale_id
        self.height = height
        self.width = width
        self._sources = sources
        self._cache: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def frame_count(self) -> int:
        return len(self._sources)

    @property
    def sources(self) -> tuple[np.ndarray, ...]:
        """The (possibly upscaled) source frames this level resizes from."""
        return tuple(self._sources)

    def frame(self, i: int) -> np.ndarray:
        """The (height, width, 3) pixels of frame ``i`` at this level."""
        src = self._sources[i]
        if src.shape[:2] == (self.height, self.width):
            return src  # raw level (or degenerate schedule) shares pixels
        key = id(src)
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        out = resize_rgb(src, self.height, self.width)
        with self._lock:
            return self._cache.setdefault(key, out)

    def frames(self) -> np.ndarray:
        """Materialize every frame as one (T, height, width, 3) array."""
        return np.stack([self.frame(i) for i in range(self.frame_count)])

    def rect(self, i: int, y0: int, x0: int, h: int, w: int) -> np.ndarray:
        """The (h, w, 3) window of frame ``i`` without materializing it.

        Byte-identical to ``self.frame(i)[y0:y0+h, x0:x0+w]``.
        """
        src = self._sources[i]
        if src.shape[:2] == (self.height, self.width):
            return src[y0 : y0 + h, x0 : x0 + w]
        with self._lock:
            cached = self._cache.get(id(src))
        if cached is not None:
            return cached[y0 : y0 + h, x0 : x0 + w]
        return resize_rect(src, self.height, self.width, y0, x0, h, w)


def upscale_if_small(media, target_min: int):
    """Bilinearly upscale so the min-side reaches ``target_min``; else identity."""
    if not isinstance(media, (FrameBuffer, MediaClip)):
        raise TypeError(f"expected FrameBuffer or MediaClip, got {type(media)!r}")
    if min(media.height, media.width) >= target_min:
        return media
    h, w = _dims_for_min_side(media.height, media.width, target_min)
    if isinstance(media, FrameBuffer):
        return bilinear_resize(media, h, w)
    return MediaClip(tuple(bilinear_resize(f, h, w) for f in media.frames), media.nominal_fps)


def build_pyramid(media, config: SamplerConfig, levels: int | None = None) -> list[PyramidLevel]:
    """Upscale if needed, then lay out ``levels`` lazily-resized levels.

    Level 0 always shares the (possibly upscaled) raw pixels. A
    ``FrameBuffer`` is read as a one-frame clip; every frame of a level
    gets the same target dims.
    """
    n_levels = config.n_scales if levels is None else levels
    media = upscale_if_small(media, config.target_min)
    frames = (media,) if isinstance(media, FrameBuffer) else media.frames
    arrays = [f.data for f in frames]
    raw_h, raw_w = arrays[0].shape[:2]
    schedule = scale_schedule(raw_h, raw_w, config.target_min, n_levels)
    return [
        PyramidLevel(i, arrays, h, w) for i, (h, w) in enumerate(schedule)
    ]
