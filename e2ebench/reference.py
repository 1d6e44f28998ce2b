"""Independent expectations for the benchmark's output checks.

Nothing here imports ``sama``. The reference sampler is written from the
rules the repository README and the SAMA paper state, not from the
program's code:

* pyramid: level 0 is the raw frame; the min-side falls linearly to the
  output min-side over the levels, the other side follows the raw aspect
  ratio, both rounded half up;
* grid: cell (r, c) of a level spans rows [r*H//G, (r+1)*H//G) and the
  analogous columns; the fragment sits at the cell center, ties toward
  the top-left;
* resampling: bilinear with half-pixel centers, clamped at the border,
  rounded half up;
* masks: ``progressive`` gives frame pair k level k; ``window`` is a
  checkerboard of 32-pixel tiles whose tile (0, 0) takes the raw level and
  the others the coarsest level;
* frame selection: the clip is cut into ``frames_out`` equal bins and each
  bin's center frame is kept, ties toward the earlier frame.

It evaluates the bilinear formula in float64 directly at each needed level
pixel, where the program works in float32 on windows, so the two may
differ by one grey level where a value lands on a rounding boundary.

The module also holds the benchmark's own codecs: a PNG encoder that uses
all five row filters, and a reader for the pixel section of the container
layout the README documents.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

WINDOW_BLOCK = 32


@dataclass(frozen=True)
class Regime:
    """The sampler settings the reference reproduces."""

    grid_rows: int
    grid_cols: int
    frag_h: int
    frag_w: int
    frames_out: int
    n_scales: int
    mask: str  # "progressive" (temporal) or "window" (spatial)

    @property
    def out_h(self) -> int:
        return self.grid_rows * self.frag_h

    @property
    def out_w(self) -> int:
        return self.grid_cols * self.frag_w


# README defaults: video 7x7 of 32x32, 32 frames, 16 levels, progressive;
# image 8x8 of 32x32, 2 levels, window mask.
VQA = Regime(7, 7, 32, 32, 32, 16, "progressive")
IQA = Regime(8, 8, 32, 32, 1, 2, "window")


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def level_dims(raw_h: int, raw_w: int, target_min: int, levels: int) -> list[tuple[int, int]]:
    """(height, width) of every pyramid level, raw first."""
    raw_min = min(raw_h, raw_w)
    dims = [(raw_h, raw_w)]
    for k in range(1, levels):
        if k == levels - 1:
            m = target_min
        else:
            m = round_half_up(raw_min + k * (target_min - raw_min) / (levels - 1))
        if raw_h <= raw_w:
            dims.append((m, round_half_up(m * raw_w / raw_h)))
        else:
            dims.append((round_half_up(m * raw_h / raw_w), m))
    return dims


def selected_frames(n_frames: int, count: int) -> list[int]:
    """Source frame of every output slot (bin centers; needs n_frames >= count)."""
    return [
        ((k * n_frames) // count + ((k + 1) * n_frames) // count) // 2
        for k in range(count)
    ]


def fragment_origins(level_len: int, cells: int, frag: int) -> np.ndarray:
    """Level coordinate of each cell's centered fragment along one axis."""
    bounds = [(i * level_len) // cells for i in range(cells + 1)]
    return np.array(
        [bounds[i] + (bounds[i + 1] - bounds[i] - frag) // 2 for i in range(cells)],
        dtype=np.int64,
    )


def level_coords(level_len: int, cells: int, frag: int) -> np.ndarray:
    """Level coordinate of every output position along one axis."""
    origins = fragment_origins(level_len, cells, frag)
    return (origins[:, None] + np.arange(frag)[None, :]).reshape(-1)


def level_map(regime: Regime, slot: int) -> np.ndarray:
    """(out_h, out_w) owning level of every output pixel of one slot."""
    shape = (regime.out_h, regime.out_w)
    if regime.mask == "progressive":
        return np.full(shape, slot // 2, dtype=np.int64)
    if regime.mask == "window":
        ti = np.arange(regime.out_h) // WINDOW_BLOCK
        tj = np.arange(regime.out_w) // WINDOW_BLOCK
        raw = (ti[:, None] + tj[None, :]) % 2 == 0
        return np.where(raw, 0, regime.n_scales - 1)
    raise ValueError(f"unknown mask {regime.mask!r}")


def expected_shares(regime: Regime) -> dict[int, float]:
    """Fraction of output pixels each level owns, over the whole output."""
    counts: dict[int, int] = {}
    for t in range(regime.frames_out):
        levels, n = np.unique(level_map(regime, t), return_counts=True)
        for s, c in zip(levels, n):
            counts[int(s)] = counts.get(int(s), 0) + int(c)
    total = regime.frames_out * regime.out_h * regime.out_w
    return {s: c / total for s, c in sorted(counts.items())}


def _taps(n_in: int, n_out: int, pos: np.ndarray):
    center = (pos.astype(np.float64) + 0.5) * n_in / n_out - 0.5
    center = np.clip(center, 0.0, n_in - 1.0)
    lo = np.floor(center).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, center - lo


def bilinear_at(raw: np.ndarray, level_h: int, level_w: int, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Pixels (ys[k], xs[k]) of ``raw`` resized to (level_h, level_w).

    Evaluated per requested pixel, never for a whole level.
    """
    in_h, in_w = raw.shape[:2]
    y0, y1, fy = _taps(in_h, level_h, ys)
    x0, x1, fx = _taps(in_w, level_w, xs)
    fy = fy[..., None]
    fx = fx[..., None]
    p00 = raw[y0, x0].astype(np.float64)
    p01 = raw[y0, x1].astype(np.float64)
    p10 = raw[y1, x0].astype(np.float64)
    p11 = raw[y1, x1].astype(np.float64)
    val = (1 - fy) * ((1 - fx) * p00 + fx * p01) + fy * ((1 - fx) * p10 + fx * p11)
    return np.clip(np.floor(val + 0.5), 0, 255).astype(np.uint8)


def expected_frame(raw: np.ndarray, regime: Regime, slot: int) -> np.ndarray:
    """(out_h, out_w, 3) output the sampler should produce for one slot."""
    dims = level_dims(raw.shape[0], raw.shape[1], min(regime.out_h, regime.out_w), regime.n_scales)
    owner = level_map(regime, slot)
    out = np.empty((regime.out_h, regime.out_w, 3), dtype=np.uint8)
    for s in np.unique(owner):
        lh, lw = dims[int(s)]
        ys = level_coords(lh, regime.grid_rows, regime.frag_h)
        xs = level_coords(lw, regime.grid_cols, regime.frag_w)
        sel = owner == s
        yy = np.broadcast_to(ys[:, None], owner.shape)[sel]
        xx = np.broadcast_to(xs[None, :], owner.shape)[sel]
        out[sel] = bilinear_at(raw, lh, lw, yy, xx)
    return out


# ---------------------------------------------------------------------------
# Codecs

_CONTAINER_HEADER = struct.Struct("<4sHBIIIBBBQH")


def container_pixels(data: bytes) -> np.ndarray:
    """(T, H, W, 3) pixel section of a container, per the README layout."""
    magic, _version, _kind, h, w, t, *_rest, sched_len = _CONTAINER_HEADER.unpack_from(data, 0)
    if magic != b"SAMA":
        raise ValueError("not a SAMA container")
    pos = _CONTAINER_HEADER.size + sched_len + 1
    n = t * h * w * 3
    if pos + n > len(data):
        raise ValueError("container pixel section truncated")
    return np.frombuffer(data, dtype=np.uint8, count=n, offset=pos).reshape(t, h, w, 3)


def _paeth_predict(left: np.ndarray, up: np.ndarray, upleft: np.ndarray) -> np.ndarray:
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    return np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))


def filter_row(ftype: int, row: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    """PNG filter ``ftype`` (0-4) applied to one row of int32 samples."""
    left = np.concatenate([np.zeros(bpp, np.int32), row[:-bpp]])
    upleft = np.concatenate([np.zeros(bpp, np.int32), prev[:-bpp]])
    if ftype == 0:
        pred = np.zeros_like(row)
    elif ftype == 1:
        pred = left
    elif ftype == 2:
        pred = prev
    elif ftype == 3:
        pred = (left + prev) >> 1
    elif ftype == 4:
        pred = _paeth_predict(left, prev, upleft)
    else:
        raise ValueError(f"unknown PNG filter {ftype}")
    return ((row - pred) & 0xFF).astype(np.uint8)


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def encode_png(rgb: np.ndarray, row_filter) -> bytes:
    """8-bit RGB PNG whose row ``r`` uses filter ``row_filter(r)``.

    The deflate stream is stored (level 0), so a file's size depends only
    on its dimensions and every seed gives the same number of bytes read.
    """
    h, w, _ = rgb.shape
    rows = rgb.reshape(h, w * 3).astype(np.int32)
    prev = np.zeros(w * 3, np.int32)
    raw = bytearray()
    for r in range(h):
        ftype = row_filter(r)
        raw.append(ftype)
        raw.extend(filter_row(ftype, rows[r], prev, 3).tobytes())
        prev = rows[r]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(bytes(raw), 0))
        + _png_chunk(b"IEND", b"")
    )
