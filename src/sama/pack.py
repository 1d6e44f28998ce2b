"""Self-describing binary container, inspection previews, and the gather audit.

Container layout (all integers little-endian):

    magic   4s   "SAMA"
    version u16  1
    kind    u8   1=image, 2=video
    H, W, T u32  output dims (T == 1 for images)
    n_scales     u8
    spatial_mask u8   0=none 1=window 2=patch
    temporal_mask u8  0=none 1=progressive 2=choppy 3=mixed
    seed    u64
    schedule_len u16, then schedule_len bytes (u8 scale id per frame pair)
    flags   u8   bit0 = provenance section present

followed by the raw RGB8 frames in row-major frame order and, when
flagged, one provenance record per pixel (u8 scale, u16 frame, u32 y,
u32 x; 11 bytes). Files are written to a temp name and renamed into
place, so a failed write never leaves a partial file. Neither direction
copies the payload: a write hands the arrays' buffers to the file, and a
read fills one buffer whose views are the tensor's arrays.

The audit streams the source frames as the sampler does: it visits
output frames in the order of their source frames, and reads each
distinct source frame once, just the rows the recorded coordinates tap
under its own bilinear rule, before it moves to the next. It files each
output frame's pixels by (source frame, level) with one sort, builds each
such check's tap tables once, and evaluates the rule in chunks of
``_AUDIT_CHUNK`` pixels whose coordinates it widens to ``intp`` once and
whose corners it blends in place, so it holds one output frame's checks,
one source frame's rows and one chunk.
"""

from __future__ import annotations

import colorsys
import itertools
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import imageio
from .errors import CorruptFile, DimMismatch, MissingProvenance, UnsupportedFormat
from .media import PROVENANCE_DTYPE, FrameBuffer, ProvenanceEntry
from .pyramid import PyramidLevel

MAGIC = b"SAMA"
VERSION = 1

KIND_CODES = {"image": 1, "video": 2}
SPATIAL_CODES = {"none": 0, "window": 1, "patch": 2}
TEMPORAL_CODES = {"none": 0, "progressive": 1, "choppy": 2, "mixed": 3}

_KIND_NAMES = {v: k for k, v in KIND_CODES.items()}
_SPATIAL_NAMES = {v: k for k, v in SPATIAL_CODES.items()}
_TEMPORAL_NAMES = {v: k for k, v in TEMPORAL_CODES.items()}

_FIXED_HEADER = struct.Struct("<4sHBIIIBBBQH")

assert PROVENANCE_DTYPE.itemsize == 11


@dataclass
class SampledTensor:
    """Final packed output plus per-pixel provenance.

    ``data`` is always (T, H, W, 3) uint8 with T == 1 for images;
    ``provenance`` (when present) is a (T, H, W) structured array of
    PROVENANCE_DTYPE. ``grid`` records the sampling grid for previews and
    is not serialized.
    """

    kind: str
    data: np.ndarray
    n_scales: int = 1
    spatial_mask: str = "none"
    temporal_mask: str = "none"
    seed: int = 0
    schedule: tuple[int, ...] = field(default_factory=tuple)
    provenance: np.ndarray | None = None
    grid: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ValueError(f"kind must be image|video, got {self.kind!r}")
        d = self.data
        if d.ndim != 4 or d.shape[3] != 3 or d.dtype != np.uint8:
            raise ValueError("data must be (T, H, W, 3) uint8")
        if self.kind == "image" and d.shape[0] != 1:
            raise ValueError("image tensors carry exactly one frame")
        if self.provenance is not None:
            if self.provenance.dtype != PROVENANCE_DTYPE:
                raise ValueError("provenance has the wrong dtype")
            if self.provenance.shape != d.shape[:3]:
                raise DimMismatch("provenance shape must match data frames")

    @property
    def frames_out(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def scale_shares(self) -> dict[int, float]:
        """Fraction of output pixels each pyramid level contributed."""
        if self.provenance is None:
            raise MissingProvenance("tensor carries no provenance")
        counts = np.zeros(256, dtype=np.int64)  # scale ids are u8
        for scale in self.provenance["scale"]:  # a frame at a time: no whole-tensor temporary
            counts += np.bincount(scale.reshape(-1).astype(np.intp), minlength=256)
        total = self.provenance.size
        return {int(s): int(counts[s]) / total for s in np.flatnonzero(counts)}

    def provenance_at(self, frame: int, y: int, x: int) -> ProvenanceEntry:
        """Where output pixel (frame, y, x) was copied from."""
        if self.provenance is None:
            raise MissingProvenance("tensor carries no provenance")
        rec = self.provenance[frame, y, x]
        return ProvenanceEntry(
            scale_id=int(rec["scale"]),
            src_frame=int(rec["frame"]),
            src_y=int(rec["y"]),
            src_x=int(rec["x"]),
        )


def _container_parts(t: SampledTensor) -> list:
    """The container as buffers in file order: header bytes, then views of
    the pixel and provenance arrays (no copies of the payload)."""
    schedule = bytes(int(s) for s in t.schedule)
    if len(schedule) > 0xFFFF:
        raise ValueError("schedule too long for container header")
    flags = 1 if t.provenance is not None else 0
    head = _FIXED_HEADER.pack(
        MAGIC,
        VERSION,
        KIND_CODES[t.kind],
        t.height,
        t.width,
        t.frames_out,
        t.n_scales,
        SPATIAL_CODES[t.spatial_mask],
        TEMPORAL_CODES[t.temporal_mask],
        t.seed,
        len(schedule),
    )
    parts = [head + schedule + bytes([flags]), np.ascontiguousarray(t.data).reshape(-1)]
    if t.provenance is not None:
        parts.append(np.ascontiguousarray(t.provenance).reshape(-1).view(np.uint8))
    return parts


def container_bytes(t: SampledTensor) -> bytes:
    """Serialize; byte-deterministic for a given tensor."""
    return b"".join(_container_parts(t))


def write_container(t: SampledTensor, path: str | Path) -> None:
    """Write atomically: temp file in the target directory, then rename.

    The header, the pixel buffer and the provenance buffer go straight to
    the file; the payload is never copied into one ``bytes``. The file gets
    mode ``0o666`` less the umask, as any file ``open`` creates.
    """
    path = Path(path)
    parts = _container_parts(t)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def parse_container(data) -> SampledTensor:
    """Parse a container held in ``bytes`` or a uint8 buffer.

    The arrays are views of ``data``, not copies: read-only when ``data``
    is ``bytes``.
    """
    data = memoryview(data).cast("B")
    if len(data) < _FIXED_HEADER.size:
        raise CorruptFile("container shorter than its fixed header")
    (
        magic,
        version,
        kind_code,
        height,
        width,
        frames,
        n_scales,
        spatial_code,
        temporal_code,
        seed,
        sched_len,
    ) = _FIXED_HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise UnsupportedFormat("bad container magic")
    if version != VERSION:
        raise UnsupportedFormat(f"container version {version} not supported")
    if height < 1 or width < 1 or frames < 1:
        raise CorruptFile("non-positive container dimensions")
    try:
        kind = _KIND_NAMES[kind_code]
        spatial = _SPATIAL_NAMES[spatial_code]
        temporal = _TEMPORAL_NAMES[temporal_code]
    except KeyError as exc:
        raise CorruptFile(f"unknown enum code in header: {exc}") from exc
    if kind == "image" and frames != 1:
        raise CorruptFile(f"image container declares {frames} frames, not 1")
    pos = _FIXED_HEADER.size
    if pos + sched_len + 1 > len(data):
        raise CorruptFile("truncated container header")
    schedule = tuple(data[pos : pos + sched_len])
    pos += sched_len
    flags = data[pos]
    pos += 1
    n_pixels = frames * height * width
    need = n_pixels * 3
    if pos + need > len(data):
        raise CorruptFile("truncated container payload")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).reshape(
        frames, height, width, 3
    )
    pos += need
    provenance = None
    if flags & 1:
        pneed = n_pixels * PROVENANCE_DTYPE.itemsize
        if pos + pneed > len(data):
            raise CorruptFile("truncated provenance section")
        provenance = np.frombuffer(
            data, dtype=PROVENANCE_DTYPE, count=n_pixels, offset=pos
        ).reshape(frames, height, width)
        pos += pneed
    if pos != len(data):
        raise CorruptFile(f"{len(data) - pos} trailing bytes after payload")
    return SampledTensor(
        kind=kind,
        data=pixels,
        n_scales=n_scales,
        spatial_mask=spatial,
        temporal_mask=temporal,
        seed=seed,
        schedule=schedule,
        provenance=provenance,
    )


def read_container(path: str | Path) -> SampledTensor:
    """Read a container file once (``imageio.read_buffer``); the tensor's
    arrays are writable views of that one buffer."""
    with open(path, "rb", buffering=0) as fh:
        return parse_container(imageio.read_buffer(fh))


# ---------------------------------------------------------------------------
# Previews


def scale_palette(n_scales: int) -> np.ndarray:
    """(n_scales, 3) uint8 of well-separated hues."""
    n = max(n_scales, 1)
    cols = [colorsys.hsv_to_rgb(s / n, 1.0, 1.0) for s in range(n)]
    return (np.asarray(cols) * 255).round().astype(np.uint8)


def render_preview(
    t: SampledTensor,
    style: str = "plain",
    grid_rows: int | None = None,
    grid_cols: int | None = None,
) -> list[FrameBuffer]:
    """Human-inspectable frames: plain copy, per-scale tint, or cell borders.

    The tinted and bordered styles color by scale, so a provenance scale
    at or above the header's ``n_scales`` raises ``CorruptFile``."""
    if style == "plain":
        return [FrameBuffer(t.data[f].copy()) for f in range(t.frames_out)]
    if t.provenance is None:
        raise MissingProvenance(f"style {style!r} needs provenance")
    top = int(t.provenance["scale"].max())
    if top >= t.n_scales:
        raise CorruptFile(f"provenance names scale {top}, header has {t.n_scales} scales")
    palette = scale_palette(t.n_scales)
    if style == "tinted":
        tint = palette[t.provenance["scale"]]
        # 25% overlay in exact integer arithmetic, round half up
        mixed = (3 * t.data.astype(np.uint16) + tint.astype(np.uint16) + 2) // 4
        out = mixed.astype(np.uint8)
        return [FrameBuffer(out[f]) for f in range(t.frames_out)]
    if style == "bordered":
        if grid_rows is None or grid_cols is None:
            if t.grid is None:
                raise ValueError("bordered preview needs the sampling grid dims")
            grid_rows, grid_cols = t.grid
        if t.height % grid_rows or t.width % grid_cols:
            raise DimMismatch("grid does not tile the output dims")
        ch = t.height // grid_rows
        cw = t.width // grid_cols
        frames = []
        for f in range(t.frames_out):
            img = t.data[f].copy()
            for r in range(grid_rows):
                for c in range(grid_cols):
                    y, x = r * ch, c * cw
                    color = palette[t.provenance[f, y, x]["scale"]]
                    img[y, x : x + cw] = color
                    img[y + ch - 1, x : x + cw] = color
                    img[y : y + ch, x] = color
                    img[y : y + ch, x + cw - 1] = color
            frames.append(FrameBuffer(img))
        return frames
    raise ValueError(f"unknown preview style {style!r}")


# ---------------------------------------------------------------------------
# Provenance audit


@dataclass
class AuditReport:
    """Outcome of recomputing every output pixel from its recorded source."""

    total_pixels: int
    mismatches: int
    per_scale_pixels: dict[int, int]
    per_scale_shares: dict[int, float]

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _axis_table(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear taps of every output index along one axis.

    Output index ``i`` has its half-pixel centre at
    ``(i + 0.5) * n_in / n_out - 0.5`` in the source, clamped to
    ``[0, n_in - 1]``. Its taps are ``i0 = floor(centre)`` and
    ``i1 = min(i0 + 1, n_in - 1)``; the weight of ``i1`` is the float32
    fraction ``centre - i0``.
    """
    centre = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    centre = np.clip(centre, 0.0, n_in - 1.0)
    i0 = np.floor(centre).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, (centre - i0).astype(np.float32)


def _bilinear_at(
    flat: np.ndarray,
    y: np.ndarray,
    x: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    cols: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """(N, 3) uint8: the level pixels at (y[k], x[k]), recomputed from the
    (pixels, 3) source ``flat``.

    ``rows`` and ``cols`` are one check's tables, indexed by level
    coordinate: the flat offsets of the top and bottom tap rows and of the
    left and right tap columns, then the (n, 3) float32 fraction of each
    second tap. The coordinates are widened to ``intp`` once, since numpy
    indexes about twice as fast with ``intp`` as with the records'
    ``uint32``. The blend runs in place on the four corners: horizontal on
    the top and bottom rows, then vertical, all in float32, rounded half up.
    """
    y = y.astype(np.intp)
    x = x.astype(np.intp)
    top, bottom, fy = rows
    left, right, fx = cols
    top, bottom, left, right = top.take(y), bottom.take(y), left.take(x), right.take(x)
    fy, fx = fy.take(y, axis=0), fx.take(x, axis=0)
    p00, p01, p10, p11 = (
        flat.take(r + c, axis=0).astype(np.float32)
        for r, c in ((top, left), (top, right), (bottom, left), (bottom, right))
    )
    p01 -= p00  # top = p00 + fx * (p01 - p00)
    p01 *= fx
    p01 += p00
    p11 -= p10  # bottom = p10 + fx * (p11 - p10)
    p11 *= fx
    p11 += p10
    p11 -= p01  # value = top + fy * (bottom - top)
    p11 *= fy
    p11 += p01
    p11 += 0.5
    np.floor(p11, out=p11)
    np.clip(p11, 0, 255, out=p11)
    return p11.astype(np.uint8)


# The first four bytes of a provenance record read as one little-endian u32:
# scale in bits 0-7, frame in bits 8-23, then the low byte of y.
_SOURCE_KEY = np.dtype(
    {"names": ["key"], "formats": ["<u4"], "offsets": [0], "itemsize": PROVENANCE_DTYPE.itemsize}
)


def provenance_audit(t: SampledTensor, pyramid: list[PyramidLevel]) -> AuditReport:
    """Recompute every output pixel from its recorded source and compare.

    Each pixel's record names a level, a frame of the clip the pyramid was
    built from, and a level coordinate. The expected value is re-derived
    from that source frame with the documented bilinear rule (see
    ``_axis_table`` and ``_bilinear_at``), evaluated only at the recorded
    coordinate, so the cost scales with the output size and not with the
    level areas. The rule is written here apart from the resize code in
    ``pyramid``, so an interpolation fault there shows up as mismatches.
    The frame is looked up in the level's sources, which for clips are the
    selected clip: provenance ``frame`` still records the output slot.

    Out-of-range scale ids, frame indices, or coordinates count as
    mismatches rather than raising, so a corrupted tensor still yields a
    report. Output frames are taken in runs that share a source key
    (``sources.keys``); a run's pixels are checked one recorded source
    frame at a time, and that frame is read once, only the rows its pixels'
    taps need. So each distinct source is read once, even when a short
    clip repeats it over many output frames, and only one is held.
    """
    if t.provenance is None:
        raise MissingProvenance("tensor carries no provenance to audit")
    scale_counts = np.zeros(256, dtype=np.int64)  # scale ids are u8
    mismatches = 0
    keys = pyramid[0].sources.keys if pyramid else ()

    def key_of(f: int) -> int:
        return keys[f] if f < len(keys) else -1

    # output frame f records source frame f, so frames sharing a key are one run
    for _, run in itertools.groupby(sorted(range(t.frames_out), key=key_of), key=key_of):
        checks: dict = {}  # (source list, key) -> [_Check]
        for f in run:
            prov, data = t.provenance[f].reshape(-1), t.data[f].reshape(-1, 3)
            mismatches += _collect_checks(prov, data, pyramid, checks, scale_counts)
        for key in list(checks):  # popped, so no group outlives its check
            mismatches += _audit_source_frame(checks.pop(key))
    total = t.provenance.size
    per_scale = {int(s): int(scale_counts[s]) for s in np.flatnonzero(scale_counts)}
    shares = {s: c / total for s, c in per_scale.items()}
    return AuditReport(
        total_pixels=total,
        mismatches=mismatches,
        per_scale_pixels=per_scale,
        per_scale_shares=shares,
    )


@dataclass(frozen=True)
class _Check:
    """Output pixels that record level coordinates (y, x) of source frame
    ``index`` and hold ``got``."""

    level: PyramidLevel
    index: int
    y: np.ndarray
    x: np.ndarray
    got: np.ndarray  # (N, 3) uint8


def _collect_checks(
    prov: np.ndarray, data: np.ndarray, pyramid, checks: dict, scale_counts: np.ndarray
) -> int:
    """File one output frame's pixels under their source frame in
    ``checks``, one ``_Check`` per (source frame, level), and add each
    level's pixel count to ``scale_counts``. ``prov`` holds the frame's
    records and ``data`` its (pixels, 3) values. Returns the mismatches
    found without reading: pixels whose level, frame or coordinates lie
    outside the pyramid.

    The pixels are grouped by one stable sort of their (frame, scale) keys,
    read from the records in one pass, so each group keeps pixel order.
    """
    key = prov.view(_SOURCE_KEY)["key"] & 0xFFFFFF
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)  # each group's first pixel
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first).tolist()
    mismatches = 0
    for lo, hi in zip(starts, starts[1:] + [key.size]):
        s, fr = int(key[lo]) & 0xFF, int(key[lo]) >> 8
        scale_counts[s] += hi - lo
        if s >= len(pyramid) or fr >= pyramid[s].frame_count:
            mismatches += hi - lo
            continue
        level = pyramid[s]
        sub = order[lo:hi]
        y = prov["y"].take(sub)
        x = prov["x"].take(sub)
        inside = y < level.height
        inside &= x < level.width
        n_inside = int(np.count_nonzero(inside))
        mismatches += sub.size - n_inside
        if n_inside < sub.size:
            sub, y, x = sub[inside], y[inside], x[inside]
        if n_inside:
            key_fr = (id(level.sources), level.sources.keys[fr])
            checks.setdefault(key_fr, []).append(_Check(level, fr, y, x, data.take(sub, axis=0)))
    return mismatches


# Pixels checked per step: the step's temporaries stay near 1 MB, so the
# audit reuses the same heap memory instead of faulting in fresh pages.
_AUDIT_CHUNK = 8192


def _audit_source_frame(group: list[_Check]) -> int:
    """Mismatches among the checks of one source frame. The rows their
    taps need are marked (a bool per source row), and only those rows are
    read, once. Each check's tables are then built once: the row taps as
    offsets into the rows read, the fractions repeated per channel."""
    sources = group[0].level.sources
    marks = np.zeros(sources.height, dtype=bool)
    row_tables = []
    for c in group:
        i0, i1, fy = _axis_table(sources.height, c.level.height)
        used = np.zeros(c.level.height, dtype=bool)
        used[c.y] = True
        marks[i0[used]] = True
        marks[i1[used]] = True
        row_tables.append((i0, i1, fy))
    rows = np.flatnonzero(marks)
    flat = sources[group[0].index, rows].reshape(-1, 3)
    # source row -> offset of its first pixel in flat
    at = np.zeros(sources.height, dtype=np.intp)
    at[rows] = np.arange(rows.size) * sources.width
    mismatches = 0
    for c, (i0, i1, fy) in zip(group, row_tables):
        c0, c1, fx = _axis_table(sources.width, c.level.width)
        row_taps = (at[i0], at[i1], np.repeat(fy, 3).reshape(-1, 3))
        col_taps = (c0, c1, np.repeat(fx, 3).reshape(-1, 3))
        for lo in range(0, c.y.size, _AUDIT_CHUNK):
            hi = lo + _AUDIT_CHUNK
            expected = _bilinear_at(flat, c.y[lo:hi], c.x[lo:hi], row_taps, col_taps)
            differ = np.flatnonzero(expected != c.got[lo:hi])  # flat (pixel, channel)
            mismatches += np.unique(differ // 3).size
    return mismatches
