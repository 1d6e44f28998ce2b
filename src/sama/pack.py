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
under its own bilinear rule, before it moves to the next.
"""

from __future__ import annotations

import colorsys
import itertools
import os
import struct
import tempfile
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
        counts = np.bincount(self.provenance["scale"].reshape(-1), minlength=256)
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
    the file; the payload is never copied into one ``bytes``.
    """
    path = Path(path)
    parts = _container_parts(t)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
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
    """Human-inspectable frames: plain copy, per-scale tint, or cell borders."""
    if style == "plain":
        return [FrameBuffer(t.data[f].copy()) for f in range(t.frames_out)]
    if t.provenance is None:
        raise MissingProvenance(f"style {style!r} needs provenance")
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
                    color = palette[int(t.provenance[f, y, x]["scale"]) % len(palette)]
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
    i0 = np.floor(centre).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, (centre - i0).astype(np.float32)


def _bilinear_at(
    src: np.ndarray,
    y: np.ndarray,
    x: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    cols: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """(N, 3) uint8: the level pixels at (y[k], x[k]), recomputed from ``src``.

    The four taps are fetched with flat takes; the blend is horizontal on the
    top and bottom rows, then vertical, all in float32, rounded half up.
    """
    width = src.shape[1]
    flat = src.reshape(-1, 3)
    r0 = rows[0][y] * width
    r1 = rows[1][y] * width
    c0 = cols[0][x]
    c1 = cols[1][x]
    fy = rows[2][y][:, None]
    fx = cols[2][x][:, None]
    p00 = flat.take(r0 + c0, axis=0).astype(np.float32)
    p01 = flat.take(r0 + c1, axis=0).astype(np.float32)
    p10 = flat.take(r1 + c0, axis=0).astype(np.float32)
    p11 = flat.take(r1 + c1, axis=0).astype(np.float32)
    top = p00 + fx * (p01 - p00)
    bot = p10 + fx * (p11 - p10)
    val = top + fy * (bot - top)
    return np.floor(val + 0.5).clip(0, 255).astype(np.uint8)


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
            prov = t.provenance[f].reshape(-1)
            # whole fields to contiguous arrays first: picks from them are
            # several times faster than from the packed 11-byte records
            scale, frame, y, x = (np.ascontiguousarray(prov[k]) for k in PROVENANCE_DTYPE.names)
            scale_counts += np.bincount(scale, minlength=256)
            known = scale < len(pyramid)
            mismatches += prov.size - int(np.count_nonzero(known))
            idx = np.flatnonzero(known)
            frame = frame[idx]
            for fr in np.flatnonzero(np.bincount(frame)):
                at_fr = idx[frame == fr]
                mismatches += _collect_checks(
                    int(fr), at_fr, (scale, y, x), t.data[f], pyramid, checks
                )
        for group in checks.values():
            mismatches += _audit_source_frame(group)
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
    fr: int, at_fr: np.ndarray, fields: tuple, data: np.ndarray, pyramid, checks: dict
) -> int:
    """File the pixels ``at_fr`` of one output frame, which all record
    source frame ``fr``, under their source frame in ``checks``, one
    ``_Check`` per level. ``fields`` is the frame's recorded (scale, y, x).
    Returns the mismatches found without reading: pixels whose frame or
    coordinates lie outside their level."""
    mismatches = 0
    scale_all, y_all, x_all = fields
    scale = scale_all[at_fr]
    for s in np.flatnonzero(np.bincount(scale)):
        sub = at_fr[scale == s]
        level = pyramid[s]
        if fr >= level.frame_count:
            mismatches += sub.size
            continue
        y = y_all[sub]
        x = x_all[sub]
        inside = (y < level.height) & (x < level.width)
        n_inside = int(np.count_nonzero(inside))
        mismatches += sub.size - n_inside
        if n_inside < sub.size:
            sub, y, x = sub[inside], y[inside], x[inside]
        if n_inside:
            key = (id(level.sources), level.sources.keys[fr])
            got = data.reshape(-1, 3).take(sub, axis=0)
            checks.setdefault(key, []).append(_Check(level, fr, y, x, got))
    return mismatches


# Pixels checked per step: the step's temporaries stay near 1 MB, so the
# audit reuses the same heap memory instead of faulting in fresh pages.
_AUDIT_CHUNK = 8192


def _audit_source_frame(group: list[_Check]) -> int:
    """Mismatches among the checks of one source frame. The rows their
    taps need are marked (a bool per source row), and only those rows are
    read, once; the row taps are then moved onto the rows read."""
    sources = group[0].level.sources
    marks = np.zeros(sources.height, dtype=bool)
    rows_of = []
    for c in group:
        table = _axis_table(sources.height, c.level.height)
        used = np.zeros(c.level.height, dtype=bool)
        used[c.y] = True
        marks[table[0][used]] = True
        marks[table[1][used]] = True
        rows_of.append(table)
    rows = np.flatnonzero(marks)
    src = sources[group[0].index, rows]
    at = np.zeros(sources.height, dtype=np.int64)  # source row -> its row in src
    at[rows] = np.arange(rows.size)
    mismatches = 0
    for c, (i0, i1, fy) in zip(group, rows_of):
        row_taps = (at[i0], at[i1], fy)
        cols = _axis_table(sources.width, c.level.width)
        for lo in range(0, c.y.size, _AUDIT_CHUNK):
            y = c.y[lo : lo + _AUDIT_CHUNK]
            x = c.x[lo : lo + _AUDIT_CHUNK]
            expected = _bilinear_at(src, y, x, row_taps, cols)
            differ = expected != c.got[lo : lo + _AUDIT_CHUNK]
            mismatches += int(np.count_nonzero(differ[:, 0] | differ[:, 1] | differ[:, 2]))
    return mismatches
