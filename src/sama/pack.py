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
    flags   u8   always 0x01: the provenance section is present

followed by the raw RGB8 frames in row-major frame order and one
provenance record per pixel (u8 scale, u16 frame, u32 y, u32 x; 11
bytes). Every container carries its provenance; a reader rejects any
other flags byte from the header alone. Files are written to a temp
name, allocated to their full length first, and renamed into place, so
a failed write never leaves a partial file. A write hands the arrays'
buffers to the file, without copying the payload. Every reader checks
the header by the one rule ``parse_container`` states. A file read checks
it, and the length it declares against the file's size, and reads no
payload: the tensor it returns keeps the file open and reads one output
frame (``SampledTensor.frame``), one frame's records (``records``) or one
record when asked for it, and the whole payload, into one buffer whose
views are the arrays, only on the first use of ``data`` or
``provenance``.

The audit streams the source frames as the sampler does: output frame t
was sampled from frame t of the clip, so it groups output frames by that
frame's source key and reads each distinct source frame once, just the
rows the recorded coordinates tap under its own bilinear rule, before it
moves to the next. A record's ``frame`` is a claim it checks: one that
names another output frame is a mismatch. It files each output frame's
pixels by level: as views of the frame when the frame's keys are
already grouped, as every frame under a temporal mask is, and after one
sort otherwise. It builds tap tables once per (source frame, level), and
evaluates the rule in chunks of ``_AUDIT_CHUNK`` pixels whose coordinates
it widens to ``intp`` once and whose corners it blends in place. It checks
each filed part where it lies, with no join, and keeps no per-scale tally
(``scale_shares`` is the one count). It takes each output frame from
``frame``: views of a tensor in memory, a read of the frame from a stored
one, whose payload it never reads whole. So it holds the output frames of
one source frame (one frame, when the clip has at least as many frames as
the output), copies of them only when out of order, one source frame's
rows and one chunk.
"""

from __future__ import annotations

import colorsys
import errno
import math
import os
import struct
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptFile, DimMismatch, UnsupportedFormat
from .media import PROVENANCE_DTYPE, FrameBuffer, ProvenanceEntry
from .pyramid import PyramidLevel

MAGIC = b"SAMA"
VERSION = 1
FLAGS = 0x01  # bit 0, provenance present: the only flags a container has

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
    """Final packed output plus per-pixel provenance: exactly what a
    container holds, so a tensor and its file read back are equal.

    ``data`` is always (T, H, W, 3) uint8 with T == 1 for images;
    ``provenance`` is a (T, H, W) structured array of PROVENANCE_DTYPE.
    ``read_container`` returns a stored tensor, which reads these arrays
    from its file only when asked for them; ``frame`` reads one frame.
    """

    kind: str
    data: np.ndarray
    provenance: np.ndarray
    n_scales: int = 1
    spatial_mask: str = "none"
    temporal_mask: str = "none"
    seed: int = 0
    schedule: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ValueError(f"kind must be image|video, got {self.kind!r}")
        d = self.data
        if d.ndim != 4 or d.shape[3] != 3 or d.dtype != np.uint8:
            raise ValueError("data must be (T, H, W, 3) uint8")
        if self.kind == "image" and d.shape[0] != 1:
            raise ValueError("image tensors carry exactly one frame")
        if self.provenance.dtype != PROVENANCE_DTYPE:
            raise ValueError("provenance has the wrong dtype")
        if self.provenance.shape != d.shape[:3]:
            raise DimMismatch("provenance shape must match data frames")

    @property
    def dims(self) -> tuple[int, int, int]:
        """(T, H, W): the output's frames, height and width."""
        return self.provenance.shape

    @property
    def frames_out(self) -> int:
        return self.dims[0]

    @property
    def height(self) -> int:
        return self.dims[1]

    @property
    def width(self) -> int:
        return self.dims[2]

    def frame(self, f: int) -> tuple[np.ndarray, np.ndarray]:
        """Output frame ``f``: its (H, W, 3) pixels and (H, W) records, as
        views of the arrays."""
        return self.data[f], self.records(f)

    def records(self, f: int) -> np.ndarray:
        """Output frame ``f``'s (H, W) records, a view of ``provenance``."""
        return self.provenance[f]

    def scale_shares(self) -> dict[int, float]:
        """Fraction of output pixels each pyramid level contributed, counted
        from the stored records a frame at a time (``records``, which reads
        no pixel); ``SamplingPlan.shares`` needs no records."""
        counts = np.zeros(256, dtype=np.int64)  # scale ids are u8
        for f in range(self.frames_out):
            scale = self.records(f)["scale"]
            counts += np.bincount(scale.reshape(-1).astype(np.intp), minlength=256)
        total = math.prod(self.dims)
        return {int(s): int(counts[s]) / total for s in np.flatnonzero(counts)}

    def provenance_at(self, frame: int, y: int, x: int) -> ProvenanceEntry:
        """Where output pixel (frame, y, x) was copied from; ``src_frame`` is
        the record's ``frame``, the output frame itself, not the clip frame
        (see ``ProvenanceEntry``)."""
        rec = self._record(frame, y, x)
        return ProvenanceEntry(
            scale_id=int(rec["scale"]),
            src_frame=int(rec["frame"]),
            src_y=int(rec["y"]),
            src_x=int(rec["x"]),
        )

    def _record(self, frame: int, y: int, x: int) -> np.void:
        return self.provenance[frame, y, x]


class _StoredTensor(SampledTensor):
    """A container file's tensor, as ``read_container`` returns it: the
    header's fields, and a descriptor of the open file from which the
    payload is read when asked for. The descriptor is closed when the
    tensor is collected."""

    def __init__(self, fd: int, fields: dict, dims: tuple[int, int, int], pos: int):
        self.__dict__.update(fields)
        self._fd, self._dims = fd, dims
        self._pixels_at = pos
        self._records_at = pos + math.prod(dims) * 3
        self._arrays = None
        weakref.finalize(self, os.close, fd)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._dims

    @property
    def data(self) -> np.ndarray:
        return self._payload()[0]

    @property
    def provenance(self) -> np.ndarray:
        return self._payload()[1]

    def _payload(self) -> tuple[np.ndarray, np.ndarray]:
        """Both arrays, views of one buffer that the first call reads."""
        if self._arrays is None:
            n_pixels = math.prod(self._dims)
            payload = np.empty(n_pixels * (3 + PROVENANCE_DTYPE.itemsize), dtype=np.uint8)
            _read_at(self._fd, payload, self._pixels_at)
            self._arrays = _payload_arrays(payload, 0, self._dims)
        return self._arrays

    def frame(self, f: int) -> tuple[np.ndarray, np.ndarray]:
        """Output frame ``f`` read from the file: one read of its pixels and
        one of its records, into new arrays."""
        f = range(self.frames_out)[f]
        pixels = np.empty((*self._dims[1:], 3), dtype=np.uint8)
        _read_at(self._fd, pixels, self._pixels_at + f * pixels.size)
        return pixels, self.records(f)

    def records(self, f: int) -> np.ndarray:
        """Output frame ``f``'s records read from the file, into a new
        array; its pixels are not read."""
        f = range(self.frames_out)[f]
        _, height, width = self._dims
        records = np.empty((height, width, PROVENANCE_DTYPE.itemsize), dtype=np.uint8)
        _read_at(self._fd, records, self._records_at + f * records.size)
        return records.view(PROVENANCE_DTYPE).reshape(height, width)

    def _record(self, frame: int, y: int, x: int) -> np.void:
        """One 11-byte record read from the file."""
        frames, height, width = self._dims
        index = (range(frames)[frame] * height + range(height)[y]) * width + range(width)[x]
        record = np.empty(PROVENANCE_DTYPE.itemsize, dtype=np.uint8)
        _read_at(self._fd, record, self._records_at + index * record.size)
        return record.view(PROVENANCE_DTYPE)[0]


def _read_at(fd: int, buf: np.ndarray, offset: int) -> None:
    """Fill the contiguous uint8 array ``buf`` with the bytes of file ``fd``
    from ``offset`` on; a file that ends first is ``CorruptFile``."""
    view = memoryview(buf).cast("B")
    while view.nbytes:
        n = os.preadv(fd, [view], offset)
        if not n:
            raise CorruptFile("container file is shorter than its header declares")
        view, offset = view[n:], offset + n


def _container_parts(t: SampledTensor) -> list:
    """The container as buffers in file order: header bytes, then views of
    the pixel and provenance arrays (no copies of the payload)."""
    schedule = bytes(int(s) for s in t.schedule)
    if len(schedule) > 0xFFFF:
        raise ValueError("schedule too long for container header")
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
    return [
        head + schedule + bytes([FLAGS]),
        np.ascontiguousarray(t.data).reshape(-1),
        np.ascontiguousarray(t.provenance).reshape(-1).view(np.uint8),
    ]


def container_bytes(t: SampledTensor) -> bytes:
    """Serialize; byte-deterministic for a given tensor."""
    return b"".join(_container_parts(t))


def write_container(t: SampledTensor, path: str | Path) -> None:
    """Write atomically: temp file in the target directory, then rename.

    The header, the pixel buffer and the provenance buffer go straight to
    the file; the payload is never copied into one ``bytes``. The file gets
    mode ``0o666`` less the umask, as any file ``open`` creates.

    The temp file is first allocated to exactly the length the header
    declares (``os.posix_fallocate``), before any byte is written. On ext4
    with ``auto_da_alloc`` (the default), a rename over an existing file
    first writes back the new file's delayed-allocation blocks and waits
    for them: replacing a 22.5 MB container took 15-22 ms of wall time for
    under 2 ms of CPU. With the blocks allocated up front the rename takes
    about 1 ms, and the write itself drops from about 5.5 to 4.5 ms (2 vCPU,
    ext4). A full disk (``ENOSPC``) or a file size limit (``EFBIG``) raises
    ``OSError`` before the payload is written, and the temp file is removed.
    A filesystem that refuses the call (``EOPNOTSUPP``, ``EINVAL``), or a
    platform without it, gets the plain write. On a filesystem without
    ``fallocate``, glibc emulates it with one small write per block; that
    case was not measured.

    There is no ``fsync`` and no durability promise. After a crash, a
    preallocated file whose data never reached the disk reads as zeros;
    ``read_container`` rejects it from its magic bytes, so it is never
    silently wrong.
    """
    path = Path(path)
    parts = _container_parts(t)
    length = sum(memoryview(part).nbytes for part in parts)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            _preallocate(fh.fileno(), length)
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _preallocate(fd: int, length: int) -> None:
    """Allocate ``length`` bytes of ``fd``; a no-op where that is unsupported."""
    fallocate = getattr(os, "posix_fallocate", None)  # absent on macOS
    if fallocate is None:
        return
    try:
        fallocate(fd, 0, length)
    except OSError as exc:
        if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
            raise


def _parse_header(data, size: int) -> tuple[dict, tuple[int, int, int], int]:
    """Check the header at the start of ``data`` (bytes or a uint8 buffer
    holding at least the whole header) of a container ``size`` bytes long.

    Returns the tensor's other fields, its (T, H, W) and the payload's
    offset. Raises when the flags byte is not ``FLAGS``, or ``size`` is not
    the length the header declares, so a caller can reject a file before it
    reads the payload.
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
    if data[pos] != FLAGS:
        raise UnsupportedFormat(f"container flags 0x{data[pos]:02x} not supported")
    pos += 1
    n_pixels = frames * height * width
    end = pos + n_pixels * 3
    if end > size:
        raise CorruptFile("truncated container payload")
    end += n_pixels * PROVENANCE_DTYPE.itemsize
    if end > size:
        raise CorruptFile("truncated provenance section")
    if end != size:
        raise CorruptFile(f"{size - end} trailing bytes after payload")
    fields = dict(
        kind=kind,
        n_scales=n_scales,
        spatial_mask=spatial,
        temporal_mask=temporal,
        seed=seed,
        schedule=schedule,
    )
    return fields, (frames, height, width), pos


def _payload_arrays(buf, pos: int, dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, H, W, 3) pixels and (T, H, W) records of a payload that
    starts at byte ``pos`` of ``buf``, as views of it."""
    n_pixels = math.prod(dims)
    pixels = np.frombuffer(buf, dtype=np.uint8, count=n_pixels * 3, offset=pos)
    provenance = np.frombuffer(
        buf, dtype=PROVENANCE_DTYPE, count=n_pixels, offset=pos + pixels.size
    )
    return pixels.reshape(*dims, 3), provenance.reshape(dims)


def parse_container(data) -> SampledTensor:
    """Parse a container held in ``bytes`` or a uint8 buffer.

    The arrays are views of ``data``, not copies: read-only when ``data``
    is ``bytes``.
    """
    data = memoryview(data).cast("B")
    fields, dims, pos = _parse_header(data, len(data))
    pixels, provenance = _payload_arrays(data, pos, dims)
    return SampledTensor(data=pixels, provenance=provenance, **fields)


def read_container(path: str | Path) -> SampledTensor:
    """Check a container file's header and open it; the payload is read
    only when asked for.

    The header is checked as ``parse_container`` checks it, and the length
    it declares against the file's size, from just the header's bytes: the
    fixed part, then the schedule and the flags byte. So a file that is not
    a container, or is cut short or padded, fails with no payload byte read.

    The tensor keeps the file open. Its first use of ``data`` or
    ``provenance`` reads the whole payload into one buffer, of which both
    arrays are writable views; ``frame(f)`` reads one output frame and
    ``provenance_at`` one record, every time they are called. Those reads
    see the file as it is then: a file changed in place is seen, and one
    cut short raises ``CorruptFile``, but a path replaced after this call,
    as ``write_container`` replaces one, is not seen, since the open file is
    still the one that was checked. This call and one ``frame`` read of
    each output frame read each byte of the file once.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        head = os.pread(fd, _FIXED_HEADER.size, 0)
        if len(head) == _FIXED_HEADER.size:  # then the schedule and the flags byte
            head += os.pread(fd, _FIXED_HEADER.unpack(head)[-1] + 1, len(head))
        fields, dims, pos = _parse_header(head, os.fstat(fd).st_size)
    except BaseException:
        os.close(fd)
        raise
    return _StoredTensor(fd, fields, dims, pos)


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

    The bordered style draws the ``grid_rows x grid_cols`` grid its caller
    passes; a container does not store its sampling grid. The tinted and
    bordered styles color by scale, so a provenance scale at or above the
    header's ``n_scales`` raises ``CorruptFile``."""
    if style == "plain":
        return [FrameBuffer(t.data[f].copy()) for f in range(t.frames_out)]
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
            raise ValueError("bordered preview needs the sampling grid dims")
        if t.height % grid_rows or t.width % grid_cols:
            raise DimMismatch("grid does not tile the output dims")
        ch = t.height // grid_rows
        cw = t.width // grid_cols
        dy, dx = np.arange(ch), np.arange(cw)
        edge = ((dy == 0) | (dy == ch - 1))[:, None] | ((dx == 0) | (dx == cw - 1))  # (ch, cw)
        # each cell's colour, its top-left pixel's scale, broadcast over the cell
        cells = palette[t.provenance["scale"][:, ::ch, ::cw]][:, :, None, :, None]
        data = t.data.reshape(t.frames_out, grid_rows, ch, grid_cols, cw, 3)
        out = np.where(edge[:, None, :, None], cells, data).reshape(t.data.shape)
        return [FrameBuffer(out[f]) for f in range(t.frames_out)]
    raise ValueError(f"unknown preview style {style!r}")


# ---------------------------------------------------------------------------
# Provenance audit


@dataclass
class AuditReport:
    """Outcome of recomputing every output pixel from its recorded source."""

    total_pixels: int
    mismatches: int

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

    ``rows`` and ``cols`` are one level's tables, indexed by level
    coordinate: the flat offsets of the top and bottom tap rows and of the
    left and right tap columns, then the (n, 3) float32 fraction of each
    second tap. The coordinates are widened to ``intp`` once, since numpy
    indexes about twice as fast with ``intp`` as with the records'
    ``uint32``. The blend runs in place on the four corners: horizontal on
    the top and bottom rows, then vertical, all in float32, rounded half up.
    The fractions lie in [0, 1), so the blend stays in [0, 255] and the
    truncating cast of ``value + 0.5`` is the rounding.
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
    return p11.astype(np.uint8)


# The first four bytes of a provenance record read as one little-endian u32:
# scale in bits 0-7, frame in bits 8-23, then the low byte of y.
_SOURCE_KEY = np.dtype(
    {"names": ["key"], "formats": ["<u4"], "offsets": [0], "itemsize": PROVENANCE_DTYPE.itemsize}
)


def provenance_audit(t: SampledTensor, pyramid: list[PyramidLevel]) -> AuditReport:
    """Recompute every output pixel from its recorded source and compare.

    Output frame f was sampled from frame f of the clip the pyramid was
    built from (its first level's ``sources``; for a video, the selected
    clip), so a record's ``frame`` must name f: one that names another frame
    is a mismatch. The record's level and coordinate give the expected value,
    re-derived from that clip frame, read at its own size, with the
    documented bilinear rule (see ``_axis_table`` and ``_bilinear_at``) at
    the recorded coordinate alone, so the cost scales with the output size
    and not with the level areas. The rule is written here apart from the
    resize code in ``pyramid``, so an interpolation fault there shows up as
    mismatches. An empty pyramid raises ValueError.

    Out-of-range scale ids or coordinates, and every pixel of an output frame
    past the clip's length, count as mismatches rather than raising, so a
    corrupted tensor still yields a report. Output frames are grouped by
    their source key (``sources.source_keys``): each group's pixels are filed
    by level and checked against its source, which is read once, only the
    rows their taps need, and whose levels each build their tables once.
    The report has no per-scale tally; each level's share is
    ``t.scale_shares()``.

    The tensor is read one output frame at a time (``t.frame``), and the
    total and the frames past the clip are counted from ``t.dims``. So a
    tensor from ``read_container`` is audited without its payload being
    read whole: the audit holds one group's output frames (one frame, when
    no two output frames share a source frame), that source frame's tapped
    rows and one chunk's temporaries.
    """
    if not pyramid:
        raise ValueError("the audit needs a pyramid of at least one level")
    sources = pyramid[0].sources
    dims = [(level.height, level.width) for level in pyramid]
    frames_out, height, width = t.dims
    mismatches = max(frames_out - len(sources), 0) * height * width  # frames past the clip
    by_source: dict[int, list[int]] = {}  # source key -> its output frames
    for f, key in enumerate(sources.source_keys[:frames_out]):
        by_source.setdefault(key, []).append(f)
    for frames in by_source.values():
        levels: dict = {}  # scale id -> parts
        for f in frames:
            data, prov = t.frame(f)
            mismatches += _collect_checks(prov.reshape(-1), data.reshape(-1, 3), f, dims, levels)
        if levels:
            mismatches += _audit_source_frame(sources, dims, frames[0], levels)
    return AuditReport(total_pixels=frames_out * height * width, mismatches=mismatches)


def _collect_checks(prov: np.ndarray, data: np.ndarray, f: int, dims: list, levels: dict) -> int:
    """File output frame ``f``'s in-range pixels in ``levels``, as
    ``{scale id: parts}``, each part the ``(y, x, got)`` of the frame's
    pixels at level dims ``dims[s]``. ``prov`` holds the frame's records and
    ``data`` its (pixels, 3) values. Returns the mismatches found without
    reading: pixels whose record names a frame other than f, or whose level
    or coordinates lie outside the pyramid.

    The pixels are grouped by their (frame, scale) keys, read from the
    records in one pass, so each part keeps pixel order. When the keys are
    already non-decreasing, as in every frame the sampler writes under a
    temporal mask or none, each group is a slice of the frame, filed as
    views of ``prov`` and ``data``; otherwise one stable sort reorders copies
    of them first. A group with pixels out of range files copies of just the
    pixels in range.
    """
    key = prov.view(_SOURCE_KEY)["key"] & 0xFFFFFF
    if (key[1:] < key[:-1]).any():  # out of order: one stable sort groups them
        order = np.argsort(key, kind="stable")
        key, prov, data = key[order], prov.take(order), data.take(order, axis=0)
    first = np.ones(key.size, dtype=bool)  # each group's first pixel
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first).tolist()
    mismatches = 0
    for lo, hi in zip(starts, starts[1:] + [key.size]):
        s, fr = int(key[lo]) & 0xFF, int(key[lo]) >> 8
        if s >= len(dims) or fr != f:
            mismatches += hi - lo
            continue
        height, width = dims[s]
        y, x, got = prov["y"][lo:hi], prov["x"][lo:hi], data[lo:hi]
        inside = y < height
        inside &= x < width
        n_inside = int(np.count_nonzero(inside))
        mismatches += hi - lo - n_inside
        if n_inside < hi - lo:
            y, x, got = y[inside], x[inside], got[inside]
        if n_inside:
            levels.setdefault(s, []).append((y, x, got))
    return mismatches


# Pixels checked per step: the step's temporaries stay near 1 MB, so the
# audit reuses the same heap memory instead of faulting in fresh pages.
_AUDIT_CHUNK = 8192


def _audit_source_frame(sources, dims: list, index: int, levels: dict) -> int:
    """Mismatches among the pixels filed under frame ``index`` of
    ``sources``: ``levels`` maps scale id s (dims ``dims[s]``) to its
    ``(y, x, got)`` parts, each marked and checked where it lies. The rows
    their taps need are marked (a bool per source row) and read once. Each
    level's tables are built once: row taps as offsets into the rows read."""
    marks = np.zeros(sources.height, dtype=bool)
    row_tables = {}
    for s, parts in levels.items():
        i0, i1, fy = row_tables[s] = _axis_table(sources.height, dims[s][0])
        used = np.zeros(i0.size, dtype=bool)
        for y, _, _ in parts:
            used[y.astype(np.intp)] = True  # numpy indexes faster with intp than uint32
        marks[i0[used]] = True
        marks[i1[used]] = True
    rows = np.flatnonzero(marks)
    flat = sources.read(index, rows).reshape(-1, 3)
    # source row -> offset of its first pixel in flat
    at = np.zeros(sources.height, dtype=np.intp)
    at[rows] = np.arange(rows.size) * sources.width
    mismatches = 0
    for s, parts in levels.items():
        i0, i1, fy = row_tables[s]
        c0, c1, fx = _axis_table(sources.width, dims[s][1])
        row_taps = (at[i0], at[i1], np.repeat(fy, 3).reshape(-1, 3))
        col_taps = (c0, c1, np.repeat(fx, 3).reshape(-1, 3))
        for y, x, got in parts:
            for lo in range(0, y.size, _AUDIT_CHUNK):
                hi = lo + _AUDIT_CHUNK
                expected = _bilinear_at(flat, y[lo:hi], x[lo:hi], row_taps, col_taps)
                differ = np.flatnonzero(expected != got[lo:hi])  # flat (pixel, channel)
                mismatches += np.unique(differ // 3).size
    return mismatches
