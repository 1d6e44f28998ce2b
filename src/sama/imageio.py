"""Minimal PNG / PPM / PGM codecs.

Deliberately small: 8/16-bit RGB and RGBA PNG (alpha dropped, 16-bit
truncated to the high byte), binary PPM (P6, maxval 255), and a P5 PGM
writer for mask dumps. Anything else raises UnsupportedFormat. The PNG
encoder always emits 8-bit RGB with filter type 0, so files written here
decode quickly everywhere.

``probe_image`` reads only a file's header: its format, dimensions and,
for PPM, that the file is long enough for its raster. ``read_image`` is
the one read path, and takes a row set: it re-reads the header, checks
the dims and the raster length, and returns just the rows asked for
(every row by default). A PPM raster has rows of a fixed length, so its
rows are read with ``os.preadv`` straight into numpy memory, one call per
run of rows, and nothing else of the raster is read but the short gaps
that join runs. A PNG is decoded whole and its rows taken.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptFile, MixedDimensions, UnsupportedFormat

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# Largest pixel count a PNG may declare (8K UHD, 7680x4320, fits); checked
# before anything is inflated.
MAX_PIXELS = 1 << 25

# Row runs of a PPM read that are at most this many unread rows apart are
# read as one run, the gap rows into scratch memory. On a 1080p frame of the
# VQA default this takes the coarse levels' reads from up to 224 runs of one
# or two rows to at most 7 runs, for 42.5 % of the rows read instead of
# 33.5 %; a pread costs about as much as a few cached rows.
ROW_GAP = 4

# Buffers one preadv call takes at most (POSIX IOV_MAX on Linux).
_IOV_MAX = 1024


# ---------------------------------------------------------------------------
# PNG


def _png_chunks(data: bytes):
    pos = len(PNG_SIGNATURE)
    while pos < len(data):
        if pos + 8 > len(data):
            raise CorruptFile("truncated PNG chunk header")
        (length,) = struct.unpack_from(">I", data, pos)
        ctype = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if len(payload) != length or pos + 12 + length > len(data):
            raise CorruptFile("truncated PNG chunk payload")
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if zlib.crc32(ctype + payload) & 0xFFFFFFFF != crc:
            raise CorruptFile(f"bad CRC in {ctype!r} chunk")
        yield ctype, payload
        pos += 12 + length
        if ctype == b"IEND":
            return
    raise CorruptFile("PNG ended without IEND chunk")


def _paeth(left: np.ndarray, up: np.ndarray, upleft: np.ndarray) -> np.ndarray:
    p = left + up - upleft
    pa = np.abs(p - left)
    pb = np.abs(p - up)
    pc = np.abs(p - upleft)
    return np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))


def _unfilter(raw: bytes, height: int, width: int, bpp: int) -> np.ndarray:
    """Reverse per-row PNG filtering; returns (height, width*bpp) uint8."""
    stride = width * bpp
    if len(raw) != height * (stride + 1):
        raise CorruptFile("decompressed PNG size does not match dimensions")
    src = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for r in range(height):
        ftype = int(src[r, 0])
        row = src[r, 1:]
        if ftype == 0:
            rec = row.copy()
        elif ftype == 1:  # Sub: prefix sum per byte lane
            lanes = row.reshape(width, bpp).astype(np.uint64)
            rec = (np.cumsum(lanes, axis=0) & 0xFF).astype(np.uint8).reshape(stride)
        elif ftype == 2:  # Up
            rec = row + prev
        elif ftype in (3, 4):  # Average / Paeth: sequential along the row
            rr = row.reshape(width, bpp).astype(np.int32)
            pp = prev.reshape(width, bpp).astype(np.int32)
            rec2 = np.empty((width, bpp), dtype=np.int32)
            left = np.zeros(bpp, dtype=np.int32)
            upleft = np.zeros(bpp, dtype=np.int32)
            for i in range(width):
                if ftype == 3:
                    left = (rr[i] + ((left + pp[i]) >> 1)) & 0xFF
                else:
                    left = (rr[i] + _paeth(left, pp[i], upleft)) & 0xFF
                    upleft = pp[i]
                rec2[i] = left
            rec = rec2.astype(np.uint8).reshape(stride)
        else:
            raise CorruptFile(f"unknown PNG filter type {ftype}")
        out[r] = rec
        prev = rec
    return out


def _ihdr(payload: bytes) -> tuple[int, int, int, int]:
    """Check an IHDR payload; returns (width, height, channels, bytes per sample)."""
    if len(payload) != 13:
        raise CorruptFile("bad IHDR length")
    width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
    if width < 1 or height < 1:
        raise CorruptFile("non-positive PNG dimensions")
    if width * height > MAX_PIXELS:
        raise CorruptFile(
            f"PNG declares {width}x{height} pixels, more than the {MAX_PIXELS} allowed"
        )
    if comp != 0 or filt != 0:
        raise UnsupportedFormat("nonstandard PNG compression/filter method")
    if interlace != 0:
        raise UnsupportedFormat("interlaced PNG is not supported")
    if color not in (2, 6) or depth not in (8, 16):
        raise UnsupportedFormat(
            f"unsupported PNG color type {color} / bit depth {depth}; "
            "need 8/16-bit RGB or RGBA"
        )
    return width, height, 3 if color == 2 else 4, depth // 8


def _probe_png(head: bytes) -> tuple[int, int]:
    """(height, width) from the IHDR chunk, which must come first."""
    ctype, payload = next(_png_chunks(head))
    if ctype != b"IHDR":
        raise CorruptFile("PNG does not start with an IHDR chunk")
    width, height, _, _ = _ihdr(payload)
    return height, width


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes to an (H, W, 3) uint8 RGB array."""
    if not data.startswith(PNG_SIGNATURE):
        raise UnsupportedFormat("not a PNG file")
    header = None
    idat = bytearray()
    for ctype, payload in _png_chunks(data):
        if ctype == b"IHDR":
            header = _ihdr(payload)
        elif ctype == b"IDAT":
            idat.extend(payload)
    if header is None:
        raise CorruptFile("PNG missing IHDR")
    if not idat:
        raise CorruptFile("PNG missing IDAT")
    width, height, channels, nbytes = header
    bpp = channels * nbytes
    # Inflate at most one byte past the size IHDR implies, so a small file
    # cannot expand past its declared dims (themselves capped by MAX_PIXELS)
    # before the size check rejects it.
    expected = height * (width * bpp + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat), expected + 1)
    except zlib.error as exc:
        raise CorruptFile(f"PNG deflate stream corrupt: {exc}") from exc
    if not inflater.eof:  # also unset when the Adler-32 trailer is missing
        raise CorruptFile("PNG deflate stream is truncated or longer than its dimensions")
    flat = _unfilter(raw, height, width, bpp)
    pixels = flat.reshape(height, width, channels, nbytes)
    # 16-bit samples are big-endian; keep the high byte
    rgb = pixels[:, :, :3, 0]
    return np.ascontiguousarray(rgb)


def encode_png(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as an 8-bit RGB PNG."""
    rgb = _require_rgb(rgb)
    height, width = rgb.shape[:2]
    raw = bytearray()
    for r in range(height):
        raw.append(0)  # filter type None
        raw.extend(rgb[r].tobytes())
    out = bytearray(PNG_SIGNATURE)
    _append_chunk(out, b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
    _append_chunk(out, b"IDAT", zlib.compress(bytes(raw), 6))
    _append_chunk(out, b"IEND", b"")
    return bytes(out)


def _append_chunk(out: bytearray, ctype: bytes, payload: bytes) -> None:
    out.extend(struct.pack(">I", len(payload)))
    out.extend(ctype)
    out.extend(payload)
    out.extend(struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF))


# ---------------------------------------------------------------------------
# PPM / PGM


_WHITESPACE = b" \t\n\r\x0b\x0c"  # what bytes.isspace() accepts


class _TruncatedHeader(CorruptFile):
    """The header runs past the end of the bytes given; more may complete it."""


def _parse_netpbm_header(data, magic: bytes) -> tuple[list[int], int]:
    """Parse '<magic> w h maxval' allowing comments; returns (fields, offset).

    ``data`` is bytes or a 1-D uint8 array; it is read in place, not copied.
    """
    view = memoryview(data)
    if bytes(view[: len(magic)]) != magic:
        raise UnsupportedFormat(f"not a {magic.decode()} file")
    fields: list[int] = []
    pos = len(magic)
    end = len(view)
    while len(fields) < 3:
        if pos >= end:
            raise _TruncatedHeader("truncated header")
        ch = view[pos]
        if ch == ord("#"):
            while pos < end and view[pos] not in b"\r\n":
                pos += 1
        elif ch in _WHITESPACE:
            pos += 1
        elif ord("0") <= ch <= ord("9"):
            start = pos
            while pos < end and ord("0") <= view[pos] <= ord("9"):
                pos += 1
            fields.append(int(bytes(view[start:pos])))
        else:
            raise CorruptFile(f"unexpected byte {bytes([ch])!r} in header")
    # exactly one whitespace byte separates maxval from the raster
    if pos >= end:
        raise _TruncatedHeader("header not terminated by whitespace")
    if view[pos] not in _WHITESPACE:
        raise CorruptFile("header not terminated by whitespace")
    return fields, pos + 1


def _ppm_header(data) -> tuple[int, int, int]:
    """Check a P6 header; returns (width, height, raster offset)."""
    (width, height, maxval), offset = _parse_netpbm_header(data, b"P6")
    if maxval != 255:
        raise UnsupportedFormat(f"PPM maxval {maxval}; only 255 is supported")
    if width < 1 or height < 1:
        raise CorruptFile("non-positive PPM dimensions")
    return width, height, offset


def _check_raster(width: int, height: int, found: int) -> int:
    """The raster's byte count; raises if fewer than that were found."""
    need = width * height * 3
    if found < need:
        raise CorruptFile(f"PPM raster truncated: expected {need} bytes, found {found}")
    return need


def decode_ppm(data) -> np.ndarray:
    """Decode binary PPM (P6, maxval 255) to an (H, W, 3) uint8 array.

    ``data`` is bytes or a 1-D uint8 array. The result is a view of it at
    the raster offset, not a copy (read-only when ``data`` is bytes).
    """
    width, height, offset = _ppm_header(data)
    need = _check_raster(width, height, len(data) - offset)
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=offset).reshape(
        height, width, 3
    )


def _ppm_head(width: int, height: int) -> bytes:
    """The canonical P6 header of a ``width`` x ``height`` raster."""
    return b"P6\n%d %d\n255\n" % (width, height)


def encode_ppm(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as canonical binary PPM."""
    rgb = _require_rgb(rgb)
    height, width = rgb.shape[:2]
    return _ppm_head(width, height) + rgb.tobytes()


def encode_pgm(gray: np.ndarray) -> bytes:
    """Encode an (H, W) uint8 array as binary PGM (P5)."""
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError("PGM encoder expects an (H, W) uint8 array")
    height, width = gray.shape
    return b"P5\n%d %d\n255\n" % (width, height) + np.ascontiguousarray(gray).tobytes()


def _require_rgb(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("expected an (H, W, 3) uint8 array")
    return np.ascontiguousarray(arr)


# ---------------------------------------------------------------------------
# File-level helpers


_UNRECOGNISED = "unrecognised image format (need PNG or binary PPM)"


def _ppm_file_header(fh, head: bytes) -> tuple[int, int, int]:
    """(width, height, raster offset) of the open PPM file ``fh``, whose
    first bytes are ``head``; checks that the file holds the whole raster."""
    size = os.fstat(fh.fileno()).st_size
    while True:  # a comment can make the header any length
        try:
            width, height, offset = _ppm_header(head)
            break
        except _TruncatedHeader:
            if len(head) >= size:
                raise
            head += fh.read(4 * len(head))
    _check_raster(width, height, size - offset)
    return width, height, offset


def probe_image(path: str | Path) -> tuple[int, int]:
    """(height, width) of a PNG or binary-PPM file, from its header alone.

    Checks the format, the dimensions (a PNG's IHDR length and CRC, and
    the pixel cap; a PPM's maxval) and that a PPM file holds its whole
    raster. PNG pixel data is not read, so its corruption shows only when
    the file is decoded.
    """
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(64)
        if head.startswith(PNG_SIGNATURE):
            return _probe_png(head)
        if not head.startswith(b"P6"):
            raise UnsupportedFormat(_UNRECOGNISED)
        width, height, _ = _ppm_file_header(fh, head)
    return height, width


def _check_read(path, height: int, width: int, rows, dims) -> None:
    if dims is not None and (height, width) != tuple(dims):
        raise MixedDimensions(
            f"{Path(path).name} is {height}x{width}, expected {dims[0]}x{dims[1]}"
        )
    if rows is not None and (
        len(rows) == 0 or rows[0] < 0 or rows[-1] >= height or (np.diff(rows) < 1).any()
    ):
        raise ValueError(f"rows must be ascending distinct rows of 0..{height - 1}")


def read_image(path: str | Path, rows=None, dims=None) -> np.ndarray:
    """Rows ``rows`` of a PNG or binary-PPM file, as a (len(rows), W, 3)
    uint8 array; every row when ``rows`` is None.

    ``rows`` is an ascending array of distinct row indices. ``dims``, when
    given, is the (height, width) the file must still have (from an
    earlier ``probe_image``), else MixedDimensions. The header is parsed
    on every read, and a PPM file too short for its raster, or cut short
    during the read, raises CorruptFile. A PPM's rows are read straight
    into the buffer that ``decode_ppm`` then views, as a PPM of those rows;
    a PNG is decoded whole.
    """
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(64)
        if head.startswith(PNG_SIGNATURE):
            rgb = decode_png(head + fh.readall())
            _check_read(path, *rgb.shape[:2], rows, dims)
            return rgb if rows is None else rgb[rows]
        if not head.startswith(b"P6"):
            raise UnsupportedFormat(_UNRECOGNISED)
        width, height, offset = _ppm_file_header(fh, head)
        _check_read(path, height, width, rows, dims)
        rows = np.arange(height) if rows is None else np.asarray(rows)
        buf = _read_rows(fh.fileno(), offset, width * 3, rows, _ppm_head(width, len(rows)))
    return decode_ppm(buf)


def _read_rows(fd: int, offset: int, stride: int, rows: np.ndarray, head: bytes) -> np.ndarray:
    """``head`` then rows ``rows`` of the ``stride``-byte rows at ``offset``
    in file ``fd``, read into one uint8 buffer.

    Rows at most ROW_GAP rows apart form one run and one preadv, whose
    buffers are the run's rows in place and scratch memory for its gaps.
    """
    buf = np.empty(len(head) + len(rows) * stride, dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    out = memoryview(buf)[len(head) :]
    scratch = memoryview(bytearray(ROW_GAP * stride))
    # blocks of consecutive rows [starts[k], stops[k]) of the output
    steps = np.diff(rows)
    cuts = np.flatnonzero(steps > 1) + 1
    starts = np.concatenate(([0], cuts)).tolist()
    stops = np.concatenate((cuts, [len(rows)])).tolist()
    gaps = np.append(steps[cuts - 1] - 1, ROW_GAP + 1).tolist()  # unread rows after each block
    pos = offset + int(rows[0]) * stride
    iov: list[memoryview] = []
    for start, stop, gap in zip(starts, stops, gaps):
        iov.append(out[start * stride : stop * stride])
        if gap > ROW_GAP:  # the run ends: read it and skip the gap
            pos = _preadv_exactly(fd, iov, pos) + gap * stride
            iov = []
        else:
            iov.append(scratch[: gap * stride])
            if len(iov) >= _IOV_MAX - 1:
                pos = _preadv_exactly(fd, iov, pos)
                iov = []
    return buf


def _preadv_exactly(fd: int, iov: list, pos: int) -> int:
    """Fill the buffers ``iov`` from ``pos`` in ``fd``; returns the offset
    after them. A short read (the file shrank) raises CorruptFile."""
    want = sum(len(b) for b in iov)
    got = os.preadv(fd, iov, pos)
    if got != want:
        raise CorruptFile(f"PPM raster truncated during the read: {got} of {want} bytes at {pos}")
    return pos + want


def read_buffer(fh) -> np.ndarray:
    """A whole file, from an unbuffered binary handle at offset 0, read
    once into a uint8 numpy buffer sized by ``fstat``: one copy from the
    page cache, counted as read bytes (no mapping)."""
    buf = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
    view = memoryview(buf)
    filled = 0
    while filled < len(buf):
        n = fh.readinto(view[filled:])
        if not n:
            break
        filled += n
    return buf[:filled]


def write_image(path: str | Path, rgb: np.ndarray) -> None:
    """Write PNG or PPM depending on the file extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".png":
        path.write_bytes(encode_png(rgb))
    elif suffix == ".ppm":
        path.write_bytes(encode_ppm(rgb))
    else:
        raise UnsupportedFormat(f"cannot write {suffix!r}; use .png or .ppm")
