"""Minimal PNG / PPM / PGM codecs.

Deliberately small: 8/16-bit RGB and RGBA PNG (alpha dropped, 16-bit
truncated to the high byte), binary PPM (P6, maxval 255), and a P5 PGM
writer for mask dumps. Anything else raises UnsupportedFormat. The PNG
encoder always emits 8-bit RGB with filter type 0, so files written here
decode quickly everywhere.

``probe_image`` reads only a file's header: its format, dimensions and,
for PPM, that the file is long enough for its raster. ``read_image`` is
the one read path, and takes a row set. Both read the header through one
function, which dispatches on the file signature once; a PNG's IHDR must
be its first chunk, the rule ``decode_png`` applies too, and one check
caps the pixels both formats declare. ``read_image`` checks the rows and
the expected dims against that header before it reads any payload byte,
and returns just the rows asked for (every row by default). A PPM raster
has rows of a fixed length, so its rows are read with ``os.preadv``
straight into numpy memory, one call per run of consecutive rows, and no
other byte of the raster is read. A PNG is read into one buffer, decoded
whole and its rows taken.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptFile, MixedDimensions, UnsupportedFormat

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# Largest pixel count a PNG or PPM may declare (8K UHD, 7680x4320, fits);
# checked before anything is inflated or read.
MAX_PIXELS = 1 << 25


def _check_dims(fmt: str, width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise CorruptFile(f"non-positive {fmt} dimensions")
    if width * height > MAX_PIXELS:
        raise CorruptFile(
            f"{fmt} declares {width}x{height} pixels, more than the {MAX_PIXELS} allowed"
        )


# ---------------------------------------------------------------------------
# PNG


def _png_chunks(data):
    """(type, payload) of each chunk of the PNG ``data`` (bytes or a uint8
    buffer), CRC checked; the payloads are views of ``data``."""
    view = memoryview(data)
    pos = len(PNG_SIGNATURE)
    while pos < len(view):
        if pos + 8 > len(view):
            raise CorruptFile("truncated PNG chunk header")
        length, ctype = struct.unpack_from(">I4s", view, pos)
        end = pos + 12 + length
        if end > len(view):
            raise CorruptFile("truncated PNG chunk payload")
        payload = view[pos + 8 : end - 4]
        (crc,) = struct.unpack_from(">I", view, end - 4)
        if zlib.crc32(payload, zlib.crc32(ctype)) != crc:
            raise CorruptFile(f"bad CRC in {ctype!r} chunk")
        yield ctype, payload
        pos = end
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


def _png_header(chunks) -> tuple[int, int, int, int]:
    """Take the first chunk from the ``_png_chunks`` iterator ``chunks``;
    it must be an IHDR (PNG spec 5.6). Returns (width, height, channels,
    bytes per sample)."""
    ctype, payload = next(chunks)
    if ctype != b"IHDR":
        raise CorruptFile("PNG does not start with an IHDR chunk")
    if len(payload) != 13:
        raise CorruptFile("bad IHDR length")
    width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
    _check_dims("PNG", width, height)
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


def decode_png(data) -> np.ndarray:
    """Decode PNG bytes (or a uint8 buffer) to an (H, W, 3) uint8 RGB array."""
    if memoryview(data)[: len(PNG_SIGNATURE)] != PNG_SIGNATURE:
        raise UnsupportedFormat("not a PNG file")
    chunks = _png_chunks(data)
    width, height, channels, nbytes = _png_header(chunks)
    bpp = channels * nbytes
    # Each IDAT payload is inflated as it comes, and at most one byte past
    # the size IHDR implies in all, so a small file cannot expand past its
    # declared dims (themselves capped by MAX_PIXELS) before the size check
    # rejects it. Once that budget is spent, no more is inflated.
    budget = height * (width * bpp + 1) + 1
    inflater = zlib.decompressobj()
    parts, fed = [], 0
    for ctype, payload in chunks:
        if ctype == b"IHDR":
            raise CorruptFile("PNG has a second IHDR chunk")
        if ctype == b"IDAT":
            fed += len(payload)
            if budget:
                try:
                    piece = inflater.decompress(payload, budget)
                except zlib.error as exc:
                    raise CorruptFile(f"PNG deflate stream corrupt: {exc}") from exc
                parts.append(piece)
                budget -= len(piece)
    if not fed:
        raise CorruptFile("PNG missing IDAT")
    if not inflater.eof:  # also unset when the Adler-32 trailer is missing
        raise CorruptFile("PNG deflate stream is truncated or longer than its dimensions")
    raw = b"".join(parts)
    del parts  # the pieces go before the rows are unfiltered
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


_PPM_MAGIC = b"P6"  # binary RGB, the one netpbm kind read
_WHITESPACE = b" \t\n\r\x0b\x0c"  # what bytes.isspace() accepts
# whitespace and comments (each up to its line end), then a field's digits;
# \s is exactly _WHITESPACE in a bytes pattern
_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*(\d*)")


class _TruncatedHeader(CorruptFile):
    """The header runs past the end of the bytes given; more may complete it."""


def _parse_netpbm_header(data) -> tuple[list[int], int]:
    """Parse 'P6 w h maxval' allowing comments; returns (fields, offset).

    ``data`` is bytes or a 1-D uint8 array; it is read in place, not copied.
    """
    view = memoryview(data)
    if bytes(view[: len(_PPM_MAGIC)]) != _PPM_MAGIC:
        raise UnsupportedFormat("not a P6 file")
    fields: list[int] = []
    pos = len(_PPM_MAGIC)
    # whitespace (or a comment) must follow the magic number: "P62 1" is no P6
    if pos < len(view) and view[pos] not in _WHITESPACE + b"#":
        raise CorruptFile(f"unexpected byte {bytes(view[pos : pos + 1])!r} after P6")
    while len(fields) < 3:
        match = _FIELD.match(view, pos)
        pos = match.end()
        if pos >= len(view):  # a comment or field may go on past the bytes given
            raise _TruncatedHeader("truncated header")
        if not match[1]:
            raise CorruptFile(f"unexpected byte {bytes(view[pos : pos + 1])!r} in header")
        fields.append(int(match[1]))
    # exactly one whitespace byte separates maxval from the raster
    if view[pos] not in _WHITESPACE:
        raise CorruptFile("header not terminated by whitespace")
    return fields, pos + 1


def _ppm_header(data) -> tuple[int, int, int]:
    """Check a P6 header; returns (width, height, raster offset)."""
    (width, height, maxval), offset = _parse_netpbm_header(data)
    if maxval != 255:
        raise UnsupportedFormat(f"PPM maxval {maxval}; only 255 is supported")
    _check_dims("PPM", width, height)
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


def _file_header(fh) -> tuple[int, int, int | None, bytes]:
    """The header of the PNG or binary-PPM file open as ``fh`` (unbuffered,
    at offset 0): (height, width, the PPM raster's offset or None for a
    PNG, the bytes read). Reads a 64-byte head, and more only while a PPM
    comment runs past it; checks the header and that a PPM file holds its
    whole raster."""
    head = fh.read(64)
    if head.startswith(PNG_SIGNATURE):
        width, height, _, _ = _png_header(_png_chunks(head))
        return height, width, None, head
    if not head.startswith(_PPM_MAGIC):
        raise UnsupportedFormat(_UNRECOGNISED)
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
    return height, width, offset, head


def probe_image(path: str | Path) -> tuple[int, int]:
    """(height, width) of a PNG or binary-PPM file, from its header alone.

    Checks the format, the dimensions (the pixel cap; a PNG's IHDR, which
    must be its first chunk, with its length and CRC; a PPM's maxval) and
    that a PPM file holds its whole raster. PNG pixel data is not read, so
    its corruption shows only when the file is decoded.
    """
    with open(path, "rb", buffering=0) as fh:
        return _file_header(fh)[:2]


def read_image(path: str | Path, rows=None, dims=None) -> np.ndarray:
    """Rows ``rows`` of a PNG or binary-PPM file, as a (len(rows), W, 3)
    uint8 array; every row when ``rows`` is None.

    ``rows`` is an ascending array of distinct row indices. ``dims``, when
    given, is the (height, width) the file must still have (from an
    earlier ``probe_image``), else MixedDimensions. The header is checked
    as ``probe_image`` checks it, and ``rows`` and ``dims`` against it,
    before any payload byte is read. A PPM file too short for its raster,
    or cut short during the read, raises CorruptFile. A PPM's rows are read
    straight into the buffer that ``decode_ppm`` then views, as a PPM of
    those rows; a PNG is read into one buffer and decoded whole.
    """
    with open(path, "rb", buffering=0) as fh:
        height, width, offset, head = _file_header(fh)
        if dims is not None and (height, width) != tuple(dims):
            raise MixedDimensions(
                f"{Path(path).name} is {height}x{width}, expected {dims[0]}x{dims[1]}"
            )
        if rows is not None and (
            len(rows) == 0 or rows[0] < 0 or rows[-1] >= height or (np.diff(rows) < 1).any()
        ):
            raise ValueError(f"rows must be ascending distinct rows of 0..{height - 1}")
        if offset is None:  # a PNG
            rgb = decode_png(read_buffer(fh, head))
            return rgb if rows is None else rgb[rows]
        rows = np.arange(height) if rows is None else np.asarray(rows)
        buf = _read_rows(fh.fileno(), offset, width * 3, rows, _ppm_head(width, len(rows)))
    return decode_ppm(buf)


def _read_rows(fd: int, offset: int, stride: int, rows: np.ndarray, head: bytes) -> np.ndarray:
    """``head`` then rows ``rows`` of the ``stride``-byte rows at ``offset``
    in file ``fd``, read into one uint8 buffer.

    Each run of consecutive rows is one single-buffer preadv straight into
    its place in the buffer, so exactly the rows asked for are read. A
    short read (the file shrank) raises CorruptFile.
    """
    buf = np.empty(len(head) + len(rows) * stride, dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    out = memoryview(buf)[len(head) :]
    # runs of consecutive rows [starts[k], stops[k]) of the output
    cuts = np.flatnonzero(np.diff(rows) > 1) + 1
    starts = np.concatenate(([0], cuts))
    stops = np.append(cuts, len(rows))
    for start, stop, row in zip(starts.tolist(), stops.tolist(), rows[starts].tolist()):
        pos = offset + row * stride
        want = (stop - start) * stride
        got = os.preadv(fd, [out[start * stride : stop * stride]], pos)
        if got != want:
            raise CorruptFile(
                f"PPM raster truncated during the read: {got} of {want} bytes at {pos}"
            )
    return buf


def read_buffer(fh, head: bytes = b"") -> np.ndarray:
    """A whole file, from an unbuffered binary handle whose first bytes
    ``head`` were already read, into one uint8 numpy buffer sized by
    ``fstat``: ``head``, then the rest read once, one copy from the page
    cache, counted as read bytes (no mapping)."""
    buf = np.empty(max(os.fstat(fh.fileno()).st_size, len(head)), dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    view = memoryview(buf)
    filled = len(head)
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
