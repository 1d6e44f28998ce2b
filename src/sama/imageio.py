"""Minimal PNG / PPM / PGM codecs.

Deliberately small: 8/16-bit RGB and RGBA PNG (alpha dropped, 16-bit
truncated to the high byte), binary PPM (P6, maxval 255), and a P5 PGM
writer for mask dumps. Anything else raises UnsupportedFormat. The PNG
encoder always emits 8-bit RGB with filter type 0, so files written here
decode quickly everywhere.
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptFile, UnsupportedFormat

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


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


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes to an (H, W, 3) uint8 RGB array."""
    if not data.startswith(PNG_SIGNATURE):
        raise UnsupportedFormat("not a PNG file")
    header = None
    idat = bytearray()
    for ctype, payload in _png_chunks(data):
        if ctype == b"IHDR":
            if len(payload) != 13:
                raise CorruptFile("bad IHDR length")
            header = struct.unpack(">IIBBBBB", payload)
        elif ctype == b"IDAT":
            idat.extend(payload)
    if header is None:
        raise CorruptFile("PNG missing IHDR")
    width, height, depth, color, comp, filt, interlace = header
    if width < 1 or height < 1:
        raise CorruptFile("non-positive PNG dimensions")
    if comp != 0 or filt != 0:
        raise UnsupportedFormat("nonstandard PNG compression/filter method")
    if interlace != 0:
        raise UnsupportedFormat("interlaced PNG is not supported")
    if color not in (2, 6) or depth not in (8, 16):
        raise UnsupportedFormat(
            f"unsupported PNG color type {color} / bit depth {depth}; "
            "need 8/16-bit RGB or RGBA"
        )
    if not idat:
        raise CorruptFile("PNG missing IDAT")
    channels = 3 if color == 2 else 4
    nbytes = depth // 8
    bpp = channels * nbytes
    # Inflate at most one byte past the size IHDR implies, so a small file
    # cannot expand to gigabytes before the size check rejects it. The cap
    # is clamped because declared dims can exceed what zlib can be asked for.
    expected = height * (width * bpp + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat), min(expected + 1, sys.maxsize))
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


def _parse_netpbm_header(data: bytes, magic: bytes) -> tuple[list[int], int]:
    """Parse '<magic> w h maxval' allowing comments; returns (fields, offset)."""
    if not data.startswith(magic):
        raise UnsupportedFormat(f"not a {magic.decode()} file")
    fields: list[int] = []
    pos = len(magic)
    while len(fields) < 3:
        if pos >= len(data):
            raise CorruptFile("truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise CorruptFile(f"unexpected byte {ch!r} in header")
    # exactly one whitespace byte separates maxval from the raster
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise CorruptFile("header not terminated by whitespace")
    return fields, pos + 1


def decode_ppm(data: bytes) -> np.ndarray:
    """Decode binary PPM (P6, maxval 255) to an (H, W, 3) uint8 array."""
    (width, height, maxval), offset = _parse_netpbm_header(data, b"P6")
    if maxval != 255:
        raise UnsupportedFormat(f"PPM maxval {maxval}; only 255 is supported")
    if width < 1 or height < 1:
        raise CorruptFile("non-positive PPM dimensions")
    need = width * height * 3
    payload = data[offset : offset + need]
    if len(payload) < need:
        raise CorruptFile(
            f"PPM raster truncated: expected {need} bytes, found {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def encode_ppm(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as canonical binary PPM."""
    rgb = _require_rgb(rgb)
    height, width = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (width, height) + rgb.tobytes()


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


def decode_image_bytes(data: bytes) -> np.ndarray:
    """Dispatch on magic bytes; PNG and P6 PPM only."""
    if data.startswith(PNG_SIGNATURE):
        return decode_png(data)
    if data.startswith(b"P6"):
        return decode_ppm(data)
    raise UnsupportedFormat("unrecognised image format (need PNG or binary PPM)")


def read_image(path: str | Path) -> np.ndarray:
    return decode_image_bytes(Path(path).read_bytes())


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
