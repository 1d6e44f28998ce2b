import os
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sama import imageio
from sama.errors import CorruptFile, UnsupportedFormat
from sama.media import load_image

from conftest import coordinate_frame, sparse_ppm


def rgb_strategy(max_side=12):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side), st.integers(0, 2**32 - 1)
    ).map(
        lambda t: np.random.default_rng(t[2]).integers(
            0, 256, (t[0], t[1], 3), dtype=np.uint8
        )
    )


# ---------------------------------------------------------------------------
# PPM


def test_minimal_white_ppm():
    data = b"P6 1 1 255 "[:-1] + b"\n" + bytes([255, 255, 255])
    arr = imageio.decode_ppm(data)
    assert arr.shape == (1, 1, 3)
    assert arr.tolist() == [[[255, 255, 255]]]


def test_ppm_header_comments_and_whitespace():
    data = b"P6\n# a comment\n 2\t1\n# another\n255\n" + bytes(range(6))
    arr = imageio.decode_ppm(data)
    assert arr.shape == (1, 2, 3)
    assert arr.reshape(-1).tolist() == list(range(6))


@pytest.mark.parametrize("data", [
    b"P62 1\n255\n" + bytes(6),  # was read as a 1x2 image
    b"P6x2 1\n255\n" + bytes(6),
], ids=["digit", "letter"])
def test_ppm_header_needs_whitespace_after_the_magic_number(data, tmp_path):
    with pytest.raises(CorruptFile, match="after P6"):
        imageio.decode_ppm(data)
    path = tmp_path / "a.ppm"
    path.write_bytes(data)
    with pytest.raises(CorruptFile, match="after P6"):
        imageio.probe_image(path)
    with pytest.raises(CorruptFile, match="after P6"):
        imageio.read_image(path)
    # a comment may follow it directly
    assert imageio.decode_ppm(b"P6#c\n2 1\n255\n" + bytes(6)).shape == (1, 2, 3)


def test_ppm_header_comment_longer_than_any_read_prefix(tmp_path):
    # the file paths read headers in growing prefixes; a long comment spans many
    data = b"P6\n#" + b"x" * 100_000 + b"\n2 1\n# tail\n255\n" + bytes(range(6))
    assert imageio.decode_ppm(data).reshape(-1).tolist() == list(range(6))
    path = tmp_path / "long.ppm"
    path.write_bytes(data)
    assert imageio.probe_image(path) == (1, 2)
    assert imageio.read_image(path).reshape(-1).tolist() == list(range(6))


def test_ppm_header_comment_is_skipped_in_one_search(tmp_path):
    # an 8 MB comment: stepping through it a byte at a time took 0.6 s to
    # decode and 0.9 s each to probe and read (2.4 s in all, on 2 vCPUs); one
    # search takes about 0.3 s in all, though the file paths parse a header
    # once more per prefix they read
    data = b"P6\n#" + b"x" * (8 << 20) + b"\n2 1\n255\n" + bytes(range(6))
    path = tmp_path / "long.ppm"
    path.write_bytes(data)
    start = time.perf_counter()
    assert imageio.decode_ppm(data).shape == (1, 2, 3)
    assert imageio.probe_image(path) == (1, 2)
    assert imageio.read_image(path).reshape(-1).tolist() == list(range(6))
    assert time.perf_counter() - start < 1.0


def test_ppm_decode_is_a_view_of_its_buffer():
    arr = coordinate_frame(3, 4).data
    buf = np.frombuffer(imageio.encode_ppm(arr), dtype=np.uint8).copy()
    decoded = imageio.decode_ppm(buf)
    assert np.array_equal(decoded, arr)
    assert np.shares_memory(decoded, buf)


def test_ppm_probe_checks_the_raster_length_without_reading_it(tmp_path):
    path = tmp_path / "a.ppm"
    data = imageio.encode_ppm(coordinate_frame(5, 7).data)
    path.write_bytes(data)
    assert imageio.probe_image(path) == (5, 7)
    path.write_bytes(data[:-1])
    with pytest.raises(CorruptFile, match="expected 105 bytes, found 104"):
        imageio.probe_image(path)
    for blob, error in (
        (b"P6\n1 1\n65535\n" + bytes(6), UnsupportedFormat),
        (b"P6\n0 1\n255\n", CorruptFile),
        (b"P6\n1 1", CorruptFile),
        (b"GIF89a", UnsupportedFormat),
    ):
        path.write_bytes(blob)
        with pytest.raises(error):
            imageio.probe_image(path)


def test_ppm_truncated_payload():
    # declared 2x2 but only 3 pixels present
    data = b"P6\n2 2\n255\n" + bytes(9)
    with pytest.raises(CorruptFile):
        imageio.decode_ppm(data)


def test_ppm_bad_magic():
    with pytest.raises(UnsupportedFormat):
        imageio.decode_ppm(b"P5\n1 1\n255\n\x00")


def test_ppm_wrong_maxval():
    with pytest.raises(UnsupportedFormat):
        imageio.decode_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")


@settings(max_examples=40, deadline=None)
@given(rgb_strategy())
def test_ppm_roundtrip_and_canonical_stability(arr):
    encoded = imageio.encode_ppm(arr)
    decoded = imageio.decode_ppm(encoded)
    assert np.array_equal(decoded, arr)
    # decode -> re-encode -> decode is byte-stable
    assert imageio.encode_ppm(decoded) == encoded


# ---------------------------------------------------------------------------
# PNG


def test_png_roundtrip():
    arr = coordinate_frame(21, 33).data
    decoded = imageio.decode_png(imageio.encode_png(arr))
    assert np.array_equal(decoded, arr)


def test_png_full_hd_dimensions_pass_through():
    arr = np.random.default_rng(0).integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
    decoded = imageio.decode_png(imageio.encode_png(arr))
    assert decoded.shape == (1080, 1920, 3)
    assert np.array_equal(decoded, arr)


def _raw_png(width, height, depth, color, rows, interlace=0, idat=None):
    """Hand-assembled PNG for decoder tests; rows are pre-filtered bytes,
    deflated unless ``idat`` gives the image data stream itself."""
    out = bytearray(imageio.PNG_SIGNATURE)

    def chunk(ctype, payload):
        out.extend(struct.pack(">I", len(payload)))
        out.extend(ctype)
        out.extend(payload)
        out.extend(struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF))

    chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, depth, color, 0, 0, interlace))
    chunk(b"IDAT", zlib.compress(bytes(rows)) if idat is None else idat)
    chunk(b"IEND", b"")
    return bytes(out)


def test_png_16bit_truncates_to_high_byte():
    # 2x1 RGB, 16-bit big-endian samples: high byte is the value
    high = [10, 200, 30, 250, 60, 90]
    rows = bytearray([0])
    for h in high:
        rows.extend([h, 0xAB])  # low byte is junk the decoder must drop
    arr = imageio.decode_png(_raw_png(2, 1, 16, 2, rows))
    assert arr.reshape(-1).tolist() == high


def test_png_rgba_alpha_dropped():
    rows = bytearray([0]) + bytes([1, 2, 3, 77, 4, 5, 6, 200])
    arr = imageio.decode_png(_raw_png(2, 1, 8, 6, rows))
    assert arr.reshape(-1).tolist() == [1, 2, 3, 4, 5, 6]


def _filter_rows(pixels: np.ndarray, ftypes: list[int]) -> bytearray:
    """Forward PNG filtering, written independently of the decoder."""
    height, width, _ = pixels.shape
    bpp = 3
    stride = width * bpp
    flat = pixels.reshape(height, stride).astype(np.int32)
    out = bytearray()
    prev = np.zeros(stride, dtype=np.int32)
    for r in range(height):
        ftype = ftypes[r % len(ftypes)]
        out.append(ftype)
        row = flat[r]
        for i in range(stride):
            left = row[i - bpp] if i >= bpp else 0
            up = prev[i]
            upleft = prev[i - bpp] if i >= bpp else 0
            if ftype == 0:
                val = row[i]
            elif ftype == 1:
                val = row[i] - left
            elif ftype == 2:
                val = row[i] - up
            elif ftype == 3:
                val = row[i] - (left + up) // 2
            else:
                p = left + up - upleft
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
                if pa <= pb and pa <= pc:
                    pred = left
                elif pb <= pc:
                    pred = up
                else:
                    pred = upleft
                val = row[i] - pred
            out.append(val & 0xFF)
        prev = row
    return out


@pytest.mark.parametrize("ftypes", [[1], [2], [3], [4], [0, 1, 2, 3, 4]])
def test_png_all_filter_types(ftypes):
    pixels = coordinate_frame(7, 5).data
    rows = _filter_rows(pixels, ftypes)
    arr = imageio.decode_png(_raw_png(5, 7, 8, 2, rows))
    assert np.array_equal(arr, pixels)


def test_png_bad_magic():
    with pytest.raises(UnsupportedFormat):
        imageio.decode_png(b"not a png at all")


def test_png_bad_crc():
    data = bytearray(imageio.encode_png(coordinate_frame(4, 4).data))
    data[-5] ^= 0xFF  # inside IEND CRC
    with pytest.raises(CorruptFile):
        imageio.decode_png(bytes(data))


def test_png_truncated():
    data = imageio.encode_png(coordinate_frame(8, 8).data)
    with pytest.raises(CorruptFile):
        imageio.decode_png(data[: len(data) // 2])


def test_png_palette_unsupported():
    rows = bytearray([0, 0])
    with pytest.raises(UnsupportedFormat):
        imageio.decode_png(_raw_png(1, 1, 8, 3, rows))


def test_png_interlace_unsupported():
    rows = bytearray([0, 1, 2, 3])
    with pytest.raises(UnsupportedFormat):
        imageio.decode_png(_raw_png(1, 1, 8, 2, rows, interlace=1))


def test_png_corrupt_deflate():
    out = bytearray(imageio.PNG_SIGNATURE)

    def chunk(ctype, payload):
        out.extend(struct.pack(">I", len(payload)))
        out.extend(ctype)
        out.extend(payload)
        out.extend(struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF))

    chunk(b"IHDR", struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0))
    chunk(b"IDAT", b"\x00definitely not deflate")
    chunk(b"IEND", b"")
    with pytest.raises(CorruptFile):
        imageio.decode_png(bytes(out))


def test_png_inflate_bomb_is_rejected_within_bounded_memory():
    # declares 1x1 RGB (4 bytes of image data) but inflates to 64 MiB
    bomb = _raw_png(1, 1, 8, 2, b"", idat=zlib.compress(bytes(64 << 20), 9))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFile):
            imageio.decode_png(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_png_largest_declared_dimensions_are_corrupt_not_an_overflow():
    rows = bytearray([0, 1, 2, 3])
    with pytest.raises(CorruptFile):
        imageio.decode_png(_raw_png(2**32 - 1, 2**32 - 1, 16, 6, rows))


def test_png_deflate_stream_missing_its_checksum():
    rows = bytearray([0, 1, 2, 3])
    with pytest.raises(CorruptFile):
        imageio.decode_png(_raw_png(1, 1, 8, 2, rows, idat=zlib.compress(bytes(rows))[:-4]))


def _png_file(tmp_path, blob):
    path = tmp_path / "img.png"
    path.write_bytes(blob)
    return path


def test_png_declared_pixels_over_the_cap_fail_before_inflating(tmp_path):
    # declares 65536x65536 RGB; the IDAT would inflate to 64 MiB of zeros
    bomb = _raw_png(65536, 65536, 8, 2, b"", idat=zlib.compress(bytes(64 << 20), 9))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFile, match="more than the"):
            imageio.decode_png(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(CorruptFile, match="more than the"):
        imageio.probe_image(_png_file(tmp_path, bomb))


def _chunk(ctype, payload):
    out = bytearray()
    imageio._append_chunk(out, ctype, payload)
    return bytes(out)


def test_png_read_over_the_cap_fails_before_reading_the_payload(tmp_path):
    # declares 10000x10000 and holds a 64 MiB IDAT: a hole, which takes no
    # disk space and reads as zeros
    path = tmp_path / "big.png"
    ihdr = _chunk(b"IHDR", struct.pack(">IIBBBBB", 10000, 10000, 8, 2, 0, 0, 0))
    with open(path, "wb") as fh:
        fh.write(imageio.PNG_SIGNATURE + ihdr + struct.pack(">I", 64 << 20) + b"IDAT")
        fh.seek(64 << 20, os.SEEK_CUR)
        fh.write(bytes(4) + _chunk(b"IEND", b""))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFile, match="more than the"):
            imageio.read_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _split_idat_png(rgb: np.ndarray, size: int) -> bytes:
    """An 8-bit RGB PNG of ``rgb`` whose deflate stream is cut into IDAT
    chunks of ``size`` bytes."""
    rows = np.concatenate([np.zeros((len(rgb), 1), np.uint8), rgb.reshape(len(rgb), -1)], axis=1)
    stream = zlib.compress(rows.tobytes(), 1)
    ihdr = struct.pack(">IIBBBBB", rgb.shape[1], rgb.shape[0], 8, 2, 0, 0, 0)
    idats = (_chunk(b"IDAT", stream[i : i + size]) for i in range(0, len(stream), size))
    return imageio.PNG_SIGNATURE + _chunk(b"IHDR", ihdr) + b"".join(idats) + _chunk(b"IEND", b"")


def test_png_read_inflates_each_idat_payload_as_it_comes(tmp_path):
    # the payloads are not joined first: a read holds the file, the inflated
    # rows and the image, not a second copy of the compressed stream
    rgb = np.random.default_rng(0).integers(0, 256, (1080, 1920, 3), dtype=np.uint8)
    path = _png_file(tmp_path, _split_idat_png(rgb, 64 << 10))
    tracemalloc.start()
    try:
        decoded = imageio.read_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded, rgb)
    assert peak < 3.5 * rgb.nbytes
    small = rgb[:5, :7]
    for size in (1, 3, 1 << 20):  # a deflate stream may split anywhere
        assert np.array_equal(imageio.decode_png(_split_idat_png(small, size)), small)


_GOOD_PNG = imageio.encode_png(coordinate_frame(2, 3).data)
_IHDR_END = len(imageio.PNG_SIGNATURE) + 25  # length, type, 13-byte payload, CRC
_MISPLACED_IHDR = {
    # an ancillary chunk before IHDR (PNG spec 5.6: IHDR comes first)
    "chunk-before-ihdr": _GOOD_PNG[:8] + _chunk(b"tEXt", b"k\0v") + _GOOD_PNG[8:],
    # the IHDR twice: even an identical copy breaks the rule
    "second-ihdr": _GOOD_PNG[:_IHDR_END] + _GOOD_PNG[8:_IHDR_END] + _GOOD_PNG[_IHDR_END:],
}


@pytest.mark.parametrize("blob", _MISPLACED_IHDR.values(), ids=_MISPLACED_IHDR.keys())
@pytest.mark.parametrize("read", [
    lambda blob, path: imageio.decode_png(blob),
    lambda blob, path: imageio.read_image(path),
    lambda blob, path: load_image(path),
], ids=["decode_png", "read_image", "load_image"])
def test_png_ihdr_must_be_the_first_and_only_ihdr(tmp_path, blob, read):
    assert np.array_equal(imageio.decode_png(_GOOD_PNG), coordinate_frame(2, 3).data)
    with pytest.raises(CorruptFile, match="IHDR"):
        read(blob, _png_file(tmp_path, blob))


def test_png_pixel_cap_admits_8k_uhd(tmp_path):
    width, height = 7680, 4320
    assert width * height <= imageio.MAX_PIXELS < 8192 * 4097
    rows = bytes(height * (width * 3 + 1))  # filter 0, black
    blob = _raw_png(width, height, 8, 2, b"", idat=zlib.compress(rows, 1))
    del rows
    assert imageio.probe_image(_png_file(tmp_path, blob)) == (height, width)
    arr = imageio.decode_png(blob)
    assert arr.shape == (height, width, 3) and not arr.any()
    with pytest.raises(CorruptFile, match="more than the"):
        imageio.probe_image(_png_file(tmp_path, _raw_png(8192, 4097, 8, 2, b"")))


def test_ppm_pixel_cap_admits_8k_uhd(tmp_path):
    width, height = 7680, 4320
    assert width * height <= imageio.MAX_PIXELS < 8192 * 4097
    path = sparse_ppm(tmp_path / "img.ppm", width, height)
    assert imageio.probe_image(path) == (height, width)
    rows = imageio.read_image(path, np.array([0, height - 1]))
    assert rows.shape == (2, width, 3) and not rows.any()
    over = sparse_ppm(tmp_path / "over.ppm", 8193, 4097)
    for read in (imageio.probe_image, imageio.read_image):
        with pytest.raises(CorruptFile, match="PPM declares 8193x4097 pixels, more than the"):
            read(over)
    # the cap holds before the raster's length is checked
    with pytest.raises(CorruptFile, match="more than the"):
        imageio.decode_ppm(b"P6\n8193 4097\n255\n")


def test_png_probe_checks_ihdr_but_not_pixel_data(tmp_path):
    good = imageio.encode_png(coordinate_frame(6, 9).data)
    assert imageio.probe_image(_png_file(tmp_path, good)) == (6, 9)
    idat = good.index(b"IDAT") + 8
    corrupt_pixels = good[:idat] + bytes([good[idat] ^ 0xFF]) + good[idat + 1 :]
    assert imageio.probe_image(_png_file(tmp_path, corrupt_pixels)) == (6, 9)
    with pytest.raises(CorruptFile):
        imageio.read_image(tmp_path / "img.png")
    ihdr = len(imageio.PNG_SIGNATURE) + 8
    for blob, error in (
        (good[:ihdr] + b"\xff" + good[ihdr + 1 :], CorruptFile),  # IHDR CRC
        (good[:ihdr - 5] + b"\x0e" + good[ihdr - 4 :], CorruptFile),  # IHDR length
        (good[:20], CorruptFile),
        (_raw_png(1, 1, 8, 3, b"\x00\x00"), UnsupportedFormat),
        (_raw_png(0, 1, 8, 2, b"\x00"), CorruptFile),
        (_MISPLACED_IHDR["chunk-before-ihdr"], CorruptFile),
    ):
        with pytest.raises(error):
            imageio.probe_image(_png_file(tmp_path, blob))


# ---------------------------------------------------------------------------
# PGM + dispatch


def test_pgm_golden_bytes():
    gray = np.array([[0, 128], [255, 7]], dtype=np.uint8)
    assert imageio.encode_pgm(gray) == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])


def test_dispatch_and_file_io(tmp_path):
    arr = coordinate_frame(6, 9).data
    png = tmp_path / "img.png"
    ppm = tmp_path / "img.ppm"
    imageio.write_image(png, arr)
    imageio.write_image(ppm, arr)
    assert np.array_equal(imageio.read_image(png), arr)
    assert np.array_equal(imageio.read_image(ppm), arr)
    gif = tmp_path / "img.gif"
    gif.write_bytes(b"GIF89a...")
    with pytest.raises(UnsupportedFormat):
        imageio.read_image(gif)
    with pytest.raises(UnsupportedFormat):
        imageio.write_image(tmp_path / "img.bmp", arr)
