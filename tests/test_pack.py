import ast
import errno
import os
import resource
import signal
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sama.pack
import sama.pyramid
from sama import bench, imageio, masks
from sama.errors import CorruptFile, DimMismatch, UnsupportedFormat
from sama.media import (
    PROVENANCE_DTYPE, FrameBuffer, MediaClip, SamplerConfig, load_clip, select_frames,
)
from sama.pack import (
    SPATIAL_CODES,
    TEMPORAL_CODES,
    SampledTensor,
    container_bytes,
    parse_container,
    provenance_audit,
    read_container,
    render_preview,
    scale_palette,
    write_container,
)
from sama.pipeline import sample_image, sample_video
from sama.pyramid import PyramidLevel, build_pyramid

from conftest import coordinate_clip, coordinate_frame, write_clip

FIXED_HEADER_BYTES = 33  # magic..schedule_len (32) + flags byte, empty schedule


def _tiny_tensor(side=8):
    data = coordinate_frame(side, side).data[None]
    prov = np.zeros((1, side, side), dtype=PROVENANCE_DTYPE)
    prov["y"] = np.arange(side)[:, None]
    prov["x"] = np.arange(side)[None, :]
    return SampledTensor(kind="image", data=data, n_scales=1, provenance=prov)


def _video_tensor():
    res = sample_video(
        coordinate_clip(240, 300, 5),
        SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=3),
    )
    return res


# ---------------------------------------------------------------------------
# Container format


def test_container_size_arithmetic():
    # 8x8 image: header + 192 payload bytes + 11 bytes/pixel provenance
    assert len(container_bytes(_tiny_tensor())) == FIXED_HEADER_BYTES + 8 * 8 * 3 + 8 * 8 * 11


@pytest.mark.parametrize("case", ["image", "video"])
def test_written_file_is_container_bytes(tmp_path, case):
    if case == "image":
        t = sample_image(coordinate_frame(300, 320), SamplerConfig.iqa_default()).tensor
    else:
        t = _video_tensor().tensor
    path = tmp_path / "t.sama"
    write_container(t, path)
    assert path.read_bytes() == container_bytes(t)


def test_read_container_arrays_are_views_of_one_read(tmp_path):
    t = _video_tensor().tensor
    path = tmp_path / "t.sama"
    write_container(t, path)
    back = read_container(path)
    # one buffer in file order: the provenance starts where the pixels end
    start = back.data.__array_interface__["data"][0]
    assert back.provenance.__array_interface__["data"][0] == start + back.data.nbytes
    assert back.data.flags.writeable
    parsed = parse_container(path.read_bytes())
    assert not parsed.data.flags.writeable  # views of the bytes given
    assert np.array_equal(parsed.provenance, t.provenance)


def test_roundtrip_image(tmp_path):
    t = _tiny_tensor()
    path = tmp_path / "img.sama"
    write_container(t, path)
    back = read_container(path)
    assert back.kind == "image"
    assert np.array_equal(back.data, t.data)
    assert np.array_equal(back.provenance, t.provenance)


def test_roundtrip_video_with_schedule(tmp_path):
    res = _video_tensor()
    path = tmp_path / "vid.sama"
    write_container(res.tensor, path)
    back = read_container(path)
    assert back.kind == "video"
    assert back.schedule == res.tensor.schedule == (0, 1, 2, 3)
    assert back.n_scales == 4
    assert back.temporal_mask == "progressive"
    assert back.seed == 3
    assert np.array_equal(back.data, res.tensor.data)
    assert np.array_equal(back.provenance, res.tensor.provenance)


def test_write_is_byte_deterministic(tmp_path):
    res = _video_tensor()
    a, b = tmp_path / "a.sama", tmp_path / "b.sama"
    write_container(res.tensor, a)
    write_container(res.tensor, b)
    assert a.read_bytes() == b.read_bytes()


def test_corrupt_magic():
    blob = bytearray(container_bytes(_tiny_tensor()))
    blob[:4] = b"WHAT"
    with pytest.raises(UnsupportedFormat):
        parse_container(bytes(blob))


def test_future_version_rejected():
    blob = bytearray(container_bytes(_tiny_tensor()))
    blob[4] = 2  # version u16 LE low byte
    with pytest.raises(UnsupportedFormat):
        parse_container(bytes(blob))


def test_truncated_container():
    blob = container_bytes(_tiny_tensor())
    for cut in (10, FIXED_HEADER_BYTES + 5, len(blob) - 1):
        with pytest.raises(CorruptFile):
            parse_container(blob[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(CorruptFile):
        parse_container(container_bytes(_tiny_tensor()) + b"junk")


def _with_flags(flags: int) -> bytes:
    blob = bytearray(container_bytes(_tiny_tensor()))
    blob[FIXED_HEADER_BYTES - 1] = flags  # the flags byte ends the header
    return bytes(blob)


@pytest.mark.parametrize("head, error, match", [
    (b"not a container", UnsupportedFormat, "bad container magic"),
    (container_bytes(_tiny_tensor()), CorruptFile, f"{64 << 20} trailing bytes"),
    (_with_flags(0x00), UnsupportedFormat, "container flags 0x00 not supported"),
    (_with_flags(0x02), UnsupportedFormat, "container flags 0x02 not supported"),
], ids=["not-a-container", "trailing-bytes", "flags-0x00", "flags-0x02"])
def test_read_container_checks_the_header_and_length_before_the_payload(
    tmp_path, head, error, match
):
    path = tmp_path / "big.sama"
    with open(path, "wb") as fh:  # 64 MiB of zeros after the head, as a hole
        fh.write(head)
        fh.truncate(len(head) + (64 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            read_container(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("flags", [0x00, 0x02, 0x03, 0xFF])
def test_parse_container_accepts_only_the_provenance_flag(flags):
    with pytest.raises(UnsupportedFormat, match=f"container flags 0x{flags:02x} not supported"):
        parse_container(_with_flags(flags))


def test_no_partial_file_on_failure(tmp_path):
    target = tmp_path / "missing_dir" / "out.sama"
    with pytest.raises(OSError):
        write_container(_tiny_tensor(), target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # no stray temp files either


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_container_mode_is_0666_less_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        write_container(_tiny_tensor(), tmp_path / "a.sama")
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "a.sama").stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["a.sama"]


class _WriteLog:
    """A file object that logs each write to ``events`` before making it."""

    def __init__(self, fh, events):
        self._fh, self._events = fh, events

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def fileno(self):
        return self._fh.fileno()

    def write(self, buf):
        self._events.append(("write", memoryview(buf).nbytes))
        return self._fh.write(buf)


def test_temp_file_is_allocated_to_the_declared_length_before_any_write(
    tmp_path, monkeypatch
):
    t = _video_tensor().tensor
    events = []
    real_fallocate, real_fdopen = os.posix_fallocate, os.fdopen

    def fallocate(fd, offset, length):
        events.append(("fallocate", offset, length))
        real_fallocate(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", fallocate)
    monkeypatch.setattr(os, "fdopen", lambda *a: _WriteLog(real_fdopen(*a), events))
    write_container(t, tmp_path / "t.sama")
    assert events[0] == ("fallocate", 0, len(container_bytes(t)))
    writes = events[1:]  # one fallocate, and it came first
    assert all(kind == "write" for kind, _ in writes)
    assert sum(n for _, n in writes) == len(container_bytes(t))


def test_written_file_has_exactly_the_declared_length(tmp_path):
    t = _video_tensor().tensor
    path = tmp_path / "t.sama"
    write_container(t, path)
    assert path.stat().st_size == len(container_bytes(t))
    assert np.array_equal(read_container(path).provenance, t.provenance)


def _fallocate_fails(code):
    def fallocate(fd, offset, length):
        raise OSError(code, os.strerror(code))

    return fallocate


@pytest.mark.parametrize("code", ["EOPNOTSUPP", "EINVAL", None])
def test_a_refused_or_missing_fallocate_writes_the_same_bytes(tmp_path, monkeypatch, code):
    if code is None:  # a platform without it
        monkeypatch.delattr(os, "posix_fallocate")
    else:
        monkeypatch.setattr(os, "posix_fallocate", _fallocate_fails(getattr(errno, code)))
    t = _video_tensor().tensor
    write_container(t, tmp_path / "t.sama")
    assert (tmp_path / "t.sama").read_bytes() == container_bytes(t)
    assert [p.name for p in tmp_path.iterdir()] == ["t.sama"]


def test_a_full_disk_raises_and_keeps_the_previous_container(tmp_path, monkeypatch):
    path = tmp_path / "t.sama"
    write_container(_tiny_tensor(), path)
    before = path.read_bytes()
    monkeypatch.setattr(os, "posix_fallocate", _fallocate_fails(errno.ENOSPC))
    with pytest.raises(OSError) as info:
        write_container(_video_tensor().tensor, path)
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.sama"]  # no *.tmp


def test_a_file_size_limit_exits_2_and_keeps_the_previous_container(tmp_path):
    src = tmp_path / "in.ppm"
    src.write_bytes(imageio.encode_ppm(coordinate_frame(300, 320).data))
    out = tmp_path / "out.sama"
    write_container(_tiny_tensor(), out)
    before = out.read_bytes()

    def limit_file_size():  # in the child only
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024, 64 * 1024))

    proc = subprocess.run(
        [sys.executable, "-m", "sama.cli", "sample-image", str(src), "--out", str(out)],
        capture_output=True, text=True, preexec_fn=limit_file_size,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 2, proc.stderr
    assert "i/o error" in proc.stderr
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ppm", "out.sama"]


def test_container_codes_name_exactly_the_mask_kinds():
    assert SPATIAL_CODES.keys() == set(masks.SPATIAL_KINDS)
    assert TEMPORAL_CODES.keys() == set(masks.TEMPORAL_KINDS)


def test_tensor_validation():
    with pytest.raises(ValueError):
        SampledTensor(
            kind="image",
            data=np.zeros((2, 4, 4, 3), dtype=np.uint8),
            provenance=np.zeros((2, 4, 4), dtype=PROVENANCE_DTYPE),
        )
    with pytest.raises(DimMismatch):
        SampledTensor(
            kind="image",
            data=np.zeros((1, 4, 4, 3), dtype=np.uint8),
            provenance=np.zeros((1, 4, 5), dtype=PROVENANCE_DTYPE),
        )


# ---------------------------------------------------------------------------
# Stored tensors: read_container reads the header, the payload on demand


_STORED_CASES = {
    "image": lambda: sample_image(coordinate_frame(300, 320), SamplerConfig.iqa_default()),
    "video": _video_tensor,
    "patch-video": lambda: sample_video(
        coordinate_clip(240, 300, 5), SamplerConfig(frames_out=8, n_scales=4, spatial_mask="patch")
    ),
}


@pytest.mark.parametrize("case", sorted(_STORED_CASES))
def test_a_stored_frame_equals_the_parsed_file(tmp_path, case):
    path = tmp_path / "t.sama"
    write_container(_STORED_CASES[case]().tensor, path)
    stored = read_container(path)
    parsed = parse_container(path.read_bytes())
    assert stored.dims == parsed.dims
    for f in range(parsed.frames_out):
        pixels, records = stored.frame(f)
        assert pixels.shape == parsed.data.shape[1:] and records.dtype == PROVENANCE_DTYPE
        assert np.array_equal(pixels, parsed.data[f])
        assert np.array_equal(records, parsed.provenance[f])
        assert np.array_equal(stored.records(f), parsed.records(f))
        y, x = f % parsed.height, (7 * f) % parsed.width
        assert stored.provenance_at(f, y, x) == parsed.provenance_at(f, y, x)
    assert np.array_equal(stored.frame(-1)[0], parsed.data[-1])
    with pytest.raises(IndexError):
        stored.frame(parsed.frames_out)
    assert stored.scale_shares() == parsed.scale_shares()
    assert np.array_equal(stored.data, parsed.data)
    assert np.array_equal(stored.provenance, parsed.provenance)


def test_a_header_and_every_frame_read_each_byte_of_the_file_once(tmp_path, monkeypatch):
    t = _video_tensor().tensor
    path = tmp_path / "t.sama"
    write_container(t, path)
    spans = []  # (offset, bytes read)
    real_pread, real_preadv = os.pread, os.preadv

    def pread(fd, n, offset):
        out = real_pread(fd, n, offset)
        spans.append((offset, len(out)))
        return out

    def preadv(fd, buffers, offset):
        n = real_preadv(fd, buffers, offset)
        spans.append((offset, n))
        return n

    monkeypatch.setattr(os, "pread", pread)
    monkeypatch.setattr(os, "preadv", preadv)
    stored = read_container(path)
    assert sum(n for _, n in spans) == FIXED_HEADER_BYTES + len(t.schedule)
    for f in range(stored.frames_out):
        stored.frame(f)
    assert len(spans) == 2 + 2 * stored.frames_out  # one read each of pixels and records
    end = 0
    for offset, n in sorted(spans):
        assert offset == end
        end += n
    assert end == path.stat().st_size


def test_scale_shares_of_a_stored_tensor_reads_just_its_records(tmp_path, monkeypatch):
    """8 output frames of 224x224 records are 4,415,488 bytes; the
    1,204,224 bytes of their pixels are not read."""
    t = _video_tensor().tensor
    path = tmp_path / "t.sama"
    write_container(t, path)
    stored = read_container(path)
    assert stored.dims == (8, 224, 224)
    read = []
    real_preadv = os.preadv

    def preadv(fd, buffers, offset):
        n = real_preadv(fd, buffers, offset)
        read.append(n)
        return n

    monkeypatch.setattr(os, "preadv", preadv)
    assert stored.scale_shares() == t.scale_shares()
    assert sum(read) == 4_415_488


def test_a_stored_tensor_sees_its_file_changed_in_place_but_not_its_path_replaced(tmp_path):
    path = tmp_path / "t.sama"
    first = _tiny_tensor()
    write_container(first, path)
    stored = read_container(path)
    with open(path, "r+b") as fh:  # flip the first pixel byte in place
        fh.seek(FIXED_HEADER_BYTES)
        fh.write(bytes([first.data[0, 0, 0, 0] ^ 0xFF]))
    assert stored.frame(0)[0][0, 0, 0] == first.data[0, 0, 0, 0] ^ 0xFF
    changed = parse_container(path.read_bytes())
    second = SampledTensor(kind="image", data=255 - first.data, provenance=first.provenance)
    write_container(second, path)
    assert np.array_equal(stored.frame(0)[0], changed.data[0])
    assert np.array_equal(stored.data, changed.data)
    assert np.array_equal(read_container(path).data, second.data)


@pytest.mark.parametrize("read", ["frame", "data", "provenance", "provenance_at"])
def test_a_file_cut_short_after_it_was_opened_is_corrupt(tmp_path, read):
    path = tmp_path / "t.sama"
    write_container(_video_tensor().tensor, path)
    stored = read_container(path)
    os.truncate(path, path.stat().st_size - 1)
    last = stored.frames_out - 1
    with pytest.raises(CorruptFile, match="shorter than its header declares"):
        if read == "frame":
            stored.frame(last)
        elif read == "provenance_at":
            stored.provenance_at(last, stored.height - 1, stored.width - 1)
        else:
            getattr(stored, read)


def test_a_stored_tensor_closes_its_file_when_collected(tmp_path):
    path = tmp_path / "t.sama"
    write_container(_tiny_tensor(), path)
    stored = read_container(path)
    fd = stored._fd
    os.fstat(fd)  # open
    del stored
    with pytest.raises(OSError):
        os.fstat(fd)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files from /proc")
def test_a_rejected_header_leaves_no_file_open(tmp_path):
    path = tmp_path / "t.sama"
    path.write_bytes(_with_flags(0x02))
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with pytest.raises(UnsupportedFormat):
            read_container(path)
    assert len(os.listdir("/proc/self/fd")) == before


# ---------------------------------------------------------------------------
# Previews


def test_preview_plain_is_identity():
    res = _video_tensor()
    frames = render_preview(res.tensor, "plain")
    assert len(frames) == 8
    for f, frame in enumerate(frames):
        assert np.array_equal(frame.data, res.tensor.data[f])


def test_preview_tinted_uniform_for_single_scale():
    t = _tiny_tensor()
    t.data[:] = 100
    (frame,) = render_preview(t, "tinted")
    palette = scale_palette(1)
    expected = (3 * 100 + palette[0].astype(int) + 2) // 4
    assert (frame.data == expected.astype(np.uint8)).all()


def test_preview_bordered_checkerboard_counts():
    res = sample_image(coordinate_frame(600, 900), SamplerConfig.iqa_default())
    (frame,) = render_preview(res.tensor, "bordered", 8, 8)
    palette = scale_palette(2)
    corners = frame.data[::32, ::32]  # top-left border pixel of each cell
    count0 = int((corners == palette[0]).all(axis=-1).sum())
    count1 = int((corners == palette[1]).all(axis=-1).sum())
    assert {count0, count1} == {32, 32}  # 8x8 IQA grid splits evenly
    vqa = SamplerConfig.iqa_default(grid_rows=7, grid_cols=7)  # 224x224, 7x7
    res7 = sample_image(coordinate_frame(600, 900), vqa)
    (frame7,) = render_preview(res7.tensor, "bordered", 7, 7)
    corners7 = frame7.data[::32, ::32]
    c0 = int((corners7 == palette[0]).all(axis=-1).sum())
    c1 = int((corners7 == palette[1]).all(axis=-1).sum())
    assert (c0, c1) == (25, 24)



def _bordered_per_cell(t, grid_rows, grid_cols):
    """The bordered preview as four painted slices per cell per frame."""
    palette = scale_palette(t.n_scales)
    ch, cw = t.height // grid_rows, t.width // grid_cols
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
        frames.append(img)
    return frames


_BORDERED_CASES = {
    "iqa": lambda: sample_image(coordinate_frame(300, 400), SamplerConfig.iqa_default()),
    "patch-video": lambda: sample_video(
        coordinate_clip(240, 300, 3),
        SamplerConfig(frames_out=4, n_scales=4, spatial_mask="patch", temporal_mask="choppy"),
    ),
}


@pytest.mark.parametrize("case", sorted(_BORDERED_CASES))
def test_preview_bordered_equals_the_per_cell_painting(case):
    res = _BORDERED_CASES[case]()
    cfg = res.plan.config
    for grid in ((1, 1), (2, 2), (cfg.grid_rows, cfg.grid_cols)):
        frames = render_preview(res.tensor, "bordered", *grid)
        expected = _bordered_per_cell(res.tensor, *grid)
        assert len(frames) == len(expected) == res.tensor.frames_out
        for frame, want in zip(frames, expected):
            assert frame.data.dtype == np.uint8 and np.array_equal(frame.data, want), grid


# ---------------------------------------------------------------------------
# Audit


def test_audit_fresh_tensor_clean():
    res = _video_tensor()
    report = provenance_audit(res.tensor, res.pyramid)
    assert report.ok and report.mismatches == 0
    assert report.total_pixels == 8 * 224 * 224
    assert sum(res.tensor.scale_shares().values()) == pytest.approx(1)


def test_audit_counts_single_corrupt_pixel():
    res = _video_tensor()
    res.tensor.data[3, 17, 41, 1] ^= 0x55
    report = provenance_audit(res.tensor, res.pyramid)
    assert report.mismatches == 1


def test_audit_progressive_shares():
    clip = coordinate_clip(230, 230, 4)
    res = sample_video(clip, SamplerConfig())  # T=32, 16 scales
    report = provenance_audit(res.tensor, res.pyramid)
    assert report.ok
    shares = res.tensor.scale_shares()
    assert set(shares) == set(range(16))
    for share in shares.values():
        assert share == pytest.approx(2 / 32)


def test_scale_shares_match_unique_counts_over_gapped_ids():
    t = _tiny_tensor(side=16)
    scales = np.random.default_rng(5).choice([0, 3, 4, 9, 255], size=(1, 16, 16))
    scales[0, 0, :3] = 255  # the top id, present at least once
    t.provenance["scale"] = scales
    ids, counts = np.unique(t.provenance["scale"], return_counts=True)
    expected = {int(s): int(c) / t.provenance.size for s, c in zip(ids, counts)}
    shares = t.scale_shares()
    assert list(shares) == [0, 3, 4, 9, 255]
    assert shares == expected
    assert all(type(k) is int and type(v) is float for k, v in shares.items())


def _one_pixel_case(value):
    """A 3x3 source, a 2x2 level, and one output pixel that records level
    pixel (y=1, x=0)."""
    src = np.zeros((3, 3, 3), dtype=np.uint8)
    src[1, 0] = (100, 0, 7)
    src[1, 1] = (200, 0, 7)
    src[2, 0] = (0, 2, 7)
    src[2, 1] = (40, 2, 7)
    clip = MediaClip((FrameBuffer(src),))
    pyramid = [PyramidLevel(0, clip, 3, 3), PyramidLevel(1, clip, 2, 2)]
    prov = np.zeros((1, 1, 1), dtype=PROVENANCE_DTYPE)
    prov["scale"], prov["y"], prov["x"] = 1, 1, 0
    data = np.array(value, dtype=np.uint8).reshape(1, 1, 1, 3)
    return SampledTensor(kind="image", data=data, n_scales=2, provenance=prov), pyramid


def test_audit_oracle_hand_worked_pixel():
    # Level row 1 of 2 over 3 source rows: centre 1.5 * 1.5 - 0.5 = 1.75, so
    # rows 1 and 2 with weight 0.75 on row 2. Level column 0: centre
    # 0.5 * 1.5 - 0.5 = 0.25, so columns 0 and 1 with weight 0.25 on column 1.
    # Channel 0: top 100 + 0.25 * 100 = 125, bottom 0 + 0.25 * 40 = 10,
    # 125 + 0.75 * (10 - 125) = 38.75 -> 39. Channel 1: top 0, bottom 2,
    # 1.5 -> 2 (half rounds up). Channel 2: constant 7.
    expected = (39, 2, 7)
    t, pyramid = _one_pixel_case(expected)
    report = provenance_audit(t, pyramid)
    assert report.ok and report.total_pixels == 1
    assert t.scale_shares() == {1: 1.0}
    for channel in range(3):
        for delta in (-1, 1):
            off = list(expected)
            off[channel] += delta
            t, pyramid = _one_pixel_case(off)
            assert provenance_audit(t, pyramid).mismatches == 1


def _truncating_lerp(p00, p01, p10, p11, fy, fx):
    top = p00 + fx * (p01 - p00)
    bot = p10 + fx * (p11 - p10)
    val = top + fy * (bot - top)
    return np.floor(val).clip(0, 255).astype(np.uint8)


def test_audit_catches_an_interpolation_fault(monkeypatch):
    """A resize that truncates instead of rounding must not audit clean."""
    monkeypatch.setattr(sama.pyramid, "_lerp_core", _truncating_lerp)
    clip = bench.synthetic_clip(240, 320, 6, seed=12)
    cfg = SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=9)
    res = sample_video(clip, cfg)
    assert provenance_audit(res.tensor, res.pyramid).mismatches > 0


# A clip below the coarsest level's min side (224): every level is larger
# than its frames and taps them directly, with no upscale stage between.
_SMALL_CLIP = bench.synthetic_clip(150, 170, 5, seed=3)
_SMALL_CFG = SamplerConfig(frames_out=8, n_scales=4)


def test_audit_of_an_upscaled_clip_checks_against_the_raw_frames(monkeypatch):
    """The audit re-derives a level larger than its source from the raw
    frame, so a fault in the sampler's blend active throughout the run
    still shows up as mismatches."""
    monkeypatch.setattr(sama.pyramid, "_lerp_core", _truncating_lerp)
    res = sample_video(_SMALL_CLIP, _SMALL_CFG)
    assert (res.pyramid[0].height, res.pyramid[0].width) == (224, 254)
    assert provenance_audit(res.tensor, res.pyramid).mismatches > 0


def test_sampling_and_auditing_an_upscaled_clip_resize_no_frame(monkeypatch):
    calls = []
    real = sama.pyramid.resize_rgb

    def spy(src, out_h, out_w):
        calls.append((src.shape, out_h, out_w))
        return real(src, out_h, out_w)

    monkeypatch.setattr(sama.pyramid, "resize_rgb", spy)
    res = sample_video(_SMALL_CLIP, _SMALL_CFG)
    assert provenance_audit(res.tensor, res.pyramid).ok
    assert calls == []
    assert all((lvl.sources.height, lvl.sources.width) == (150, 170) for lvl in res.pyramid)


def test_audit_shares_no_code_with_the_resize_path():
    tree = ast.parse(Path(sama.pack.__file__).read_text())
    from_pyramid = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pyramid"
        for alias in node.names
    }
    assert from_pyramid == {"PyramidLevel"}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    resize_code = {
        "_axis_taps", "_lerp_core", "_lerp_gather",
        "resize_rgb", "resize_rect", "pixel_taps", "gather_taps",
    }
    assert not (attrs | names) & resize_code
    # PyramidLevel's; ``frame`` is also the tensor's own, read as t.frame or self.frame
    levels = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("t", "self"))
    }
    assert not levels & {"frame", "frames", "rect", "_sources"}


def test_audit_of_a_lazy_pyramid_reads_each_recorded_frame_once(tmp_path, alive_at_read):
    write_clip(tmp_path / "clip", 16, 240, 300)
    cfg = SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=4)
    res = sample_video(load_clip(tmp_path / "clip"), cfg)
    pyramid = build_pyramid(select_frames(load_clip(tmp_path / "clip"), 8, 4, "random"), cfg)
    del alive_at_read[:]
    report = provenance_audit(res.tensor, pyramid)
    assert report.ok and report.total_pixels == 8 * 224 * 224
    assert len(alive_at_read) == 8  # one recorded frame per output frame
    assert max(alive_at_read) <= 1


def test_audit_reads_each_distinct_source_once(tmp_path, reads):
    # 32 output frames from a 5-frame clip repeat each source frame
    write_clip(tmp_path / "clip", 5, 240, 320)
    cfg = SamplerConfig.vqa_default()
    res = sample_video(load_clip(tmp_path / "clip"), cfg)
    assert len(reads) == 5
    del reads[:]
    report = provenance_audit(res.tensor, res.pyramid)
    assert report.ok and report.total_pixels == 32 * 224 * 224
    assert len(reads) == len({name for name, _ in reads}) == 5


def test_provenance_entry_lookup():
    res = _video_tensor()
    entry = res.tensor.provenance_at(3, 10, 20)
    level = res.pyramid[entry.scale_id]
    assert entry.src_frame == 3  # temporal masks preserve frame indices
    assert (
        level.frame(entry.src_frame)[entry.src_y, entry.src_x]
        == res.tensor.data[3, 10, 20]
    ).all()
