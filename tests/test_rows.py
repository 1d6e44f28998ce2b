"""Row-set reads: the sampler and the audit read only the source rows their
taps need, the bytes do not move, and a file that changes after listing
fails cleanly."""

import os
import warnings

import numpy as np
import pytest

from sama import imageio
from sama.cli import main
from sama.errors import CorruptFile, MixedDimensions
from sama.media import MediaClip, SamplerConfig, load_clip, load_image, select_frames
from sama.pack import provenance_audit
from sama.pipeline import sample_image, sample_video
from sama.pyramid import build_pyramid

from conftest import coordinate_frame, write_clip


def _ppm(tmp_path, arr, name="a.ppm", head=None):
    path = tmp_path / name
    head = head or b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    path.write_bytes(head + arr.tobytes())
    return path


# ---------------------------------------------------------------------------
# imageio.read_image with a row set


@pytest.mark.parametrize("rows", [
    [0], [5], [0, 1, 2], [0, 2, 4], [0, 5], [0, 6], [1, 2, 9, 10, 11, 30, 38], list(range(40)),
], ids=lambda r: "-".join(map(str, r[:7])))
@pytest.mark.parametrize("suffix", ["ppm", "png"])
def test_read_rows_equal_the_rows_of_the_whole_frame(tmp_path, rows, suffix):
    frame = coordinate_frame(40, 7).data
    path = tmp_path / f"f.{suffix}"
    imageio.write_image(path, frame)
    got = imageio.read_image(path, np.array(rows), dims=(40, 7))
    assert got.shape == (len(rows), 7, 3)
    assert np.array_equal(got, frame[rows])


def test_row_read_takes_more_buffers_than_one_preadv_holds(tmp_path, monkeypatch):
    frame = coordinate_frame(3001, 2).data
    path = _ppm(tmp_path, frame, head=b"P6\n# a comment\n2 3001\n255\n")
    calls = []
    real = os.preadv

    def spy(fd, buffers, offset):
        calls.append(len(buffers))
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", spy)
    rows = np.arange(0, 3001, 2)  # one run: gaps of one row
    assert np.array_equal(imageio.read_image(path, rows), frame[rows])
    assert len(calls) > 1 and max(calls) <= 1024


def test_row_runs_apart_by_more_than_the_gap_are_read_apart(tmp_path, monkeypatch):
    frame = coordinate_frame(64, 5).data
    path = _ppm(tmp_path, frame)
    calls = []
    real = os.preadv

    def spy(fd, buffers, offset):
        calls.append(sum(len(b) for b in buffers) // 15)
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", spy)
    gap = imageio.ROW_GAP
    rows = np.array([3, 4, 4 + gap + 1, 20 + gap + 2])
    assert np.array_equal(imageio.read_image(path, rows), frame[rows])
    assert calls == [gap + 3, 1]  # rows 3..4+gap+1 in one run, then the far row


def test_row_read_checks_the_rows_and_the_dims(tmp_path):
    path = _ppm(tmp_path, coordinate_frame(6, 4).data)
    for rows in ([], [2, 1], [1, 1], [-1], [6]):
        with pytest.raises(ValueError):
            imageio.read_image(path, np.array(rows, dtype=int))
    with pytest.raises(MixedDimensions):
        imageio.read_image(path, [0], dims=(7, 4))


def test_row_read_of_a_truncated_ppm_raises(tmp_path):
    path = _ppm(tmp_path, coordinate_frame(6, 4).data)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CorruptFile, match="truncated"):
        imageio.read_image(path, [0])


def test_a_short_preadv_raises_instead_of_returning_unread_memory(tmp_path, monkeypatch):
    frame = coordinate_frame(6, 4).data
    path = _ppm(tmp_path, frame)
    real = os.preadv

    def shrink_then_read(fd, buffers, offset):
        path.write_bytes(path.read_bytes()[:-12])  # cut after the header check
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", shrink_then_read)
    with pytest.raises(CorruptFile, match="during the read"):
        imageio.read_image(path, [0, 5])


# ---------------------------------------------------------------------------
# The rows the sampler and the audit read


def _tapped(scale, y, pyramid, src_h, src_w, identity_reads_one_row):
    """Source rows behind recorded level rows (scale[k], y[k]), by the
    half-pixel rule: level row y has its centre at (y + 0.5) * src_h / h - 0.5
    in the source, clamped, and reads the rows either side of it."""
    pairs = np.unique(np.stack([scale.astype(np.int64), y.astype(np.int64)]), axis=1)
    rows = set()
    for s, yy in pairs.T.tolist():
        h, w = pyramid[s].height, pyramid[s].width
        if identity_reads_one_row and (h, w) == (src_h, src_w):
            rows.add(yy)  # a level the size of its source: its rows as they are
            continue
        centre = min(max((yy + 0.5) * (src_h / h) - 0.5, 0.0), src_h - 1.0)
        r0 = int(np.floor(centre))
        rows |= {r0, min(r0 + 1, src_h - 1)}
    return sorted(rows)


def _expected_rows(tensor, pyramid, identity_reads_one_row):
    """Per source key, the union of the rows its output frames tap."""
    sources = pyramid[0].sources
    per_key: dict[int, set] = {}
    for t in range(tensor.frames_out):
        prov = tensor.provenance[t].reshape(-1)
        rows = _tapped(
            prov["scale"], prov["y"], pyramid, sources.height, sources.width,
            identity_reads_one_row,
        )
        per_key.setdefault(sources.keys[t], set()).update(rows)
    return {k: sorted(v) for k, v in per_key.items()}


@pytest.mark.parametrize("frames, cfg", [
    (16, SamplerConfig(frames_out=8, n_scales=4)),
    (3, SamplerConfig(frames_out=8, n_scales=4)),  # one source, several level tuples
    (6, SamplerConfig(frames_out=4, temporal_mask="none", spatial_mask="patch", n_scales=2)),
], ids=["progressive", "short", "patch"])
def test_sampler_reads_the_rows_its_plan_taps(tmp_path, reads, frames, cfg):
    paths = write_clip(tmp_path / "clip", frames, 480, 600)
    res = sample_video(load_clip(tmp_path / "clip"), cfg)
    expected = _expected_rows(res.tensor, res.pyramid, identity_reads_one_row=True)
    got = {name: rows for name, rows in reads}
    assert len(got) == len(reads) == len(expected)
    for key, rows in expected.items():
        assert got[paths[key].name].tolist() == rows
    assert min(len(r) for r in expected.values()) < 480  # some rows are never read


def test_audit_reads_only_the_recorded_rows_and_still_finds_faults(tmp_path, reads):
    paths = write_clip(tmp_path / "clip", 12, 270, 400)
    cfg = SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=5)
    res = sample_video(load_clip(tmp_path / "clip"), cfg)

    def audit(tensor):
        pyramid = build_pyramid(select_frames(load_clip(tmp_path / "clip"), 8, 5, "random"), cfg)
        del reads[:]
        return provenance_audit(tensor, pyramid), pyramid

    report, pyramid = audit(res.tensor)
    assert report.ok
    expected = _expected_rows(res.tensor, pyramid, identity_reads_one_row=False)
    assert {name: rows.tolist() for name, rows in reads} == {
        paths[key].name: rows for key, rows in expected.items()
    }

    res.tensor.data[3, 100, 7, 1] ^= 0x01
    level = pyramid[int(res.tensor.provenance[5, 9, 9]["scale"])]
    res.tensor.provenance[5, 9, 9]["y"] = level.height
    report, _ = audit(res.tensor)
    assert report.mismatches == 2


# ---------------------------------------------------------------------------
# Loaded and in-memory clips give the same bytes


def _same_bytes(loaded, in_memory):
    assert np.array_equal(loaded.tensor.data, in_memory.tensor.data)
    assert np.array_equal(loaded.tensor.provenance, in_memory.tensor.provenance)


@pytest.mark.parametrize("suffix, frames, size, cfg", [
    ("ppm", 12, (480, 640), SamplerConfig(frames_out=8, n_scales=4)),
    ("png", 12, (480, 640), SamplerConfig(frames_out=8, n_scales=4)),
    ("ppm", 3, (450, 600), SamplerConfig(frames_out=8, n_scales=4, offset_policy="random")),
    ("ppm", 8, (480, 660), SamplerConfig(
        frames_out=8, n_scales=4, spatial_mask="window", seed=3)),
    ("ppm", 5, (100, 150), SamplerConfig(frames_out=8, n_scales=4)),
], ids=["ppm", "png", "short-repeating", "spatial+temporal", "below-target-min"])
def test_loaded_and_in_memory_clips_give_identical_bytes(tmp_path, reads, suffix, frames, size, cfg):
    paths = write_clip(tmp_path / "clip", frames, *size, suffix=suffix)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "combining spatial and temporal", UserWarning)
        loaded = sample_video(load_clip(tmp_path / "clip"), cfg)
        in_memory = sample_video(MediaClip(tuple(load_image(p) for p in paths)), cfg)
    _same_bytes(loaded, in_memory)
    row_reads = [rows for _, rows in reads[: min(frames, 8)]]
    raw = loaded.pyramid[0]
    if (raw.height, raw.width) != size:
        assert all(rows is None for rows in row_reads)  # the upscale needs every row
    else:
        assert all(rows is not None for rows in row_reads)
        assert any(len(rows) < size[0] for rows in row_reads)


def test_loaded_iqa_image_gives_the_bytes_of_the_image(tmp_path):
    (path,) = write_clip(tmp_path / "clip", 1, 600, 800)
    cfg = SamplerConfig.iqa_default(offset_policy="random", seed=7)
    loaded = sample_video(load_clip(tmp_path / "clip"), cfg)
    _same_bytes(loaded, sample_image(load_image(path), cfg))


# ---------------------------------------------------------------------------
# A frame that changes between listing and sampling


def test_frame_truncated_between_load_and_sample_raises(tmp_path):
    paths = write_clip(tmp_path / "clip", 4, 240, 320)
    clip = load_clip(tmp_path / "clip")
    paths[1].write_bytes(paths[1].read_bytes()[:-100])
    with pytest.raises(CorruptFile, match="PPM raster truncated"):
        sample_video(clip, SamplerConfig(frames_out=4, n_scales=2, temporal_mask="progressive"))


def test_frame_truncated_after_listing_exits_2(tmp_path, monkeypatch, capsys):
    import sama.cli

    paths = write_clip(tmp_path / "clip", 64, 240, 320)
    real = sama.cli.load_clip

    def load_then_truncate(directory):
        clip = real(directory)
        paths[1].write_bytes(paths[1].read_bytes()[:-1])  # the VQA default keeps odd frames
        return clip

    monkeypatch.setattr(sama.cli, "load_clip", load_then_truncate)
    rc = main(["sample-video", str(tmp_path / "clip"), "--out", str(tmp_path / "v.sama")])
    assert rc == 2
    assert "PPM raster truncated" in capsys.readouterr().err


def test_frame_rewritten_to_new_height_after_listing(tmp_path):
    paths = write_clip(tmp_path / "clip", 3, 240, 320)
    clip = load_clip(tmp_path / "clip")
    paths[2].write_bytes(imageio.encode_ppm(coordinate_frame(250, 320).data))
    with pytest.raises(MixedDimensions):
        clip.read(2, np.arange(5))
