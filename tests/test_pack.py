import ast
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import sama.pack
import sama.pyramid
from sama import bench, masks
from sama.errors import CorruptFile, DimMismatch, MissingProvenance, UnsupportedFormat
from sama.media import PROVENANCE_DTYPE, SamplerConfig, load_clip, select_frames
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


def _tiny_tensor(with_prov=True, side=8):
    data = coordinate_frame(side, side).data[None]
    prov = None
    if with_prov:
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
    # 8x8 image: header + 192 payload bytes, + 11 bytes/pixel provenance
    bare = container_bytes(_tiny_tensor(with_prov=False))
    assert len(bare) == FIXED_HEADER_BYTES + 8 * 8 * 3
    full = container_bytes(_tiny_tensor(with_prov=True))
    assert len(full) == FIXED_HEADER_BYTES + 8 * 8 * 3 + 8 * 8 * 11


@pytest.mark.parametrize("case", ["image", "video", "no provenance"])
def test_written_file_is_container_bytes(tmp_path, case):
    if case == "image":
        t = sample_image(coordinate_frame(300, 320), SamplerConfig.iqa_default()).tensor
    elif case == "video":
        t = _video_tensor().tensor
    else:
        t = _tiny_tensor(with_prov=False)
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


def test_container_codes_name_exactly_the_mask_kinds():
    assert SPATIAL_CODES.keys() == set(masks.SPATIAL_KINDS)
    assert TEMPORAL_CODES.keys() == set(masks.TEMPORAL_KINDS)


def test_tensor_validation():
    with pytest.raises(ValueError):
        SampledTensor(kind="image", data=np.zeros((2, 4, 4, 3), dtype=np.uint8))
    with pytest.raises(DimMismatch):
        SampledTensor(
            kind="image",
            data=np.zeros((1, 4, 4, 3), dtype=np.uint8),
            provenance=np.zeros((1, 4, 5), dtype=PROVENANCE_DTYPE),
        )


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


def test_preview_tinted_needs_provenance():
    with pytest.raises(MissingProvenance):
        render_preview(_tiny_tensor(with_prov=False), "tinted")


def test_preview_bordered_checkerboard_counts():
    res = sample_image(coordinate_frame(600, 900), SamplerConfig.iqa_default())
    (frame,) = render_preview(res.tensor, "bordered")
    palette = scale_palette(2)
    corners = frame.data[::32, ::32]  # top-left border pixel of each cell
    count0 = int((corners == palette[0]).all(axis=-1).sum())
    count1 = int((corners == palette[1]).all(axis=-1).sum())
    assert {count0, count1} == {32, 32}  # 8x8 IQA grid splits evenly
    vqa = SamplerConfig.iqa_default(grid_rows=7, grid_cols=7)  # 224x224, 7x7
    res7 = sample_image(coordinate_frame(600, 900), vqa)
    (frame7,) = render_preview(res7.tensor, "bordered")
    corners7 = frame7.data[::32, ::32]
    c0 = int((corners7 == palette[0]).all(axis=-1).sum())
    c1 = int((corners7 == palette[1]).all(axis=-1).sum())
    assert (c0, c1) == (25, 24)


# ---------------------------------------------------------------------------
# Audit


def test_audit_fresh_tensor_clean():
    res = _video_tensor()
    report = provenance_audit(res.tensor, res.pyramid)
    assert report.ok and report.mismatches == 0
    assert report.total_pixels == 8 * 224 * 224
    assert sum(report.per_scale_pixels.values()) == report.total_pixels


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
    assert set(report.per_scale_shares) == set(range(16))
    for share in report.per_scale_shares.values():
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
    pyramid = [PyramidLevel(0, [src], 3, 3), PyramidLevel(1, [src], 2, 2)]
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
    assert report.per_scale_pixels == {1: 1}
    for channel in range(3):
        for delta in (-1, 1):
            off = list(expected)
            off[channel] += delta
            t, pyramid = _one_pixel_case(off)
            assert provenance_audit(t, pyramid).mismatches == 1


def test_audit_catches_an_interpolation_fault(monkeypatch):
    """A resize that truncates instead of rounding must not audit clean."""

    def truncating_lerp(p00, p01, p10, p11, fy, fx):
        top = p00 + fx * (p01 - p00)
        bot = p10 + fx * (p11 - p10)
        val = top + fy * (bot - top)
        return np.floor(val).clip(0, 255).astype(np.uint8)

    monkeypatch.setattr(sama.pyramid, "_lerp_core", truncating_lerp)
    clip = bench.synthetic_clip(240, 320, 6, seed=12)
    cfg = SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=9)
    res = sample_video(clip, cfg)
    assert provenance_audit(res.tensor, res.pyramid).mismatches > 0


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
    assert not attrs & {"frame", "frames", "rect", "_sources"}  # PyramidLevel's


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


def test_audit_requires_provenance():
    with pytest.raises(MissingProvenance):
        provenance_audit(_tiny_tensor(with_prov=False), [])


def test_provenance_entry_lookup():
    res = _video_tensor()
    entry = res.tensor.provenance_at(3, 10, 20)
    level = res.pyramid[entry.scale_id]
    assert entry.src_frame == 3  # temporal masks preserve frame indices
    assert (
        level.frame(entry.src_frame)[entry.src_y, entry.src_x]
        == res.tensor.data[3, 10, 20]
    ).all()
    with pytest.raises(MissingProvenance):
        _tiny_tensor(with_prov=False).provenance_at(0, 0, 0)
