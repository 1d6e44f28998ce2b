import importlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import sama.bench
from sama import imageio, pipeline
from sama.cli import main
from sama.masks import SpatialMask
from sama.media import PROVENANCE_DTYPE, SamplerConfig, load_image
from sama.pack import provenance_audit, read_container, render_preview, write_container
from sama.pipeline import sample_image

from conftest import coordinate_clip, coordinate_frame, sparse_ppm, write_clip


@pytest.fixture
def image_file(tmp_path):
    path = tmp_path / "input.ppm"
    path.write_bytes(imageio.encode_ppm(coordinate_frame(512, 640).data))
    return path


@pytest.fixture
def clip_dir(tmp_path):
    d = tmp_path / "clip"
    d.mkdir()
    clip = coordinate_clip(240, 320, 8)
    for i, frame in enumerate(clip.frames):
        (d / f"frame_{i:06d}.ppm").write_bytes(imageio.encode_ppm(frame.data))
    return d


def test_sample_image_defaults(image_file, tmp_path, capsys):
    out = tmp_path / "img.sama"
    assert main(["sample-image", str(image_file), "--out", str(out)]) == 0
    tensor = read_container(out)
    assert tensor.data.shape == (1, 256, 256, 3)
    assert tensor.spatial_mask == "window"
    assert tensor.n_scales == 2
    printed = capsys.readouterr().out
    assert "per-scale pixel shares" in printed
    assert "scale 0" in printed and "scale 1" in printed


def test_sample_image_grid_flags(image_file, tmp_path):
    out = tmp_path / "img.sama"
    rc = main([
        "sample-image", str(image_file),
        "--grid", "7x7", "--frag", "32x32", "--out", str(out),
    ])
    assert rc == 0
    assert read_container(out).data.shape == (1, 224, 224, 3)


def test_sample_image_missing_input(tmp_path):
    out = tmp_path / "img.sama"
    rc = main(["sample-image", str(tmp_path / "nope.png"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_sample_image_preview(image_file, tmp_path):
    out = tmp_path / "img.sama"
    rc = main([
        "sample-image", str(image_file), "--out", str(out), "--preview", "tinted",
    ])
    assert rc == 0
    preview = tmp_path / "img_preview.png"
    assert preview.exists()
    assert imageio.read_image(preview).shape == (256, 256, 3)


def test_config_file_and_flag_precedence(image_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5, "offset_policy": "random"}))
    out = tmp_path / "img.sama"
    rc = main([
        "sample-image", str(image_file), "--config", str(cfg),
        "--seed", "9", "--out", str(out),
    ])
    assert rc == 0
    tensor = read_container(out)
    assert tensor.seed == 9  # flag beats file


def test_config_unknown_key_rejected(image_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid_rowz": 7}))
    rc = main([
        "sample-image", str(image_file), "--config", str(cfg),
        "--out", str(tmp_path / "x.sama"),
    ])
    assert rc == 1


def test_config_wrong_type_rejected(image_file, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": "five"}))
    rc = main([
        "sample-image", str(image_file), "--config", str(cfg),
        "--out", str(tmp_path / "x.sama"),
    ])
    assert rc == 1


@pytest.mark.parametrize("doc, message", [
    ({"seed": "five"}, "config key 'seed' must be int, got str"),
    ({"grid_rows": 7.0}, "config key 'grid_rows' must be int, got float"),
    ({"frames_out": True}, "config key 'frames_out' must be int, got bool"),
    ({"spatial_mask": 2}, "config key 'spatial_mask' must be str, got int"),
    ({"aligned_offsets": 1}, "config key 'aligned_offsets' must be bool, got int"),
    ({"infer": "yes"}, "config key 'infer' must be bool, got str"),
    ({"out": ["x"]}, "config key 'out' must be str, got list"),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_config_type_errors_name_the_expected_type(doc, message, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["sample-video", str(tmp_path), "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("text", [
    b"{not json",
    b"\xff\xfe{}",  # not UTF-8
    b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # nests past the parser's depth
], ids=["not-json", "not-utf8", "deep-nesting"])
def test_config_file_that_cannot_be_read_as_json_is_a_config_error(text, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(text)
    rc = main(["sample-video", str(tmp_path), "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config file is not valid JSON: ")
    assert err.count("\n") == 1


def test_bad_flag_value_is_config_error(image_file, tmp_path):
    rc = main([
        "sample-image", str(image_file), "--spatial-mask", "wat",
        "--out", str(tmp_path / "x.sama"),
    ])
    assert rc == 1


def test_config_bench_reps_is_an_unknown_key(tmp_path, capsys):
    """No command reads a rep count from a config file, so none is accepted."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bench_reps": 3}))
    rc = main(["bench", "--size", "240x320", "--reps", "3", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key 'bench_reps'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--reps", "0"],
    ["bench", "--reps", "-2"],
    ["bench", "--size", "0x0"],
    ["masks", "dump", "--block", "-4", "--scales", "3"],
    ["masks", "dump", "--block", "0", "--scales", "3"],
    ["masks", "dump", "--size", "0x0"],
    ["masks", "dump", "--scales", "5"],
    ["masks", "dump", "--temporal-mask", "progressive", "--frames", "0"],
    ["attn-check", "--seeds", "0"],
    ["verify", "--seeds", "0"],
    ["verify", "--seed-replay", "0"],
    ["verify", "--seed-replay", "1"],
], ids="_".join)
def test_count_and_size_flags_below_one_are_config_errors(argv, tmp_path, capsys):
    if argv[0] == "masks":
        argv = argv + ["--out", str(tmp_path / "m")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv", [
    ["sample-image", "{image}", "--grid", "156250x156250", "--out", "{out}"],
    ["sample-video", "{clip}", "--spatial-mask", "window", "--grid", "156250x156250",
     "--out", "{out}"],
    ["masks", "dump", "--size", "5000000x5000000", "--out", "{out}"],
    ["masks", "dump", "--scales", "3", "--size", "5000000x5000000", "--out", "{out}"],
    ["bench", "--size", "5000000x5000000", "--reps", "3"],
], ids=lambda argv: "_".join(a for a in argv if not a.startswith("{")))
def test_output_frames_over_the_pixel_cap_are_config_errors(
    argv, image_file, clip_dir, tmp_path, capsys
):
    """A 5e6 x 5e6 output is refused before any mask or array is built:
    its int64 mask temporary alone would exceed any address space."""
    out = tmp_path / "o.sama"
    argv = [a.format(image=image_file, clip=clip_dir, out=out) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"config error: [^\n]*more than the 33554432 pixels allowed\n",
                        captured.err)
    assert not out.exists()


def test_masks_dump_frames_over_the_output_frame_cap_is_a_config_error(tmp_path, capsys):
    """--frames is capped at the sampler's frames_out bound before any mask
    is built; 65,538 is the smallest even count above it."""
    out = tmp_path / "m"
    argv = ["masks", "dump", "--temporal-mask", "progressive", "--frames", "65538",
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"config error: --frames must be in \[1, 65536\], got 65538\n",
                        captured.err)
    assert captured.out == ""
    assert not out.exists()


def test_sample_video_of_a_frame_over_the_pixel_cap_is_corrupt(tmp_path, capsys):
    clip = tmp_path / "clip"
    clip.mkdir()
    sparse_ppm(clip / "frame_000000.ppm", 8193, 4097)
    out = tmp_path / "v.sama"
    assert main(["sample-video", str(clip), "--out", str(out)]) == 2
    assert "more than the" in capsys.readouterr().err
    assert not out.exists()


def test_sample_video_defaults(clip_dir, tmp_path):
    out = tmp_path / "vid.sama"
    assert main(["sample-video", str(clip_dir), "--out", str(out)]) == 0
    tensor = read_container(out)
    assert tensor.data.shape == (32, 224, 224, 3)
    assert tensor.temporal_mask == "progressive"
    assert tensor.schedule == tuple(range(16))
    assert tensor.n_scales == 16


def test_sample_video_choppy(clip_dir, tmp_path):
    out = tmp_path / "vid.sama"
    rc = main(["sample-video", str(clip_dir), "--temporal-mask", "choppy", "--out", str(out)])
    assert rc == 0
    tensor = read_container(out)
    assert tensor.schedule == (0, 15) * 8


def test_sample_video_mixed_default_scales(clip_dir, tmp_path):
    out = tmp_path / "vid.sama"
    rc = main(["sample-video", str(clip_dir), "--temporal-mask", "mixed", "--out", str(out)])
    assert rc == 0
    tensor = read_container(out)
    assert tensor.schedule == tuple(range(8)) * 2
    assert tensor.n_scales == 8


def test_sample_video_infer_snippets(clip_dir, tmp_path):
    out = tmp_path / "vid.sama"
    rc = main(["sample-video", str(clip_dir), "--infer", "--out", str(out)])
    assert rc == 0
    snippets = sorted(tmp_path.glob("vid_snip*.sama"))
    assert len(snippets) == 4
    for path in snippets:
        assert read_container(path).data.shape == (32, 224, 224, 3)
    assert not out.exists()  # only snippet containers are written


def test_sample_video_infer_writes_each_snippets_previews_and_shares(tmp_path, capsys):
    write_clip(tmp_path / "clip", 128, 16, 24)
    out = tmp_path / "v.sama"
    rc = main([
        "sample-video", str(tmp_path / "clip"), "--infer", "--frames", "4", "--scales", "2",
        "--grid", "1x1", "--frag", "8x8", "--preview", "tinted", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.count("per-scale pixel shares: scale 0: 50.0%  scale 1: 50.0%") == 4
    for i in range(4):
        previews = sorted(tmp_path.glob(f"v_snip{i}_preview_f*.png"))
        assert len(previews) == 4
        tensor = read_container(tmp_path / f"v_snip{i}.sama")
        tinted = render_preview(tensor, "tinted")
        assert np.array_equal(imageio.read_image(previews[3]), tinted[3].data)


def test_sample_video_infer_decodes_only_its_pool(tmp_path, reads):
    write_clip(tmp_path / "clip", 256)
    out = tmp_path / "v.sama"
    assert main(["sample-video", str(tmp_path / "clip"), "--infer", "--out", str(out)]) == 0
    assert len(reads) == len({name for name, _ in reads}) == 128


def test_sample_video_infer_streams_its_snippets(tmp_path, alive_at_read):
    write_clip(tmp_path / "clip", 256)
    out = tmp_path / "v.sama"
    assert main(["sample-video", str(tmp_path / "clip"), "--infer", "--out", str(out)]) == 0
    assert len(alive_at_read) == 128
    assert max(alive_at_read) <= 1


def test_truncated_ppm_in_an_unselected_frame_fails_at_load(tmp_path, reads, capsys):
    paths = write_clip(tmp_path / "clip", 64)
    paths[0].write_bytes(paths[0].read_bytes()[:-1])  # the VQA default keeps odd frames
    rc = main(["sample-video", str(tmp_path / "clip"), "--out", str(tmp_path / "v.sama")])
    assert rc == 2
    assert "PPM raster truncated" in capsys.readouterr().err
    assert reads == []


@pytest.mark.parametrize("kind", ["image", "video"])
def test_a_thin_input_fails_before_any_tap_table(tmp_path, monkeypatch, capsys, kind):
    # covering the output upscales a 1x2000 frame past the pixel cap a
    # reader applies, so sampling stops before marking a row or building taps
    built = []
    monkeypatch.setattr(pipeline, "tap_rows", lambda *args: built.append(args))
    monkeypatch.setattr(pipeline, "pixel_taps", lambda *args: built.append(args))
    paths = write_clip(tmp_path / "clip", 4, 1, 2000)
    source = paths[0] if kind == "image" else tmp_path / "clip"
    out = tmp_path / "thin.sama"
    assert main([f"sample-{kind}", str(source), "--out", str(out)]) == 2
    assert "more than the 33554432 pixels allowed" in capsys.readouterr().err
    assert built == [] and not out.exists()


def test_two_files_with_one_frame_index_fail_at_load(tmp_path, capsys):
    write_clip(tmp_path / "clip", 4)
    write_clip(tmp_path / "clip", 1, suffix="png")
    rc = main(["sample-video", str(tmp_path / "clip"), "--out", str(tmp_path / "v.sama")])
    assert rc == 2
    assert "frame_000000.png and frame_000000.ppm" in capsys.readouterr().err


def test_more_frames_than_provenance_can_name_fail_before_any_read(tmp_path, reads, capsys):
    write_clip(tmp_path / "clip", 4)
    rc = main([
        "sample-video", str(tmp_path / "clip"), "--frames", "131074",
        "--out", str(tmp_path / "v.sama"),
    ])
    assert rc == 1
    assert "frames_out must be in [1, 65536]" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "v.sama").exists()


@pytest.mark.parametrize("index, code", [(0, 0), (1, 2)], ids=["unselected", "selected"])
def test_corrupt_png_pixel_data_shows_only_when_its_frame_is_selected(
    tmp_path, index, code, capsys
):
    # two of four frames are kept, 1 and 3; IHDR is checked at load, IDAT at decode
    paths = write_clip(tmp_path / "clip", 4, 32, 32, suffix="png")
    blob = bytearray(paths[index].read_bytes())
    blob[blob.index(b"IDAT") + 8] ^= 0xFF
    paths[index].write_bytes(bytes(blob))
    rc = main([
        "sample-video", str(tmp_path / "clip"), "--frames", "2", "--scales", "1",
        "--temporal-mask", "none", "--out", str(tmp_path / "v.sama"),
    ])
    assert rc == code
    assert ("bad CRC in b'IDAT'" in capsys.readouterr().err) == (code == 2)


def test_sample_video_preview_writes_frames(clip_dir, tmp_path):
    out = tmp_path / "vid.sama"
    rc = main([
        "sample-video", str(clip_dir), "--frames", "4", "--scales", "2",
        "--preview", "tinted", "--out", str(out),
    ])
    assert rc == 0
    previews = sorted(tmp_path.glob("vid_preview_f*.png"))
    assert len(previews) == 4
    assert imageio.read_image(previews[0]).shape == (224, 224, 3)


def test_sample_video_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["sample-video", str(empty), "--out", str(tmp_path / "v.sama")])
    assert rc == 2


def test_preview_roundtrip(image_file, tmp_path):
    out = tmp_path / "img.sama"
    main(["sample-image", str(image_file), "--out", str(out)])
    png = tmp_path / "view.png"
    assert main(["preview", str(out), "--style", "plain", "--out", str(png)]) == 0
    tensor = read_container(out)
    assert np.array_equal(imageio.read_image(png), tensor.data[0])


def test_preview_bordered_needs_grid(image_file, tmp_path):
    out = tmp_path / "img.sama"
    main(["sample-image", str(image_file), "--out", str(out)])
    png = tmp_path / "view.png"
    rc = main(["preview", str(out), "--style", "bordered", "--out", str(png)])
    assert rc == 1  # grid unknown after reload: the user must pass --grid
    assert main([
        "preview", str(out), "--style", "bordered", "--grid", "8x8", "--out", str(png),
    ]) == 0


def test_preview_bordered_without_grid_fails_before_reading(tmp_path, capsys):
    png = tmp_path / "view.png"
    rc = main(["preview", str(tmp_path / "missing.sama"), "--style", "bordered", "--out", str(png)])
    assert rc == 1  # a flag error, not the missing file's i/o error
    assert "needs --grid" in capsys.readouterr().err


@pytest.mark.parametrize("flags, out, message", [
    (["--style", "bordered", "--grid", "5x5"], "p.png",
     "--grid 5x5: grid does not tile the output dims"),
    (["--style", "plain", "--grid", "8x8"], "p.png",
     "--grid applies to the bordered style, not 'plain'"),
    (["--style", "tinted", "--grid", "8x8"], "p.png",
     "--grid applies to the bordered style, not 'tinted'"),
    ([], "p.gif", "--out must end in .png or .ppm, got 'p.gif'"),
    (["--style", "bordered"], "p.png", "bordered preview of a loaded container needs --grid RxC"),
], ids=["untiled-grid", "plain-grid", "tinted-grid", "gif", "bordered-no-grid"])
def test_preview_flag_errors_are_config_errors(
    flags, out, message, image_file, tmp_path, capsys, monkeypatch
):
    import sama.cli

    path = tmp_path / "img.sama"
    assert main(["sample-image", str(image_file), "--out", str(path)]) == 0
    capsys.readouterr()
    reads = []
    monkeypatch.setattr(sama.cli, "read_container", lambda p: reads.append(p) or read_container(p))
    rc = main(["preview", str(path), *flags, "--out", str(tmp_path / out)])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / out).exists()
    # only the grid's tiling needs the container's dims
    assert len(reads) == ("does not tile" in message)


def test_masks_dump(tmp_path, capsys):
    rc = main([
        "masks", "dump", "--out", str(tmp_path / "masks"),
        "--size", "224x224", "--temporal-mask", "progressive",
    ])
    assert rc == 0
    files = sorted((tmp_path / "masks").glob("*.pgm"))
    assert [f.name for f in files] == ["mask_window_scale0.pgm", "mask_window_scale1.pgm"]
    blob = files[0].read_bytes()
    assert blob.startswith(b"P5\n224 224\n255\n")
    # the two indicators partition the field
    a = np.frombuffer(files[0].read_bytes()[-224 * 224:], dtype=np.uint8)
    b = np.frombuffer(files[1].read_bytes()[-224 * 224:], dtype=np.uint8)
    assert ((a == 255) ^ (b == 255)).all()
    # without --frames the schedule is the VQA default's 32 frames
    assert f"progressive schedule (per frame pair): {list(range(16))}" in capsys.readouterr().out


def test_masks_dump_interlace(tmp_path):
    rc = main([
        "masks", "dump", "--out", str(tmp_path / "m"), "--scales", "4",
        "--size", "224x224",
    ])
    assert rc == 0
    assert len(list((tmp_path / "m").glob("*.pgm"))) == 4


@pytest.mark.parametrize("flags", [
    ["--temporal-mask", "progressive", "--frames", "3"],
    ["--temporal-mask", "mixed", "--frames", "6"],
    ["--scales", "3", "--size", "100x100"],
    ["--block", "8"],  # the block of a --scales interlace
    ["--scales", "3", "--spatial-mask", "patch"],
    ["--frames", "5"],  # the frame count of a --temporal-mask schedule
    ["--temporal-mask", "none", "--frames", "5"],
], ids="_".join)
def test_masks_dump_flag_values_no_mask_accepts_write_nothing(flags, tmp_path, capsys):
    out = tmp_path / "m"
    assert main(["masks", "dump", "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("mask, frames, schedule", [
    ("progressive", "2", "[0]"),
    ("mixed", "4", "[0, 0]"),
])
def test_masks_dump_prints_the_shortest_schedules(mask, frames, schedule, tmp_path, capsys):
    rc = main([
        "masks", "dump", "--out", str(tmp_path / "m"),
        "--temporal-mask", mask, "--frames", frames,
    ])
    assert rc == 0
    assert f"{mask} schedule (per frame pair): {schedule}" in capsys.readouterr().out


def test_sample_video_progressive_two_frames_has_nothing_to_interlace(clip_dir, tmp_path, capsys):
    rc = main([
        "sample-video", str(clip_dir), "--temporal-mask", "progressive", "--frames", "2",
        "--out", str(tmp_path / "v.sama"),
    ])
    assert rc == 1
    assert "config error: masks need n_scales > 1" in capsys.readouterr().err


def test_sample_video_mixed_six_frames_names_the_frame_count(clip_dir, tmp_path, capsys):
    # the mask is built before the level count is checked, so the error names
    # the flag given, as masks dump does, not the n_scales it implied
    argv = ["--temporal-mask", "mixed", "--frames", "6"]
    for command in (
        ["sample-video", str(clip_dir), "--out", str(tmp_path / "v.sama")],
        ["masks", "dump", "--out", str(tmp_path / "m")],
    ):
        assert main([*command, *argv]) == 1
        assert capsys.readouterr().err == "config error: mixed needs a frame count divisible by 4\n"
    assert list(tmp_path.iterdir()) == [clip_dir]


@pytest.mark.parametrize("grid", ["8x16", "16x8"])
@pytest.mark.parametrize("size", [(600, 600), (900, 300)], ids=["600x600", "900x300"])
def test_non_square_outputs_sample_and_audit_clean(size, grid, tmp_path):
    # the coarsest level covers the output at the input's aspect, whichever
    # way the two are elongated
    path = tmp_path / "input.png"
    path.write_bytes(imageio.encode_png(coordinate_frame(*size).data))
    out = tmp_path / "img.sama"
    assert main(["sample-image", str(path), "--grid", grid, "--out", str(out)]) == 0
    rows, cols = (int(v) for v in grid.split("x"))
    cfg = SamplerConfig.iqa_default(grid_rows=rows, grid_cols=cols)
    result = sample_image(load_image(path), cfg)
    assert np.array_equal(read_container(out).data, result.tensor.data)
    report = provenance_audit(result.tensor, result.pyramid)
    assert report.mismatches == 0
    assert report.total_pixels == rows * cols * 32 * 32


@pytest.mark.parametrize("command, flags", [
    ("sample-image", []),
    ("sample-video", ["--temporal-mask", "none", "--spatial-mask", "patch"]),
], ids=["image-window", "video-patch"])
def test_output_no_mask_tiles_fails_before_reading_input(
    command, flags, image_file, clip_dir, tmp_path, reads, capsys
):
    source = image_file if command == "sample-image" else clip_dir
    out = tmp_path / "x.sama"
    rc = main([command, str(source), "--frag", "30x30", *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert reads == []
    assert not out.exists()


def test_sample_image_unrecognised_format(tmp_path, capsys):
    gif = tmp_path / "input.gif"
    gif.write_bytes(b"GIF89a" + bytes(64))
    rc = main(["sample-image", str(gif), "--out", str(tmp_path / "x.sama")])
    assert rc == 2
    assert "unrecognised image format" in capsys.readouterr().err


def test_attn_check(capsys):
    assert main(["attn-check", "--seeds", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    lines = out.splitlines()
    assert len(lines) == 11
    for line in lines:
        assert re.match(r"PASS  .+ \(worst .+, \d+ seeds, \d+\.\d ms\)$", line), line


def test_attn_check_times_each_property_alone(monkeypatch, capsys):
    """A property's line reads its own time: a fast property listed after a
    slow one does not carry the slow one's sleep."""
    import sama.scalehead

    def slow(rng):
        time.sleep(0.05)
        return 0.0

    monkeypatch.setattr(sama.scalehead, "PROPERTIES", (
        sama.scalehead.Property("slow property", 0.0, slow),
        sama.scalehead.Property("fast property", 0.0, lambda rng: 0.0),
    ))
    assert main(["attn-check", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    ms = dict(re.findall(r"^PASS  (\w+) property \(.*, (\d+\.\d) ms\)$", out, re.M))
    assert float(ms["slow"]) >= 50.0, out
    assert float(ms["fast"]) < 50.0, out


def test_verify_clean(capsys):
    assert main(["verify", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "image gather audit" in out
    assert "PASS  audit catches a flipped byte (1 mismatches, expected 1, " in out
    assert "PASS  audit catches a flipped byte in a video (1 mismatches, expected 1, " in out
    assert "determinism replay" in out
    assert ("PASS  mask partition of unity (window 2 levels, patch 2 levels, "
            "interlace3 3 levels, interlace4 4 levels, ") in out
    assert ("PASS  temporal schedules (progressive 16, choppy 16, mixed 8 levels "
            "over 32 frames, ") in out
    assert "FAIL" not in out
    checks = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(checks) == 7 + 11
    for line in checks:
        assert re.search(r"\b\d+\.\d ms\)$", line), line


def test_verify_partition_check_fails_on_a_mask_missing_a_level(monkeypatch, capsys):
    import sama.cli

    real = sama.cli.make_interlace_mask

    def short(n_scales, out_h, out_w, block):
        mask = real(n_scales, out_h, out_w, block)
        # the top level's tiles go to the level below it: it owns no tile
        return SpatialMask(mask.kind, block, np.minimum(mask.indices, n_scales - 2))

    monkeypatch.setattr(sama.cli, "make_interlace_mask", short)
    assert main(["verify", "--seeds", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL  mask partition of unity" in out
    assert "PASS  temporal schedules" in out


def test_verify_inject_fault(monkeypatch, capsys):
    """An audit blind to pixel values passes the clean runs but misses the
    flipped byte, so verify fails."""
    import sama.cli

    real = sama.cli.provenance_audit

    def blind(t, pyramid):
        return replace(real(t, pyramid), mismatches=0)

    monkeypatch.setattr(sama.cli, "provenance_audit", blind)
    assert main(["verify", "--seeds", "2"]) == 3
    out = capsys.readouterr().out
    assert "PASS  image gather audit" in out
    assert "FAIL  audit catches a flipped byte (0 mismatches, expected 1, " in out


def test_bench_smoke(capsys):
    assert main(["bench", "--size", "240x320", "--reps", "3"]) == 0
    out = capsys.readouterr().out
    for stage in ("pyramid", "fragments", "compose", "pack"):
        assert stage in out
    assert "decode" not in out  # it timed a view of in-memory bytes
    assert "ratio" in out


@pytest.mark.parametrize("size", [["1x2000"], ["1x1000", "--frag", "4x4"]], ids=" ".join)
def test_a_thin_bench_size_is_a_config_error(size, capsys):
    # the bench reads no file, so an output that a --size frame cannot cover
    # within the pixel cap is the flag's fault, found before any stage runs;
    # with 4x4 fragments only the 224x224 comparison would hit the cap
    assert main(["bench", "--size", *size, "--reps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"config error: --size 1x\d+: covering the output upscales the input to "
        r"[^\n]*more than the 33554432 pixels allowed\n",
        captured.err,
    )


def test_a_thin_bench_size_within_the_cap_still_runs(capsys):
    assert main(["bench", "--size", "1x20", "--reps", "1"]) == 0
    assert "ratio" in capsys.readouterr().out


@pytest.mark.parametrize("reps", [1, 2])
def test_bench_reps_bounds_the_pyramid_scaling_reps(reps, monkeypatch, capsys):
    real = sama.bench.pyramid_scaling
    seen = []

    def spy(height, width, **kwargs):
        seen.append(kwargs["reps"])
        return real(height, width, **kwargs)

    monkeypatch.setattr(sama.bench, "pyramid_scaling", spy)
    assert main(["bench", "--size", "64x64", "--reps", str(reps)]) == 0
    assert len(seen) == 1 and 1 <= seen[0] <= reps


def test_cli_determinism_across_processes(clip_dir, tmp_path):
    """Two subprocess runs, identical bytes."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.sama"
        proc = subprocess.run(
            [sys.executable, "-m", "sama.cli", "sample-video", str(clip_dir),
             "--offset", "random", "--seed", "42", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_closed_stdout_exits_quietly_with_sigpipe_status():
    """A reader that stops after one line is not an I/O failure."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")  # each line reaches the pipe at once
    proc = subprocess.Popen(
        [sys.executable, "-m", "sama.cli", "verify"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first.startswith(b"PASS")
    assert stderr == b""


# Names that an out-of-process tracer wraps to attribute time to layers. It
# patches the module attribute, so each must be looked up there at call time;
# a refactor that binds one at import makes its layer read zero.
TRACED_NAMES = (
    "sama.pipeline.select_frames",
    "sama.pipeline.build_pyramid",
    "sama.pipeline.plan_level",
    "sama.pipeline.make_spatial_mask",
    "sama.pipeline.make_temporal_mask",
    "sama.cli.sample_image",
    "sama.cli.sample_video",
)


def _spy_on(monkeypatch, names):
    reached = set()
    for name in names:
        module, attr = name.rsplit(".", 1)
        mod = importlib.import_module(module)
        real = getattr(mod, attr)

        def spy(*args, _real=real, _name=name, **kwargs):
            reached.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, attr, spy)
    return reached


def test_traced_names_are_looked_up_at_call_time(monkeypatch, image_file, clip_dir, tmp_path):
    reached = _spy_on(monkeypatch, TRACED_NAMES)
    assert main(["sample-image", str(image_file), "--out", str(tmp_path / "i.sama")]) == 0
    assert reached == set(TRACED_NAMES) - {
        "sama.pipeline.make_temporal_mask", "sama.cli.sample_video",
    }
    reached.clear()
    rc = main([
        "sample-video", str(clip_dir), "--frames", "8", "--scales", "4",
        "--temporal-mask", "progressive", "--spatial-mask", "window",
        "--out", str(tmp_path / "v.sama"),
    ])
    assert rc == 0
    assert reached == set(TRACED_NAMES) - {"sama.cli.sample_image"}


# Each sampler flag and the config key of its field are one setting: on top
# of the same base file, giving the flag or putting its value in the file
# writes the same container, and one that differs from the base's.
_BASE_DOC = {"grid_rows": 2, "grid_cols": 2, "frag_h": 16, "frag_w": 16, "frames_out": 4,
             "offset_policy": "random", "seed": 3}


_FLAG_CASES = [
    (["--grid", "3x3"], {"grid_rows": 3, "grid_cols": 3}, {}),
    (["--frag", "8x8"], {"frag_h": 8, "frag_w": 8}, {}),
    (["--frames", "8"], {"frames_out": 8}, {}),
    (["--temporal-mask", "choppy"], {"temporal_mask": "choppy"}, {}),
    (["--scales", "3"], {"n_scales": 3}, {"temporal_mask": "choppy"}),
    (["--spatial-mask", "window"], {"spatial_mask": "window"}, {"temporal_mask": "none"}),
    (["--offset", "center"], {"offset_policy": "center"}, {}),
    (["--seed", "8"], {"seed": 8}, {}),
    (["--aligned-offsets"], {"aligned_offsets": True}, {}),
]


@pytest.mark.parametrize("flag, keys, context", _FLAG_CASES, ids=[c[0][0] for c in _FLAG_CASES])
def test_each_sampler_flag_and_its_config_key_write_the_same_container(
    flag, keys, context, tmp_path
):
    write_clip(tmp_path / "clip", 12, 96, 128)
    blobs = []
    for name, doc, flags in (
        ("base", {**_BASE_DOC, **context}, []),
        ("flag", {**_BASE_DOC, **context}, flag),
        ("file", {**_BASE_DOC, **context, **keys}, []),
    ):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"{name}.sama"
        flags = ["--config", str(cfg), *flags, "--out", str(out)]
        assert main(["sample-video", str(tmp_path / "clip"), *flags]) == 0
        blobs.append(out.read_bytes())
    base, by_flag, by_file = blobs
    assert by_flag == by_file
    assert by_flag != base


def test_config_file_input_out_and_preview_act_as_their_flags(image_file, tmp_path):
    by_flags = tmp_path / "flags" / "img.sama"
    by_file = tmp_path / "file" / "img.sama"
    by_flags.parent.mkdir()
    by_file.parent.mkdir()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": str(image_file), "out": str(by_file), "preview": "tinted"}))
    assert main(["sample-image", str(image_file), "--out", str(by_flags), "--preview", "tinted"]) == 0
    assert main(["sample-image", "--config", str(cfg)]) == 0
    assert by_file.read_bytes() == by_flags.read_bytes()
    preview = by_file.with_name("img_preview.png")
    assert preview.read_bytes() == by_flags.with_name("img_preview.png").read_bytes()


def test_config_file_preview_gets_the_flags_choices(image_file, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preview": "bogus"}))
    out = tmp_path / "img.sama"
    rc = main(["sample-image", str(image_file), "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        "config error: config key 'preview' must be one of plain, tinted, bordered, "
        "got 'bogus'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--out", "x.sama"], ["--preview", "plain"]], ids="_".join)
def test_bench_takes_only_sampler_flags(flag, capsys):
    assert main(["bench", "--size", "64x64", "--reps", "3", *flag]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("bench", "input", "clip"),
    ("bench", "out", "x.sama"),
    ("bench", "preview", "plain"),
    ("bench", "infer", True),
    ("sample-image", "infer", True),
    ("bench", "frames_out", 5),
    ("bench", "temporal_mask", "none"),
    ("sample-image", "frames_out", 5),
    ("sample-image", "temporal_mask", "none"),
], ids=lambda v: str(v))
def test_config_keys_of_flags_a_command_lacks_are_config_errors(
    command, key, value, image_file, tmp_path, capsys
):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "img.sama"
    if command == "bench":
        argv = ["bench", "--size", "64x64", "--reps", "3"]
    else:
        argv = ["sample-image", str(image_file), "--out", str(out)]
    assert main([*argv, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: config key {key!r} does not apply to {command}\n"
    assert not out.exists()


def test_bench_takes_its_seed_from_the_config_file(monkeypatch, tmp_path):
    import sama.bench

    seeds = []

    def spy(name):
        real = getattr(sama.bench, name)

        def record(*args):
            seeds.append(args[-1])
            return real(*args)

        monkeypatch.setattr(sama.bench, name, record)

    spy("bench_image")
    spy("compare_single_vs_interlaced")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 17}))
    assert main(["bench", "--size", "64x64", "--reps", "3", "--config", str(cfg)]) == 0
    assert seeds == [17, 17]


def test_infer_snippets_longer_than_a_quarter_pool_fail_before_loading(tmp_path, capsys):
    missing = tmp_path / "no-such-clip"
    rc = main(["sample-video", str(missing), "--infer", "--frames", "64",
               "--out", str(tmp_path / "v.sama")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --infer cuts 4 snippets from a 128-frame pool")
    assert "at most 32, got 64" in err


def test_image_container_declaring_several_frames_is_corrupt(tmp_path, capsys):
    import sama.pack as pack

    # a well-formed two-frame video container whose kind byte says image
    tensor = pack.SampledTensor(
        "video", np.zeros((2, 8, 8, 3), dtype=np.uint8), np.zeros((2, 8, 8), PROVENANCE_DTYPE)
    )
    blob = bytearray(pack.container_bytes(tensor))
    blob[6] = pack.KIND_CODES["image"]
    path = tmp_path / "img.sama"
    path.write_bytes(bytes(blob))
    rc = main(["preview", str(path), "--out", str(tmp_path / "p.png")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "i/o error: image container declares 2 frames, not 1\n"


@pytest.mark.parametrize("style", ["plain", "tinted", "bordered"])
def test_preview_of_a_container_without_provenance_is_an_input_error(
    style, image_file, tmp_path, capsys
):
    path = tmp_path / "img.sama"
    assert main(["sample-image", str(image_file), "--out", str(path)]) == 0
    capsys.readouterr()
    # a container that leaves out its provenance: flags 0x00 (the byte
    # after an empty schedule), then the pixels alone
    blob = bytearray(path.read_bytes()[: 33 + read_container(path).data.nbytes])
    blob[32] = 0x00
    path.write_bytes(bytes(blob))
    png = tmp_path / "p.png"
    grid = ["--grid", "8x8"] if style == "bordered" else []
    rc = main(["preview", str(path), "--style", style, *grid, "--out", str(png)])
    assert rc == 2
    assert capsys.readouterr().err == "i/o error: container flags 0x00 not supported\n"
    assert not png.exists()


def test_sample_bordered_preview_draws_the_configured_grid(image_file, tmp_path):
    path = tmp_path / "img.sama"
    rc = main(["sample-image", str(image_file), "--preview", "bordered", "--out", str(path)])
    assert rc == 0
    png = tmp_path / "p.png"
    rc = main(["preview", str(path), "--style", "bordered", "--grid", "8x8", "--out", str(png)])
    assert rc == 0  # the IQA default grid is 8x8
    assert png.read_bytes() == (tmp_path / "img_preview.png").read_bytes()


@pytest.mark.parametrize("style", ["tinted", "bordered"])
def test_preview_of_a_scale_beyond_the_header_is_corrupt(style, image_file, tmp_path, capsys):
    path = tmp_path / "img.sama"
    assert main(["sample-image", str(image_file), "--out", str(path)]) == 0
    tensor = read_container(path)
    tensor.provenance["scale"][0, 0, 0] = 5  # the header says 2 scales
    write_container(tensor, path)
    png = tmp_path / "p.png"
    grid = ["--grid", "8x8"] if style == "bordered" else []
    rc = main(["preview", str(path), "--style", style, *grid, "--out", str(png)])
    assert rc == 2
    assert capsys.readouterr().err == "i/o error: provenance names scale 5, header has 2 scales\n"
    assert not png.exists()
