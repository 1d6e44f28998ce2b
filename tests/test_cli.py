import importlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from sama import imageio
from sama.cli import main
from sama.masks import SpatialMask
from sama.pack import read_container, render_preview

from conftest import coordinate_clip, coordinate_frame, write_clip


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
], ids="_".join)
def test_count_and_size_flags_below_one_are_config_errors(argv, tmp_path, capsys):
    if argv[0] == "masks":
        argv = argv + ["--out", str(tmp_path / "m")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


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
    assert "schedule" in capsys.readouterr().out


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


def test_verify_clean(capsys):
    assert main(["verify", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "image gather audit" in out
    assert "determinism replay" in out
    assert "FAIL" not in out
    checks = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(checks) > 5
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


def test_verify_inject_fault(capsys):
    assert main(["verify", "--seeds", "2", "--inject-fault"]) == 3
    out = capsys.readouterr().out
    assert "FAIL  image gather audit" in out


def test_bench_smoke(capsys):
    assert main(["bench", "--size", "240x320", "--reps", "3"]) == 0
    out = capsys.readouterr().out
    for stage in ("decode", "pyramid", "fragments", "compose", "pack"):
        assert stage in out
    assert "ratio" in out


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
    with pytest.warns(UserWarning, match="experimental"):
        rc = main([
            "sample-video", str(clip_dir), "--frames", "8", "--scales", "4",
            "--temporal-mask", "progressive", "--spatial-mask", "window",
            "--out", str(tmp_path / "v.sama"),
        ])
    assert rc == 0
    assert reached == set(TRACED_NAMES) - {"sama.cli.sample_image"}
