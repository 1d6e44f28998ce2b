"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sama.bench import compare_single_vs_interlaced, pyramid_scaling
from sama.masks import make_interlace_mask, make_spatial_mask, make_temporal_mask
from sama.media import FrameBuffer, MediaClip, SamplerConfig
from sama.pack import provenance_audit
from sama.pipeline import sample_image, sample_video
from sama.pyramid import scale_schedule
from sama.scalehead import run_property_suite

from conftest import coordinate_clip, coordinate_frame, constant_frame


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL  {name}  ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\nPASS  {name}  ({time.perf_counter() - t0:.1f}s)")


def _log_uniform_sizes(rng, n, lo=224, hi=4096):
    sizes = np.exp(rng.uniform(math.log(lo), math.log(hi), n)).astype(int)
    return np.clip(sizes, lo, hi)


def test_shape_constants():
    """VQA output is 224x224x32x3, IQA 256x256x3, for any input resolution."""
    with criterion("shape constants (200 random VQA resolutions + IQA)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        vqa = SamplerConfig.vqa_default()
        mins = list(_log_uniform_sizes(rng, 196)) + [224, 225, 4095, 4096]
        for i, min_side in enumerate(mins):
            aspect = rng.uniform(1.0, min(2.0, 4096 / min_side))
            h, w = int(min_side), int(min_side * aspect)
            if rng.integers(2):
                h, w = w, h
            frame = FrameBuffer(
                rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            )
            clip = MediaClip((frame,) * int(rng.integers(1, 4)))
            tensor = sample_video(clip, vqa).tensor
            assert tensor.data.shape == (32, 224, 224, 3), (h, w)
        iqa = SamplerConfig.iqa_default()
        for min_side in list(_log_uniform_sizes(rng, 16)) + [224, 256, 4096]:
            h, w = int(min_side), int(min_side * rng.uniform(1.0, min(2.0, 4096 / min_side)))
            frame = FrameBuffer(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            tensor = sample_image(frame, iqa).tensor
            assert tensor.data.shape == (1, 256, 256, 3), (h, w)
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"runtime budget exceeded: {elapsed:.0f}s"


def test_pyramid_schedule():
    """Linear min-side interpolant within 0.5, exact terminal, 2-level oracle."""
    with criterion("pyramid schedule (linear interpolant, terminal 224)"):
        sched = scale_schedule(1080, 1920, 224, 16)
        for k, m in enumerate(sched.min_sides):
            ideal = 1080 + k * (224 - 1080) / 15
            assert abs(m - ideal) <= 0.5
        assert sched.min_sides[-1] == 224
        assert list(scale_schedule(1080, 1920, 224, 2)) == [(1080, 1920), (224, 398)]


def test_mask_partition():
    """Per-scale indicators sum to one everywhere; checkerboard tile counts."""
    with criterion("mask partition (window 25/24, patch 1568/1568, unity)"):
        window = make_spatial_mask("window", 224, 224)
        assert window.tile_counts() == (25, 24)
        patch = make_spatial_mask("patch", 224, 224)
        assert patch.tile_counts() == (1568, 1568)
        for kind in ("window", "patch"):
            mask = make_spatial_mask(kind, 224, 224)
            total = (mask.bitmap == 1).astype(int) + (mask.bitmap == 0).astype(int)
            assert (total == 1).all()
        for n in (3, 4):
            imask = make_interlace_mask(n, 224, 224, 32)
            total = sum((imask.indices == s).astype(int) for s in range(n))
            assert (total == 1).all()
        for kind, frames, levels in (
            ("progressive", 32, 16), ("choppy", 32, 16), ("mixed", 32, 8),
        ):
            scales = make_temporal_mask(kind, frames, levels).frame_scales()
            assert scales.shape == (frames,)  # exactly one scale per frame


def test_gather_exactness():
    """50 randomized image and video runs re-fetch every pixel exactly."""
    with criterion("gather exactness (50 randomized runs, 0 mismatches)"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for i in range(25):
            h = int(rng.integers(224, 1600))
            w = int(rng.integers(224, 1600))
            frame = FrameBuffer(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            cfg = SamplerConfig.iqa_default(
                spatial_mask=("window", "patch")[i % 2],
                offset_policy=("center", "random")[(i // 2) % 2],
                seed=int(rng.integers(2**32)),
            )
            res = sample_image(frame, cfg)
            report = provenance_audit(res.tensor, res.pyramid)
            assert report.mismatches == 0, f"image run {i}: {report.mismatches}"
        for i in range(25):
            h = int(rng.integers(224, 640))
            w = int(rng.integers(224, 640))
            n_frames = int(rng.integers(1, 9))
            clip = MediaClip(
                tuple(
                    FrameBuffer(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
                    for _ in range(n_frames)
                )
            )
            kind = ("progressive", "choppy", "mixed")[i % 3]
            frames_out = (8, 16, 32)[(i // 3) % 3]
            n_scales = frames_out // 4 if kind == "mixed" else frames_out // 2
            cfg = SamplerConfig(
                frames_out=frames_out,
                n_scales=n_scales,
                temporal_mask=kind,
                offset_policy=("center", "random")[i % 2],
                seed=int(rng.integers(2**32)),
            )
            res = sample_video(clip, cfg)
            report = provenance_audit(res.tensor, res.pyramid)
            assert report.mismatches == 0, f"video run {i}: {report.mismatches}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"runtime budget exceeded: {elapsed:.0f}s"


def test_temporal_schedules():
    """Progressive/choppy/mixed per-frame scale ids, exact."""
    with criterion("temporal schedules (progressive, choppy, mixed)"):
        prog = make_temporal_mask("progressive", 32, 16).frame_scales()
        assert prog.tolist() == [s for s in range(16) for _ in range(2)]
        chop = make_temporal_mask("choppy", 32, 16).frame_scales()
        assert chop.tolist() == [0, 0, 15, 15] * 8  # finest/coarsest, period 4
        mix = make_temporal_mask("mixed", 32, 8).frame_scales()
        half = [s for s in range(8) for _ in range(2)]
        assert mix.tolist() == half + half


def test_determinism_across_runs_and_threads(tmp_path):
    """Identical config+seed: byte-identical files over 3 processes."""
    with criterion("determinism (3 runs)"):
        clip_dir = tmp_path / "clip"
        clip_dir.mkdir()
        from sama import imageio

        clip = coordinate_clip(231, 308, 5)
        for i, frame in enumerate(clip.frames):
            (clip_dir / f"frame_{i:06d}.ppm").write_bytes(
                imageio.encode_ppm(frame.data)
            )
        blobs = []
        for run in range(3):
            out = tmp_path / f"out_{run}.sama"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "sama.cli", "sample-video",
                    str(clip_dir), "--offset", "random", "--seed", "77",
                    "--out", str(out),
                ],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert all(b == blobs[0] for b in blobs)


def test_attention_reductions_and_gradients():
    """Bias-at-identity reductions, softmax rows, gradient agreement."""
    with criterion("attention reductions + gradients (100 instances)"):
        start = time.perf_counter()
        results = {r.name: r for r in run_property_suite(seeds=100)}
        for name in (
            "additive scale bias at zero reduces to base attention",
            "multiplicative scale bias at one reduces to base attention",
            "softmax rows sum to one",
            "additive-bias gradient matches central differences",
            "multiplicative-bias gradient matches central differences",
        ):
            assert results[name].passed, f"{name}: {results[name].detail}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"runtime budget exceeded: {elapsed:.0f}s"


def test_complexity_property():
    """Interlacing costs like plain sampling; only the pyramid grows with n."""
    with criterion("complexity (frag+compose ratio <= 1.5, pyramid monotone)"):
        cmp = compare_single_vs_interlaced(1080, 1920, reps=20)
        assert cmp["ratio"] <= 1.5, cmp
        scaling = pyramid_scaling(1080, 1920, levels_list=(2, 4, 8, 16), reps=7)
        medians = [scaling[n] for n in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(medians, medians[1:])), scaling


def test_degenerate_inputs():
    """1x1 image, single-frame video, and exact-size inputs all complete."""
    with criterion("degenerate inputs (1x1 image, 1-frame video, exact 224/256)"):
        res = sample_image(constant_frame(1, 1, 50), SamplerConfig.iqa_default())
        assert res.tensor.data.shape == (1, 256, 256, 3)
        assert (res.tensor.data == 50).all()
        assert provenance_audit(res.tensor, res.pyramid).ok

        res = sample_video(MediaClip((coordinate_frame(240, 300),)), SamplerConfig())
        assert res.tensor.data.shape == (32, 224, 224, 3)
        assert provenance_audit(res.tensor, res.pyramid).ok

        res = sample_video(coordinate_clip(224, 224, 2), SamplerConfig())
        assert res.tensor.data.shape == (32, 224, 224, 3)
        assert provenance_audit(res.tensor, res.pyramid).ok

        res = sample_image(coordinate_frame(256, 256), SamplerConfig.iqa_default())
        assert res.tensor.data.shape == (1, 256, 256, 3)
        assert np.array_equal(res.tensor.data[0].shape, (256, 256, 3))
        assert provenance_audit(res.tensor, res.pyramid).ok
