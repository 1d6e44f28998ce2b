"""The benchmark's own tests: span arithmetic, the tail rule, failure
counting, and the reference sampler and codecs on hand-worked cases.

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import numpy as np
import pytest

from e2ebench import measure, reference, spans
from e2ebench.reference import Regime
from e2ebench.spans import Span


def _tree() -> list[Span]:
    return [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the root loses 1..6, not 6 s
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 5.5, 7.0, 2, 0),  # runs past its parent: only 5.5..6 counts
    ]


def test_self_times_subtract_the_union_of_children():
    assert spans.self_times(_tree()) == pytest.approx([5.0, 2.0, 2.5, 1.0, 1.5])


def test_layer_self_times_sum_within_the_operation():
    tracer = spans.Tracer(clock=lambda: 0.0)
    tracer.spans = [
        Span("op", 0.0, 1.0, -1, 0),
        Span("cli", 0.1, 0.9, 0, 0),
        Span("media.load", 0.2, 0.5, 1, 0),
        Span("media.load", 0.25, 0.45, 2, 0),
        Span("imageio.decode", 0.3, 0.4, 3, 0),
    ]
    (ops,) = spans.per_op_layers(tracer).values()
    assert ops.wall_ms == pytest.approx(1000.0)
    assert ops.self_ms["media.load"] == pytest.approx(200.0)
    assert ops.incl_ms["media.load"] == pytest.approx(300.0)  # outer span only
    assert ops.calls["media.load"] == 2
    assert spans.layer_self_sum_ms(ops) == pytest.approx(800.0)


def test_tracer_wraps_and_restores_a_module_function():
    import sama.imageio

    original = sama.imageio.decode_ppm
    tracer = spans.Tracer(clock=iter(range(100)).__next__)
    tracer.install()
    try:
        assert sama.imageio.decode_ppm is not original
        ppm = sama.imageio.encode_ppm(np.zeros((2, 3, 3), np.uint8))
        sama.imageio.decode_ppm(ppm)  # outside an operation: not recorded
        tracer.operation(0, lambda: sama.imageio.decode_ppm(ppm))
    finally:
        tracer.uninstall()
    assert sama.imageio.decode_ppm is original
    assert tracer.missing == []
    assert [s.name for s in tracer.spans] == ["op", "imageio.decode"]
    assert tracer.counts[0]["decode_mpx"] == pytest.approx(6e-6)


@pytest.mark.parametrize(
    "n, index, pct",
    [(11, 0, 100 / 11), (20, 9, 50.0), (25, 14, 60.0), (40, 29, 75.0), (1000, 989, 99.0)],
)
def test_tail_leaves_ten_samples_beyond(n, index, pct):
    values = list(range(n))[::-1]
    value, percentile = measure.tail(values)
    assert value == index
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(pct)


def test_tail_of_too_few_samples_is_the_median():
    assert measure.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_failures_are_counted_not_dropped():
    def operate(item, traced):
        if item == 1:
            raise RuntimeError("boom")
        return item

    def check(item, outcome):
        return "wrong output" if item == 2 else None

    samples = measure.run_rounds(4, operate, check, seconds=0.0)
    assert len(samples) == 4  # one whole round
    assert [s.ok for s in samples] == [True, False, False, True]
    assert samples[1].error.startswith("RuntimeError")
    assert samples[2].error == "wrong output"


def test_bilinear_two_by_two_to_one_pixel():
    # the single output center maps to the middle of the four inputs:
    # (0 + 1 + 2 + 4) / 4 = 1.75 -> 2, and (0 + 1 + 1 + 0) / 4 = 0.5 -> 1
    raw = np.zeros((2, 2, 3), np.uint8)
    raw[..., 0] = [[0, 1], [2, 4]]
    raw[..., 1] = [[0, 1], [1, 0]]
    got = reference.bilinear_at(raw, 1, 1, np.array([0]), np.array([0]))
    assert got.tolist() == [[2, 1, 0]]


def test_schedule_grid_and_selection_rules():
    assert reference.level_dims(1080, 1920, 224, 16)[0] == (1080, 1920)
    assert reference.level_dims(1080, 1920, 224, 16)[-1] == (224, 398)
    assert reference.level_dims(500, 500, 256, 2) == [(500, 500), (256, 256)]
    assert reference.fragment_origins(500, 8, 32).tolist() == [15, 77, 140, 202, 265, 327, 390, 452]
    assert reference.selected_frames(64, 32)[:3] == [1, 3, 5]
    assert reference.expected_shares(reference.IQA) == {0: 0.5, 1: 0.5}
    assert reference.expected_shares(reference.VQA) == {s: 1 / 16 for s in range(16)}


def test_reference_matches_the_sampler_on_a_small_clip():
    import sama

    rng = np.random.default_rng(0)
    frames = [rng.integers(0, 256, (21, 34, 3), dtype=np.uint8) for _ in range(8)]
    regime = Regime(2, 2, 4, 4, 4, 2, "progressive")
    config = sama.SamplerConfig(
        grid_rows=2, grid_cols=2, frag_h=4, frag_w=4, frames_out=4, n_scales=2
    )
    clip = sama.MediaClip(tuple(sama.FrameBuffer(f) for f in frames))
    got = sama.sample_video(clip, config).tensor.data
    sources = reference.selected_frames(8, 4)
    want = np.stack([reference.expected_frame(frames[f], regime, t) for t, f in enumerate(sources)])
    assert np.abs(got.astype(int) - want.astype(int)).max() <= 1


def test_png_encoder_uses_every_filter_and_round_trips():
    from sama.imageio import decode_png

    pixels = np.random.default_rng(1).integers(0, 256, (10, 7, 3), dtype=np.uint8)
    data = reference.encode_png(pixels, lambda r: r % 5)
    assert np.array_equal(decode_png(data), pixels)


def test_container_pixels_reads_a_written_container(tmp_path):
    import sama

    frame = sama.FrameBuffer(np.random.default_rng(2).integers(0, 256, (300, 280, 3), dtype=np.uint8))
    tensor = sama.sample_image(frame, sama.SamplerConfig.iqa_default()).tensor
    sama.write_container(tensor, tmp_path / "x.sama")
    got = reference.container_pixels((tmp_path / "x.sama").read_bytes())
    assert np.array_equal(got, tensor.data)


def test_benchmark_json_lists_what_the_command_prints():
    import json
    from pathlib import Path

    from e2ebench.run import END_TO_END_UNITS
    from e2ebench.workloads import WORKLOADS

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    layer_units = {k: unit for k, (unit, _) in spans.LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {**layer_units, "trace.overhead_ms": "ms"}
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
