import itertools
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sama import media
from sama.bench import synthetic_clip
from sama.errors import ConfigError
from sama.masks import (
    SPATIAL_KINDS, TEMPORAL_KINDS, make_interlace_mask, make_spatial_mask, make_temporal_mask,
)
from sama.media import PROVENANCE_DTYPE, MediaClip, SamplerConfig, select_frames
from sama.pack import container_bytes, provenance_audit
from sama.pipeline import _render, plan_sampling, sample_image, sample_video
from sama.pyramid import build_pyramid

from conftest import constant_frame, coordinate_clip, coordinate_frame, write_clip
from oracle import compose_spatial, compose_temporal, sample_fragments


def assert_tensors_equal(a, b):
    assert np.array_equal(a.data, b.data)
    assert a.provenance is not None and b.provenance is not None
    for name in a.provenance.dtype.names:
        assert np.array_equal(a.provenance[name], b.provenance[name])


# ---------------------------------------------------------------------------
# Fused pipeline == reference composition of whole-level mosaics (oracle)


@pytest.mark.parametrize("kind", ["window", "patch"])
@pytest.mark.parametrize("policy", ["center", "random"])
def test_image_fused_matches_reference(kind, policy):
    cfg = SamplerConfig.iqa_default(spatial_mask=kind, offset_policy=policy, seed=13)
    frame = coordinate_frame(700, 1100)
    fused = sample_image(frame, cfg).tensor

    pyramid = build_pyramid(MediaClip((frame,)), cfg)
    m0 = sample_fragments(pyramid[0], cfg)
    m1 = sample_fragments(pyramid[1], cfg)
    mask = make_spatial_mask(kind, cfg.out_h, cfg.out_w)
    reference = compose_spatial(m0, m1, mask, cfg)
    assert_tensors_equal(fused, reference)


@pytest.mark.parametrize("kind, frames, scales", [
    ("progressive", 8, 4),
    ("choppy", 8, 4),
    ("mixed", 8, 2),
    ("progressive", 12, 6),
])
@pytest.mark.parametrize("policy", ["center", "random"])
def test_video_fused_matches_reference(kind, frames, scales, policy):
    cfg = SamplerConfig(
        frames_out=frames, n_scales=scales, temporal_mask=kind,
        offset_policy=policy, seed=29,
    )
    clip = coordinate_clip(300, 460, 10)
    fused = sample_video(clip, cfg).tensor

    selected = select_frames(clip, frames, cfg.seed, cfg.offset_policy)
    pyramid = build_pyramid(selected, cfg)
    mask = make_temporal_mask(kind, frames, scales)
    mosaics = {s: sample_fragments(pyramid[s], cfg) for s in set(mask.schedule)}
    reference = compose_temporal(mosaics, mask, cfg)
    assert_tensors_equal(fused, reference)
    assert fused.schedule == mask.schedule


def test_video_spatial_only_matches_reference():
    cfg = SamplerConfig(
        frames_out=4, n_scales=2, temporal_mask="none", spatial_mask="window", seed=5
    )
    clip = coordinate_clip(280, 350, 4)
    fused = sample_video(clip, cfg).tensor

    selected = select_frames(clip, 4, cfg.seed, cfg.offset_policy)
    pyramid = build_pyramid(selected, cfg)
    mask = make_spatial_mask("window", cfg.out_h, cfg.out_w)
    reference = compose_spatial(
        sample_fragments(pyramid[0], cfg), sample_fragments(pyramid[1], cfg), mask, cfg
    )
    assert_tensors_equal(fused, reference)


def test_aligned_offsets_image_matches_reference():
    cfg = SamplerConfig.iqa_default(
        offset_policy="random", aligned_offsets=True, seed=31
    )
    frame = coordinate_frame(640, 900)
    fused = sample_image(frame, cfg).tensor
    pyramid = build_pyramid(MediaClip((frame,)), cfg)
    m0 = sample_fragments(pyramid[0], cfg)
    m1 = sample_fragments(pyramid[1], cfg)
    mask = make_spatial_mask("window", cfg.out_h, cfg.out_w)
    assert_tensors_equal(fused, compose_spatial(m0, m1, mask, cfg))
    assert provenance_audit(fused, pyramid).ok


@pytest.mark.parametrize("cfg", [
    SamplerConfig.iqa_default(offset_policy="random", seed=41),
    SamplerConfig.iqa_default(spatial_mask="patch", seed=42),
    SamplerConfig.iqa_default(spatial_mask="none", n_scales=1, seed=43),
], ids=["window", "patch", "single-scale"])
def test_image_is_a_one_frame_clip(cfg):
    frame = coordinate_frame(300, 520)
    image = sample_image(frame, cfg).tensor
    video = sample_video(MediaClip((frame,)), replace(cfg, frames_out=1)).tensor
    assert image.kind == "image"
    assert_tensors_equal(image, video)


def test_image_ignores_frames_out():
    res = sample_image(coordinate_frame(300, 300), SamplerConfig.iqa_default(frames_out=8))
    assert res.tensor.data.shape == (1, 256, 256, 3)
    assert (res.tensor.provenance["frame"] == 0).all()


def test_single_scale_image_is_plain_mosaic():
    cfg = SamplerConfig.iqa_default(spatial_mask="none", n_scales=1, seed=2)
    frame = coordinate_frame(500, 640)
    fused = sample_image(frame, cfg).tensor
    pyramid = build_pyramid(MediaClip((frame,)), cfg)
    mosaic = sample_fragments(pyramid[0], cfg)
    assert np.array_equal(fused.data[0], mosaic.frames[0])
    assert (fused.provenance["scale"] == 0).all()


# ---------------------------------------------------------------------------
# Combined spatial + temporal


def test_combined_masks_audits_clean():
    cfg = SamplerConfig(
        frames_out=8, n_scales=4, temporal_mask="progressive",
        spatial_mask="window", seed=3,
    )
    clip = coordinate_clip(320, 420, 8)
    res = sample_video(clip, cfg)
    assert res.tensor.data.shape == (8, 224, 224, 3)
    report = provenance_audit(res.tensor, res.pyramid)
    assert report.ok
    # each frame pair mixes schedule[k] with schedule[k]+1, clamped at the top
    for t in range(8):
        scales = set(np.unique(res.tensor.provenance["scale"][t]))
        base = t // 2
        assert scales == ({base, base + 1} if base < 3 else {3})


def test_progressive_window_top_pair_is_owned_by_the_top_level():
    cfg = SamplerConfig(
        frames_out=8, n_scales=4, temporal_mask="progressive",
        spatial_mask="window", offset_policy="random", seed=5,
    )
    res = sample_video(coordinate_clip(300, 380, 8), cfg)
    scale = res.tensor.provenance["scale"]
    assert (scale[6:] == 3).all()  # the last pair is scheduled at the top level
    owner = make_spatial_mask("window", 224, 224).indices
    for t in range(6):  # below the top, the window mask splits each pair
        assert np.array_equal(scale[t], t // 2 + owner)
    assert provenance_audit(res.tensor, res.pyramid).mismatches == 0


@pytest.mark.parametrize("cfg, media", [
    (SamplerConfig.iqa_default(grid_rows=7, grid_cols=7), "image"),
    (SamplerConfig.iqa_default(grid_rows=7, grid_cols=7, spatial_mask="patch"), "image"),
    (SamplerConfig(frames_out=4, n_scales=2, temporal_mask="none",
                   spatial_mask="window", grid_rows=5, grid_cols=7), "video"),
], ids=["iqa-window", "iqa-patch", "video-window"])
def test_scale_shares_are_the_mask_tile_counts(cfg, media):
    if media == "image":
        result = sample_image(coordinate_frame(500, 600), cfg)
    else:
        result = sample_video(coordinate_clip(300, 600, 4), cfg)
    counts = make_spatial_mask(cfg.spatial_mask, cfg.out_h, cfg.out_w).tile_counts()
    tiles = sum(counts.values())
    # mask index 0 is the raw level, index 1 the coarsest
    levels = (0, cfg.n_scales - 1)
    expected = {levels[k]: n / tiles for k, n in counts.items()}
    assert result.tensor.scale_shares() == pytest.approx(expected)
    assert result.plan.shares() == pytest.approx(expected)


def test_planning_reads_no_frame(monkeypatch, tmp_path):
    # the plan is a function of the config, the clip's dims and the selected
    # keys: planning the VQA default from them alone reads nothing, and
    # sampling the clip reads
    reads = []
    real = media._FrameStore.read

    def spy(store, i, rows=None):
        reads.append(i)
        return real(store, i, rows)

    monkeypatch.setattr(media._FrameStore, "read", spy)
    write_clip(tmp_path / "clip", 12, 120, 160)
    clip = media.load_clip(tmp_path / "clip")
    config = SamplerConfig.vqa_default()
    selected = select_frames(clip, config.frames_out, config.seed, config.offset_policy)
    plan = plan_sampling(120, 160, selected.source_keys, config)
    assert reads == []
    assert plan.source_keys == selected.source_keys
    assert plan.frame_levels == tuple((t // 2,) for t in range(32))
    assert sorted(plan.offsets) == list(range(16))
    result = sample_video(clip, config)
    assert sorted(set(reads)) == sorted(set(selected.source_keys))
    assert plan.shares() == result.plan.shares() == result.tensor.scale_shares()


def test_plan_shares_are_the_record_counts_of_the_iqa_default():
    result = sample_image(coordinate_frame(300, 400), SamplerConfig.iqa_default())
    assert result.plan.shares() == result.tensor.scale_shares() == {0: 0.5, 1: 0.5}


def _isin_parts(plan, levels):
    """``SamplingPlan.parts`` by ``np.isin``: a level owns the pixels whose
    owner index is any of the indices at which ``levels`` names it."""
    owner = plan.owner.reshape(-1)
    parts = []
    for s in sorted(set(levels)):
        index = [k for k, level in enumerate(levels) if level == s]
        owned = None if len(index) == len(levels) else np.isin(owner, index)
        if owned is None or owned.any():
            parts.append((s, owned))
    return parts


def _assert_parts_are_the_isin_reference(plan, levels):
    parts, reference = plan.parts(levels), _isin_parts(plan, levels)
    assert [s for s, _ in parts] == [s for s, _ in reference]
    for (_, owned), (_, expected) in zip(parts, reference):
        if expected is None:
            assert owned is None
        else:
            assert owned.dtype == bool and np.array_equal(owned, expected)


@pytest.mark.parametrize("spatial_mask", ["window", "patch"])
@pytest.mark.parametrize("default, frames", [("vqa", 32), ("iqa", 1)])
def test_parts_are_the_isin_of_each_levels_owner_indices(default, frames, spatial_mask):
    cfg = getattr(SamplerConfig, f"{default}_default")(spatial_mask=spatial_mask)
    plan = plan_sampling(540, 960, tuple(range(frames)), cfg)
    for levels in sorted(set(plan.frame_levels)):
        _assert_parts_are_the_isin_reference(plan, levels)


def test_parts_or_the_owner_indices_that_name_one_level():
    # no mode names a level at two indices yet: a 3-level stagger over the
    # levels (1, 2, 2) gives level 2 the pixels of owner indices 1 and 2
    cfg = SamplerConfig.vqa_default(spatial_mask="window")
    plan = plan_sampling(540, 960, tuple(range(cfg.frames_out)), cfg)
    owner = make_interlace_mask(3, cfg.out_h, cfg.out_w, 32).indices
    plan = replace(plan, owner=owner)
    for levels in [(1, 2, 2), (2, 1, 1), (3, 3, 3)]:
        _assert_parts_are_the_isin_reference(plan, levels)
    (_, first), (_, second) = plan.parts((1, 2, 2))
    assert np.array_equal(first, owner.reshape(-1) == 0)
    assert np.array_equal(second, owner.reshape(-1) != 0)


# ---------------------------------------------------------------------------
# Shapes, degenerate inputs, determinism


def test_vqa_default_shape():
    res = sample_video(coordinate_clip(240, 900, 3), SamplerConfig())
    assert res.tensor.data.shape == (32, 224, 224, 3)
    assert res.tensor.schedule == tuple(range(16))


def test_iqa_default_shape():
    res = sample_image(coordinate_frame(2000, 300), SamplerConfig.iqa_default())
    assert res.tensor.data.shape == (1, 256, 256, 3)


def test_degenerate_one_pixel_image():
    res = sample_image(constant_frame(1, 1, 99), SamplerConfig.iqa_default())
    assert res.tensor.data.shape == (1, 256, 256, 3)
    assert (res.tensor.data == 99).all()
    assert provenance_audit(res.tensor, res.pyramid).ok


def test_degenerate_single_frame_video():
    clip = MediaClip((coordinate_frame(230, 500),))
    res = sample_video(clip, SamplerConfig())
    assert res.tensor.data.shape == (32, 224, 224, 3)
    # one source frame: every output frame identical
    for t in range(1, 32):
        if res.tensor.schedule[t // 2] == res.tensor.schedule[0]:
            assert np.array_equal(res.tensor.data[t], res.tensor.data[0])
    assert provenance_audit(res.tensor, res.pyramid).ok


def test_degenerate_exact_output_size_inputs():
    res_i = sample_image(coordinate_frame(224, 224), SamplerConfig.iqa_default(
        grid_rows=7, grid_cols=7
    ))
    assert res_i.tensor.data.shape == (1, 224, 224, 3)
    assert provenance_audit(res_i.tensor, res_i.pyramid).ok

    res_v = sample_video(coordinate_clip(224, 224, 4), SamplerConfig())
    assert res_v.tensor.data.shape == (32, 224, 224, 3)
    assert provenance_audit(res_v.tensor, res_v.pyramid).ok
    # every level degenerates to raw dims; mosaic equals the frame itself
    assert np.array_equal(res_v.tensor.data[0], res_v.pyramid[0].frame(0))


def test_small_input_upscaled_video():
    res = sample_video(coordinate_clip(60, 90, 2), SamplerConfig())
    assert res.tensor.data.shape == (32, 224, 224, 3)
    assert provenance_audit(res.tensor, res.pyramid).ok


def test_repeat_runs_bit_identical():
    frame = coordinate_frame(600, 450)
    cfg = SamplerConfig.iqa_default(offset_policy="random", seed=99)
    a = container_bytes(sample_image(frame, cfg).tensor)
    b = container_bytes(sample_image(frame, cfg).tensor)
    assert a == b


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        sample_image(coordinate_frame(300, 300), SamplerConfig.iqa_default(n_scales=3))
    with pytest.raises(ConfigError):
        sample_video(
            coordinate_clip(230, 230, 2),
            SamplerConfig(temporal_mask="none", spatial_mask="none", n_scales=4),
        )


def test_validate_passes_exactly_when_sample_video_succeeds(monkeypatch):
    # every (spatial, temporal, frames_out, n_scales) of a small grid: a config
    # validate accepts samples, and a rejected one is one ConfigError raised
    # before any frame is read
    reads = []
    real = media._FrameStore.read

    def spy(store, i, rows=None):
        reads.append(i)
        return real(store, i, rows)

    monkeypatch.setattr(media._FrameStore, "read", spy)
    clip = coordinate_clip(40, 48, 3)
    accepted = 0
    for spatial, temporal, frames, n in itertools.product(
        SPATIAL_KINDS, TEMPORAL_KINDS, range(1, 10), range(0, 6)
    ):
        cfg = SamplerConfig(
            grid_rows=1, grid_cols=1, frames_out=frames, n_scales=n,
            spatial_mask=spatial, temporal_mask=temporal,
        )
        reads.clear()
        try:
            cfg.validate("video")
        except ConfigError:
            with pytest.raises(ConfigError):
                sample_video(clip, cfg)
            assert reads == [], cfg
            continue
        result = sample_video(clip, cfg)
        accepted += 1
        assert result.tensor.data.shape == (frames, 32, 32, 3)
        assert len(result.pyramid) == n
        assert provenance_audit(result.tensor, result.pyramid).mismatches == 0, cfg
        assert result.plan.shares() == result.tensor.scale_shares(), cfg
    assert accepted > 50


def test_frames_out_is_bounded_by_the_frames_provenance_can_name():
    # a record's frame field is u16: slot 65,536 would be recorded as slot 0
    cfg = SamplerConfig(
        grid_rows=1, grid_cols=1, frag_h=1, frag_w=1, frames_out=2**16,
        n_scales=2, temporal_mask="choppy",
    )
    clip = coordinate_clip(1, 1, 3)
    frames = sample_video(clip, cfg).tensor.provenance["frame"]
    assert np.array_equal(frames.reshape(-1), np.arange(2**16))
    with pytest.raises(ConfigError, match="frames_out must be in"):
        sample_video(clip, replace(cfg, frames_out=2**16 + 2))


def test_timings_reported():
    res = sample_image(coordinate_frame(400, 400), SamplerConfig.iqa_default())
    assert set(res.timings) == {"pyramid", "fragments", "compose"}
    assert all(t >= 0 for t in res.timings.values())


def test_video_timings_are_disjoint_wall_spans():
    clip = coordinate_clip(260, 340, 6)
    cfg = SamplerConfig(frames_out=8, n_scales=4, offset_policy="random", seed=17)
    t0 = time.perf_counter()
    res = sample_video(clip, cfg)
    wall = time.perf_counter() - t0
    assert set(res.timings) == {"pyramid", "fragments", "compose"}
    assert all(t >= 0 for t in res.timings.values())
    assert sum(res.timings.values()) <= wall



_WORKING_SETS = {
    "vqa": (SamplerConfig.vqa_default(), 8),
    "vqa-window": (SamplerConfig.vqa_default(spatial_mask="window"), 8),
    "iqa-window": (SamplerConfig.iqa_default(), 1),
}


def _working_set(name):
    """(plan, pyramid, frame bytes) of a config over a 540x960 synthetic clip."""
    cfg, n_frames = _WORKING_SETS[name]
    height, width = 540, 960
    clip = select_frames(synthetic_clip(height, width, n_frames), cfg.frames_out)
    plan = plan_sampling(height, width, clip.source_keys, cfg)
    return plan, build_pyramid(clip, cfg), height * width * 3


def _peak(call):
    call()  # warm up outside the measure
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tuple_bytes(plan, pyramid, levels):
    """The bytes one level tuple's taps hold: each part's taps, plus a part
    that owns some pixels' owner mask."""
    pixels = plan.owner.size
    src = pyramid[0].sources
    held = 0
    for s, owned in plan.parts(levels):
        n = pixels if owned is None else int(np.count_nonzero(owned))
        at_source = (pyramid[s].height, pyramid[s].width) == (src.height, src.width)
        held += n * (8 if at_source else 4 * 8 + 2 * 3 * 4)  # index, fractions
        if owned is not None:
            held += pixels  # the owner mask
    return held


def _largest_group_bytes(plan, pyramid):
    """The most bytes one group of source frames drawing on the same level
    tuples holds through its gathers: every tuple's taps, as each of the
    group's source frames draws on them all. A tuple's coordinates, fewer
    bytes than its taps, are dropped as its taps are built."""
    tuples: dict[int, set] = {}
    for key, levels in zip(plan.source_keys, plan.frame_levels):
        tuples.setdefault(key, set()).add(levels)
    return max(
        sum(_tuple_bytes(plan, pyramid, levels) for levels in group)
        for group in {frozenset(levels) for levels in tuples.values()}
    )


_CORNERS = 3 * (4 + 4 * 4 + 1)  # bytes a pixel: uint8 taps, their float32 copy, the blend


@pytest.mark.parametrize("name", sorted(_WORKING_SETS))
def test_render_working_set_is_the_output_and_one_group_of_taps(name):
    plan, pyramid, frame_rows = _working_set(name)
    pixels = plan.owner.size
    output = len(plan.frame_levels) * pixels * 3
    corners = pixels * _CORNERS
    slack = 2 * 2**20
    peak = _peak(lambda: _render(plan, pyramid))
    group = _largest_group_bytes(plan, pyramid)
    assert peak < output + group + frame_rows + corners + slack, (peak, group)


@pytest.mark.parametrize("n_frames", [1, 3])
def test_render_of_a_short_clip_holds_one_level_tuple_of_taps_at_a_time(n_frames):
    """Under the VQA default a clip shorter than ``frames_out`` repeats each
    source frame over many level tuples, and each source frame draws on
    tuples of its own. A tuple's taps live from its first output frame to
    its last, so the render holds no more than two tuples' taps at once,
    not every tuple of the source frame."""
    cfg = SamplerConfig.vqa_default()
    height, width = 40, 56
    clip = select_frames(synthetic_clip(height, width, n_frames), cfg.frames_out)
    plan = plan_sampling(height, width, clip.source_keys, cfg)
    pyramid = build_pyramid(clip, cfg)
    pixels = plan.owner.size
    output = len(plan.frame_levels) * pixels * 3
    taps = max(_tuple_bytes(plan, pyramid, levels) for levels in set(plan.frame_levels))
    slack = 2 * 2**20
    peak = _peak(lambda: _render(plan, pyramid))
    assert peak < output + 2 * taps + height * width * 3 + pixels * _CORNERS + slack, (peak, taps)


@pytest.mark.parametrize("spatial_mask", ["none", "window", "patch"])
def test_render_under_a_spatial_mask_builds_a_parts_coordinates_only_for_its_taps(spatial_mask):
    """A one-frame 540x960 clip under the VQA default repeats its frame
    over every level tuple of the schedule. Under a spatial mask each
    tuple's parts hold nothing until their taps are built (the owner
    masks are compared afresh then), so the render peaks as it does
    without a mask (about 13 MB); building every tuple's owned-pixel
    coordinates (16 bytes a pixel) before the first read peaked at 24.3
    MB."""
    cfg = SamplerConfig.vqa_default(spatial_mask=spatial_mask)
    clip = select_frames(synthetic_clip(540, 960, 1), cfg.frames_out)
    plan = plan_sampling(540, 960, clip.source_keys, cfg)
    pyramid = build_pyramid(clip, cfg)
    peak = _peak(lambda: _render(plan, pyramid))
    assert peak < 14_000_000, peak


@pytest.mark.parametrize("name", sorted(_WORKING_SETS))
def test_provenance_working_set_is_the_records_and_one_frame(name):
    plan, _, _ = _working_set(name)
    frame = plan.owner.size * PROVENANCE_DTYPE.itemsize
    records = len(plan.frame_levels) * frame
    peak = _peak(plan.provenance)
    assert peak < records + frame + 2**20, peak
