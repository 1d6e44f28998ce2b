import itertools
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sama import media
from sama.errors import ConfigError
from sama.masks import SPATIAL_KINDS, TEMPORAL_KINDS, make_spatial_mask, make_temporal_mask
from sama.media import MediaClip, SamplerConfig, select_frames
from sama.pack import container_bytes, provenance_audit
from sama.pipeline import sample_image, sample_media, sample_video
from sama.pyramid import build_pyramid

from conftest import constant_frame, coordinate_clip, coordinate_frame
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

    pyramid = build_pyramid(frame, cfg)
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
    pyramid = build_pyramid(frame, cfg)
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
    pyramid = build_pyramid(frame, cfg)
    mosaic = sample_fragments(pyramid[0], cfg)
    assert np.array_equal(fused.data[0], mosaic.frames[0])
    assert (fused.provenance["scale"] == 0).all()


# ---------------------------------------------------------------------------
# Combined spatial + temporal (experimental)


def test_combined_masks_audits_clean():
    cfg = SamplerConfig(
        frames_out=8, n_scales=4, temporal_mask="progressive",
        spatial_mask="window", seed=3,
    )
    clip = coordinate_clip(320, 420, 8)
    with pytest.warns(UserWarning, match="experimental"):
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
    with pytest.warns(UserWarning, match="experimental"):
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
        tensor = sample_image(coordinate_frame(500, 600), cfg).tensor
    else:
        tensor = sample_video(coordinate_clip(300, 600, 4), cfg).tensor
    counts = make_spatial_mask(cfg.spatial_mask, cfg.out_h, cfg.out_w).tile_counts()
    tiles = sum(counts.values())
    # mask index 0 is the raw level, index 1 the coarsest
    levels = (0, cfg.n_scales - 1)
    expected = {levels[k]: n / tiles for k, n in counts.items()}
    assert tensor.scale_shares() == pytest.approx(expected)


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


def test_sample_media_dispatch():
    assert sample_media(coordinate_frame(256, 256), SamplerConfig.iqa_default()).tensor.kind == "image"
    assert sample_media(coordinate_clip(224, 224, 2), SamplerConfig()).tensor.kind == "video"
    with pytest.raises(TypeError):
        sample_media("nope", SamplerConfig())


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
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "combining spatial and temporal", UserWarning)
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
    assert accepted > 50


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

