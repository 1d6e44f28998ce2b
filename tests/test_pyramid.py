import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sama.errors import InputTooSmall
from sama.media import FrameBuffer, MediaClip, SamplerConfig, load_clip, load_image
from sama.pyramid import (
    PyramidLevel,
    build_pyramid,
    resize_rect,
    resize_rgb,
    scale_schedule,
)

from conftest import constant_frame, coordinate_clip, coordinate_frame, write_clip


def schedule_oracle(raw_h, raw_w, target, levels):
    """Brute-force schedule: linear min-side, off side from raw aspect."""
    raw_min = min(raw_h, raw_w)
    dims = []
    for k in range(levels):
        if levels == 1:
            m = raw_min
        elif k == levels - 1:
            m = target
        else:
            m = math.floor(raw_min + k * (target - raw_min) / (levels - 1) + 0.5)
        if raw_h <= raw_w:
            dims.append((m, math.floor(m * raw_w / raw_h + 0.5)))
        else:
            dims.append((math.floor(m * raw_h / raw_w + 0.5), m))
    dims[0] = (raw_h, raw_w)
    return dims


# ---------------------------------------------------------------------------
# scale_schedule


def test_two_level_full_hd():
    sched = scale_schedule(1080, 1920, 224, 2)
    assert list(sched) == [(1080, 1920), (224, 398)]


def test_single_level_degenerate():
    assert list(scale_schedule(224, 224, 224, 1)) == [(224, 224)]


def test_sixteen_levels_match_oracle():
    sched = scale_schedule(1080, 1920, 224, 16)
    assert list(sched) == schedule_oracle(1080, 1920, 224, 16)
    # frozen from the oracle: min-sides step down by ~57
    assert sched.min_sides == (
        1080, 1023, 966, 909, 852, 795, 738, 681,
        623, 566, 509, 452, 395, 338, 281, 224,
    )


def test_schedule_linearity_and_terminal():
    for raw_h, raw_w, levels in [(1080, 1920, 16), (2160, 1000, 7), (500, 500, 3)]:
        sched = scale_schedule(raw_h, raw_w, 224, levels)
        raw_min = min(raw_h, raw_w)
        for k, m in enumerate(sched.min_sides):
            ideal = raw_min + k * (224 - raw_min) / (levels - 1)
            assert abs(m - ideal) <= 0.5
        assert sched.min_sides[-1] == 224
        assert sched[0] == (raw_h, raw_w)


def test_schedule_allows_rounding_ties():
    # raw min barely above the target: consecutive levels may repeat
    sched = scale_schedule(225, 300, 224, 16)
    mins = sched.min_sides
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert mins[-1] == 224


def test_schedule_aspect_from_raw_not_chained():
    sched = scale_schedule(1080, 1920, 224, 16)
    for h, w in sched:
        assert abs(w - h * 1920 / 1080) <= 0.5 + 1e-9


def test_schedule_input_too_small():
    with pytest.raises(InputTooSmall):
        scale_schedule(200, 1920, 224, 2)


# ---------------------------------------------------------------------------
# resize_rgb


@settings(max_examples=40, deadline=None)
@given(
    value=st.integers(0, 255),
    in_h=st.integers(1, 10),
    in_w=st.integers(1, 10),
    out_h=st.integers(1, 20),
    out_w=st.integers(1, 20),
)
def test_resize_preserves_constants(value, in_h, in_w, out_h, out_w):
    out = resize_rgb(constant_frame(in_h, in_w, value).data, out_h, out_w)
    assert out.shape == (out_h, out_w, 3)
    assert (out == value).all()


def test_resize_half_pixel_column_average():
    # two columns 0 and 255 collapse to their midpoint, rounded half up
    data = np.zeros((2, 2, 3), dtype=np.uint8)
    data[:, 1, :] = 255
    out = resize_rgb(data, 2, 1)
    assert out.shape == (2, 1, 3)
    assert (out == 128).all()


def test_resize_identity_is_byte_identical():
    frame = coordinate_frame(13, 17)
    out = resize_rgb(frame.data, 13, 17)
    assert np.array_equal(out, frame.data)


def test_resize_scalar_oracle_small_case():
    """Cross-check against an independent per-pixel scalar implementation."""
    frame = coordinate_frame(5, 7)
    out = resize_rgb(frame.data, 3, 4)
    src = frame.data.astype(np.float64)
    for dy in range(3):
        for dx in range(4):
            sy = min(max((dy + 0.5) * 5 / 3 - 0.5, 0.0), 4.0)
            sx = min(max((dx + 0.5) * 7 / 4 - 0.5, 0.0), 6.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, 4), min(x0 + 1, 6)
            fy, fx = sy - y0, sx - x0
            for ch in range(3):
                expect = (
                    src[y0, x0, ch] * (1 - fy) * (1 - fx)
                    + src[y0, x1, ch] * (1 - fy) * fx
                    + src[y1, x0, ch] * fy * (1 - fx)
                    + src[y1, x1, ch] * fy * fx
                )
                assert abs(int(out[dy, dx, ch]) - expect) <= 0.5 + 1e-6


def test_resize_gradient_plane_within_one_step():
    # analytic plane v(y, x) = 2y + 3x survives up- and downscaling
    yy, xx = np.mgrid[0:16, 0:16]
    plane = (2 * yy + 3 * xx).astype(np.uint8)
    frame = FrameBuffer(np.stack([plane] * 3, axis=-1))
    up = resize_rgb(frame.data, 64, 64)
    down = resize_rgb(up, 24, 40)
    for dy in range(24):
        sy = min(max((dy + 0.5) * 64 / 24 - 0.5, 0.0), 63.0)
        oy = min(max((sy + 0.5) * 16 / 64 - 0.5, 0.0), 15.0)
        for dx in range(40):
            sx = min(max((dx + 0.5) * 64 / 40 - 0.5, 0.0), 63.0)
            ox = min(max((sx + 0.5) * 16 / 64 - 0.5, 0.0), 15.0)
            assert abs(int(down[dy, dx, 0]) - (2 * oy + 3 * ox)) <= 1.0 + 1e-6


@pytest.mark.parametrize("src_hw, out_hw", [
    ((540, 960), (350, 622)),  # downscale
    ((300, 300), (224, 224)),
    ((150, 170), (224, 254)),  # upscale
])
def test_resize_rect_is_a_window_of_the_full_resize(src_hw, out_hw):
    src = coordinate_frame(*src_hw).data
    full = resize_rgb(src, *out_hw)
    h, w = out_hw
    for y0, x0 in ((0, 0), (0, w - 32), (h - 32, 0), (h - 32, w - 32), (h // 3, w // 2)):
        window = resize_rect(src, h, w, y0, x0, 32, 32)
        assert np.array_equal(window, full[y0 : y0 + 32, x0 : x0 + 32])


# ---------------------------------------------------------------------------
# Upscaling: build_pyramid upscales a source below the target min side


def _raw_level(media, target_min):
    """Level 0 of a one-level pyramid whose target min side is ``target_min``."""
    config = SamplerConfig(grid_rows=1, grid_cols=1, frag_h=target_min, frag_w=target_min)
    (level,) = build_pyramid(media, config, levels=1)
    return level


def test_upscale_cases():
    up = _raw_level(constant_frame(100, 200, 9), 224)
    assert (up.height, up.width) == (224, 448)
    same = _raw_level(coordinate_frame(224, 448), 224)
    assert np.array_equal(same.frame(0), coordinate_frame(224, 448).data)
    dot = _raw_level(constant_frame(1, 1, 77), 224)
    assert (dot.height, dot.width) == (224, 224)
    assert (dot.frame(0) == 77).all()


def _dims_at_min_side(raw_h, raw_w, m):
    if raw_h <= raw_w:
        return m, math.floor(m * raw_w / raw_h + 0.5)
    return math.floor(m * raw_h / raw_w + 0.5), m


@settings(max_examples=150, deadline=None)
@given(
    raw_h=st.integers(1, 1500),
    raw_w=st.integers(1, 1500),
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    frag=st.sampled_from([1, 4, 32]),
)
def test_coarsest_level_is_the_least_size_covering_the_output(raw_h, raw_w, rows, cols, frag):
    cfg = SamplerConfig(grid_rows=rows, grid_cols=cols, frag_h=frag, frag_w=frag)
    least = next(
        m for m in range(1, 2 * max(cfg.out_h, cfg.out_w) + 1)
        if all(a >= b for a, b in zip(_dims_at_min_side(raw_h, raw_w, m), (cfg.out_h, cfg.out_w)))
    )
    if cfg.out_h == cfg.out_w:
        assert least == cfg.out_h
    frame = FrameBuffer(np.broadcast_to(np.uint8(0), (raw_h, raw_w, 3)))  # reads nothing
    raw, coarsest = build_pyramid(frame, cfg, levels=2)
    assert (coarsest.height, coarsest.width) == _dims_at_min_side(raw_h, raw_w, least)
    if min(raw_h, raw_w) < least:
        assert (raw.height, raw.width) == (coarsest.height, coarsest.width)
    else:
        assert (raw.height, raw.width) == (raw_h, raw_w)


def test_upscale_clip():
    clip = coordinate_clip(50, 80, 3)
    up = _raw_level(clip, 224)
    assert (up.height, up.width) == (224, 358)
    assert up.frame_count == 3


# ---------------------------------------------------------------------------
# build_pyramid


def test_pyramid_dims_follow_schedule():
    cfg = SamplerConfig.iqa_default()  # target 256
    levels = build_pyramid(coordinate_frame(1080, 1920), cfg)
    assert [(l.height, l.width) for l in levels] == [(1080, 1920), (256, 455)]


def test_pyramid_single_level_is_raw():
    cfg = SamplerConfig.iqa_default(spatial_mask="none", n_scales=1)
    frame = coordinate_frame(700, 900)
    (lvl,) = build_pyramid(frame, cfg)
    assert lvl.frame(0) is frame.data  # shared, no resample


def test_pyramid_level0_bytes_identical_without_upscale():
    cfg = SamplerConfig()  # 16 levels, target 224
    frame = coordinate_frame(540, 960)
    levels = build_pyramid(frame, cfg)
    assert levels[0].frame(0) is frame.data
    assert levels[-1].height == 224 or levels[-1].width == 224


def test_pyramid_video_conserves_frames():
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    clip = coordinate_clip(240, 320, 8)
    levels = build_pyramid(clip, cfg)
    assert len(levels) == 4
    for lvl in levels:
        assert lvl.frame_count == 8
        for i in range(lvl.frame_count):
            assert lvl.frame(i).shape == (lvl.height, lvl.width, 3)
    assert levels[-1].height == 224


def test_pyramid_full_video_regime_dims():
    # 540x960 clip of 32 frames through the 16-level default schedule
    frame = coordinate_frame(540, 960)
    clip = MediaClip((frame,) * 32)
    levels = build_pyramid(clip, SamplerConfig())
    expected = schedule_oracle(540, 960, 224, 16)
    assert [(l.height, l.width) for l in levels] == expected
    assert all(l.frame_count == 32 for l in levels)
    # spot-materialize a few frames; repeated sources resize once
    mid = levels[7]
    assert mid.frame(0).shape == (mid.height, mid.width, 3)
    assert mid.frame(31) is mid.frame(0)


def test_pyramid_lazy_cache_dedups_repeated_frames():
    frame = coordinate_frame(300, 300)
    clip = MediaClip((frame,) * 6)
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    levels = build_pyramid(clip, cfg)
    a = levels[2].frame(0)
    b = levels[2].frame(5)
    assert a is b  # one resize for the repeated source frame


def test_level_frames_of_a_lazy_clip_are_memoized_per_frame(tmp_path):
    # the sources are released after each read, so a new frame may reuse a
    # freed one's id: the memo must not return another frame's pixels
    paths = write_clip(tmp_path / "clip", 6, 240, 320)
    levels = build_pyramid(load_clip(tmp_path / "clip"), SamplerConfig(frames_out=8, n_scales=4))
    for lvl in levels:
        got = [lvl.frame(i) for i in range(lvl.frame_count)]
        for i, frame in enumerate(got):
            want = resize_rgb(load_image(paths[i]).data, lvl.height, lvl.width)
            assert np.array_equal(frame, want), (lvl.scale_id, i)
