import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sama.errors import InputTooSmall
from sama.imageio import MAX_PIXELS
from sama.media import FrameBuffer, MediaClip, SamplerConfig, load_clip, load_image
from sama.pack import _axis_table, _bilinear_at
from sama.pyramid import (
    PyramidLevel,
    _axis_taps,
    _lerp_core,
    build_pyramid,
    gather_taps,
    level_dims,
    pixel_taps,
    resize_rect,
    resize_rgb,
    scale_schedule,
    tap_rows,
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
    assert sched == ((1080, 1920), (224, 398))  # a plain tuple of (h, w)


def test_single_level_degenerate():
    assert list(scale_schedule(224, 224, 224, 1)) == [(224, 224)]


def test_sixteen_levels_match_oracle():
    sched = scale_schedule(1080, 1920, 224, 16)
    assert list(sched) == schedule_oracle(1080, 1920, 224, 16)
    # frozen from the oracle: min-sides step down by ~57
    assert tuple(min(dims) for dims in sched) == (
        1080, 1023, 966, 909, 852, 795, 738, 681,
        623, 566, 509, 452, 395, 338, 281, 224,
    )


def test_schedule_linearity_and_terminal():
    for raw_h, raw_w, levels in [(1080, 1920, 16), (2160, 1000, 7), (500, 500, 3)]:
        sched = scale_schedule(raw_h, raw_w, 224, levels)
        raw_min = min(raw_h, raw_w)
        mins = [min(dims) for dims in sched]
        for k, m in enumerate(mins):
            ideal = raw_min + k * (224 - raw_min) / (levels - 1)
            assert abs(m - ideal) <= 0.5
        assert mins[-1] == 224
        assert sched[0] == (raw_h, raw_w)


def test_schedule_allows_rounding_ties():
    # raw min barely above the target: consecutive levels may repeat
    sched = scale_schedule(225, 300, 224, 16)
    mins = [min(dims) for dims in sched]
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


def _lerp_with_floor_and_clip(p00, p01, p10, p11, fy, fx):
    """The blend with explicit rounding passes: the float32 steps of
    ``_lerp_core``, then floor, clip to [0, 255] and the cast."""
    top = p01 - p00
    top *= fx
    top += p00
    bot = p11 - p10
    bot *= fx
    bot += p10
    bot -= top
    bot *= fy
    bot += top
    bot += 0.5
    np.floor(bot, out=bot)
    np.clip(bot, 0, 255, out=bot)
    return bot.astype(np.uint8)


def test_blend_without_floor_and_clip_equals_the_old_formula_for_every_corner_pair():
    """Every (p0, p1) uint8 pair, at 0, 0.5, the float32 just below 1 and
    every fraction ``_axis_taps`` gives the VQA default's 16 levels of a
    1080p frame: the blend's cast alone rounds as floor and clip did. The
    audit's own blend, ``pack._bilinear_at``, whose tables give the same
    fractions, runs over the same grid: its source is a 2x2 frame whose
    four pixels each hold one corner of every pair as a channel."""
    levels = level_dims(1080, 1920, SamplerConfig.vqa_default())
    for h, w in levels:
        for n_in, n_out in ((1080, h), (1920, w)):
            assert np.array_equal(_axis_table(n_in, n_out)[2], _axis_taps(n_in, n_out)[2])
    fracs = np.unique(np.concatenate(
        [np.float32([0.0, 0.5, np.nextafter(np.float32(1), np.float32(0))])]
        + [_axis_taps(1080, h)[2] for h, _ in levels]
        + [_axis_taps(1920, w)[2] for _, w in levels]
    ))
    assert fracs.dtype == np.float32 and len(fracs) > 10_000
    p0, p1 = (a.ravel().astype(np.float32) for a in np.mgrid[0:256, 0:256])
    top, bot = np.empty_like(p0), np.empty_like(p0)  # _lerp_core overwrites p01 and p11
    # both blend stages see every fraction: fx in order, fy half a turn on
    fys = np.roll(fracs, len(fracs) // 2)
    # the audit's source pixels (top left, top right, bottom left, bottom
    # right) and its tables: level pixel (k, k) blends them by (fys[k], fracs[k])
    corners = np.stack([p0, p1, p1, p0]).astype(np.uint8)
    n = len(fracs)
    rows = (np.zeros(n, np.intp), np.full(n, 2, np.intp), fys[:, None])
    cols = (np.zeros(n, np.intp), np.ones(n, np.intp), fracs[:, None])
    for k, (fx, fy) in enumerate(zip(fracs, fys)):
        old = _lerp_with_floor_and_clip(p0, p1, p1, p0, fy, fx)
        np.copyto(top, p1)
        np.copyto(bot, p0)
        new = _lerp_core(p0, top, p1, bot, fy, fx)
        assert np.array_equal(new, old), f"fx {fx!r}, fy {fy!r}"
        (audit,) = _bilinear_at(corners, np.array([k]), np.array([k]), rows, cols)
        assert np.array_equal(audit, old), f"audit: fx {fx!r}, fy {fy!r}"


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


@pytest.mark.parametrize("src_hw", [(540, 960), (224, 300), (150, 170)], ids=["down", "raw", "up"])
def test_level_rect_is_a_window_of_its_frame(src_hw):
    clip = coordinate_clip(*src_hw, 2)
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    framed = build_pyramid(clip, cfg)
    for level in build_pyramid(clip, cfg):
        frame = framed[level.scale_id].frame(1)
        h, w = level.height, level.width
        for y0, x0 in ((0, 0), (h - 32, w - 32), (h // 3, w // 2)):
            window = level.rect(1, y0, x0, 32, 32)
            assert np.array_equal(window, frame[y0 : y0 + 32, x0 : x0 + 32])


# ---------------------------------------------------------------------------
# Taps: pixel_taps and tap_rows on compact coordinate factors


_TAP_LEVELS = {"below": (20, 15), "at": (40, 30), "above": (64, 48)}


def _random_level(level_hw, seed=0):
    """A level of the given dims over one random 40x30 source frame."""
    frame = np.random.default_rng(seed).integers(0, 256, (40, 30, 3), dtype=np.uint8)
    return PyramidLevel(0, MediaClip((FrameBuffer(frame),)), *level_hw), frame


def _factors(level, rng, rows=2, frag_h=3, cols=3, frag_w=4):
    """(ys, xs) shaped like SamplingPlan.coords: per-cell offsets plus the
    place in the fragment, over the level's upper rows only."""
    oy = rng.integers(0, level.height // 2 - frag_h, (rows, 1, cols, 1))
    ox = rng.integers(0, level.width - frag_w, (rows, 1, cols, 1))
    return oy + np.arange(frag_h)[:, None, None], ox + np.arange(frag_w)


@pytest.mark.parametrize("subset", [False, True], ids=["all-rows", "tapped-rows"])
@pytest.mark.parametrize("size", sorted(_TAP_LEVELS))
def test_taps_of_coordinate_factors_equal_taps_of_the_flat_maps(size, subset):
    level, frame = _random_level(_TAP_LEVELS[size])
    ys, xs = _factors(level, np.random.default_rng(1))
    flat_y, flat_x = (a.reshape(-1) for a in np.broadcast_arrays(ys, xs))
    marks, flat_marks = (np.zeros(40, dtype=bool) for _ in range(2))
    tap_rows(level, ys, marks)
    tap_rows(level, flat_y, flat_marks)
    assert np.array_equal(marks, flat_marks)
    assert not marks[30:].any()  # the factors tap only the upper rows
    rows = np.flatnonzero(marks) if subset else None
    taps = pixel_taps(level, ys, xs, rows)
    flat = pixel_taps(level, flat_y, flat_x, rows)
    assert np.array_equal(taps.index, flat.index)
    for got, want in ((taps.fy, flat.fy), (taps.fx, flat.fx)):
        assert (got is None and want is None) or np.array_equal(got, want)
    assert (taps.fy is None) == (size == "at")
    assert taps.index.shape == (1 if size == "at" else 4, flat_y.size)
    held = frame if rows is None else frame[rows]
    assert np.array_equal(gather_taps(held, taps), level.frame(0)[flat_y, flat_x])


@pytest.mark.parametrize("size", sorted(_TAP_LEVELS))
def test_pixel_taps_rejects_rows_missing_a_tapped_row(size):
    level, _ = _random_level(_TAP_LEVELS[size])
    ys, xs = np.arange(level.height), np.zeros(1, dtype=np.intp)
    marks = np.zeros(40, dtype=bool)
    tap_rows(level, ys, marks)
    assert marks[10]
    marks[10] = False  # row 10 is tapped but not held
    with pytest.raises(ValueError, match="rows misses"):
        pixel_taps(level, ys, xs, np.flatnonzero(marks))


@pytest.mark.parametrize("size", sorted(_TAP_LEVELS))
def test_pixel_taps_rejects_a_column_past_the_level_edge(size):
    level, _ = _random_level(_TAP_LEVELS[size])
    with pytest.raises(IndexError):  # not the next row's first pixel
        pixel_taps(level, np.zeros(1, dtype=np.intp), np.array([level.width]))


# ---------------------------------------------------------------------------
# Upscaling: level_dims upscales a source below the target min side


def _raw_level(clip, target_min):
    """Level 0 of a one-level pyramid whose target min side is ``target_min``."""
    config = SamplerConfig(
        grid_rows=1, grid_cols=1, frag_h=target_min, frag_w=target_min, n_scales=1
    )
    (level,) = build_pyramid(clip, config)
    return level


def test_upscale_cases():
    up = _raw_level(MediaClip((constant_frame(100, 200, 9),)), 224)
    assert (up.height, up.width) == (224, 448)
    same = _raw_level(MediaClip((coordinate_frame(224, 448),)), 224)
    assert np.array_equal(same.frame(0), coordinate_frame(224, 448).data)
    dot = _raw_level(MediaClip((constant_frame(1, 1, 77),)), 224)
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
    cfg = SamplerConfig(grid_rows=rows, grid_cols=cols, frag_h=frag, frag_w=frag, n_scales=2)
    least = next(
        m for m in range(1, 2 * max(cfg.out_h, cfg.out_w) + 1)
        if all(a >= b for a, b in zip(_dims_at_min_side(raw_h, raw_w, m), (cfg.out_h, cfg.out_w)))
    )
    if cfg.out_h == cfg.out_w:
        assert least == cfg.out_h
    coarsest = _dims_at_min_side(raw_h, raw_w, least)
    if min(raw_h, raw_w) < least and math.prod(coarsest) > MAX_PIXELS:
        # a thin input upscaled to cover the output would be a huge level 0
        with pytest.raises(InputTooSmall, match="more than the"):
            level_dims(raw_h, raw_w, cfg)
        return
    raw, top = level_dims(raw_h, raw_w, cfg)
    assert top == coarsest
    if min(raw_h, raw_w) < least:
        assert raw == coarsest
    else:
        assert raw == (raw_h, raw_w)


def test_an_upscaled_level_0_is_capped_as_the_readers_cap_an_input():
    cfg = SamplerConfig.iqa_default()  # a 256x256 output
    assert level_dims(1, 512, cfg)[0] == (256, 131072)  # exactly MAX_PIXELS
    assert 256 * 131072 == MAX_PIXELS
    with pytest.raises(InputTooSmall, match="256x131328, more than the"):
        level_dims(1, 513, cfg)
    with pytest.raises(InputTooSmall, match="5120000x256"):
        level_dims(20000, 1, cfg)


@pytest.mark.parametrize("raw_hw", [(0, 5), (5, 0), (-3, 100)])
def test_level_dims_refuses_a_dim_below_one(raw_hw):
    # no division by a zero side, and no min side from a negative one
    with pytest.raises(ValueError, match="raw dims must be >= 1"):
        level_dims(*raw_hw, SamplerConfig())


def test_upscale_clip():
    clip = coordinate_clip(50, 80, 3)
    up = _raw_level(clip, 224)
    assert (up.height, up.width) == (224, 358)
    assert len(up.sources) == 3


# ---------------------------------------------------------------------------
# build_pyramid


def test_pyramid_dims_follow_schedule():
    cfg = SamplerConfig.iqa_default()  # target 256
    levels = build_pyramid(MediaClip((coordinate_frame(1080, 1920),)), cfg)
    assert [(l.height, l.width) for l in levels] == [(1080, 1920), (256, 455)]


def test_pyramid_single_level_is_raw():
    cfg = SamplerConfig.iqa_default(spatial_mask="none", n_scales=1)
    frame = coordinate_frame(700, 900)
    (lvl,) = build_pyramid(MediaClip((frame,)), cfg)
    assert lvl.frame(0) is frame.data  # shared, no resample


def test_pyramid_level0_bytes_identical_without_upscale():
    cfg = SamplerConfig()  # 16 levels, target 224
    frame = coordinate_frame(540, 960)
    levels = build_pyramid(MediaClip((frame,)), cfg)
    assert levels[0].frame(0) is frame.data
    assert levels[-1].height == 224 or levels[-1].width == 224


def test_pyramid_video_conserves_frames():
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    clip = coordinate_clip(240, 320, 8)
    levels = build_pyramid(clip, cfg)
    assert len(levels) == 4
    for lvl in levels:
        assert len(lvl.sources) == 8
        for i in range(len(lvl.sources)):
            assert lvl.frame(i).shape == (lvl.height, lvl.width, 3)
    assert levels[-1].height == 224


def test_pyramid_full_video_regime_dims():
    # 540x960 clip of 32 frames through the 16-level default schedule
    frame = coordinate_frame(540, 960)
    clip = MediaClip((frame,) * 32)
    levels = build_pyramid(clip, SamplerConfig())
    expected = schedule_oracle(540, 960, 224, 16)
    assert [(l.height, l.width) for l in levels] == expected
    assert all(len(l.sources) == 32 for l in levels)
    # spot-materialize a few frames; repeated sources resize alike
    mid = levels[7]
    assert mid.frame(0).shape == (mid.height, mid.width, 3)
    assert np.array_equal(mid.frame(31), mid.frame(0))


def test_a_level_is_a_frozen_value_that_keeps_no_frame():
    level = build_pyramid(coordinate_clip(240, 320, 2), SamplerConfig(frames_out=8, n_scales=4))[2]
    assert [f.name for f in dataclasses.fields(PyramidLevel)] == [
        "scale_id", "sources", "height", "width"
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        level.height = 1
    first = level.frame(1)
    assert level.frame(1) is not first  # resized afresh, nothing kept
    assert np.array_equal(level.frame(1), first)
    assert set(vars(level)) == {"scale_id", "sources", "height", "width"}  # no memo


def test_level_frames_of_a_lazy_clip_are_the_resizes_of_their_own_files(tmp_path):
    # the sources are released after each read, so a new frame may reuse a
    # freed one's id: each level frame must still be its own file's pixels
    paths = write_clip(tmp_path / "clip", 6, 240, 320)
    levels = build_pyramid(load_clip(tmp_path / "clip"), SamplerConfig(frames_out=8, n_scales=4))
    for lvl in levels:
        got = [lvl.frame(i) for i in range(len(lvl.sources))]
        for i, frame in enumerate(got):
            want = resize_rgb(load_image(paths[i]).data, lvl.height, lvl.width)
            assert np.array_equal(frame, want), (lvl.scale_id, i)
