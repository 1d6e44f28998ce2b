import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sama.errors import CellSmallerThanFragment, GridTooFine
from sama.fragments import GridCell, choose_offsets, grid_partition, source_coord_maps
from sama.media import SamplerConfig
from sama.pyramid import PyramidLevel, build_pyramid

from conftest import constant_frame, coordinate_clip, coordinate_frame
from oracle import sample_fragments

# chi2.ppf(0.99, dof=48); frozen so the test needs no scipy
CHI2_99_DOF48 = 73.6826


def partition_oracle(size, parts):
    """Independent floor-partition: boundaries k*size//parts."""
    bounds = [(k * size) // parts for k in range(parts + 1)]
    return [bounds[k + 1] - bounds[k] for k in range(parts)]


def _level(frame_or_clip, scale_id=0):
    if hasattr(frame_or_clip, "frames"):
        arrays = [f.data for f in frame_or_clip.frames]
    else:
        arrays = [frame_or_clip.data]
    h, w = arrays[0].shape[:2]
    return PyramidLevel(scale_id, arrays, h, w)


# ---------------------------------------------------------------------------
# grid_partition


def test_partition_224_by_7_is_uniform():
    cells = grid_partition(224, 224, 7, 7)
    assert len(cells) == 49
    assert all(c.h == 32 and c.w == 32 for c in cells)
    assert cells[0].y0 == 0 and cells[-1].y0 == 192


def test_partition_230_by_7_matches_floor_oracle():
    cells = grid_partition(230, 230, 7, 7)
    heights = [c.h for c in cells if c.col == 0]
    assert heights == partition_oracle(230, 7)
    assert heights == [32, 33, 33, 33, 33, 33, 33]  # frozen from the oracle
    assert sum(heights) == 230


def test_partition_minimal():
    cells = grid_partition(7, 7, 7, 7)
    assert len(cells) == 49
    assert all(c.h == 1 and c.w == 1 for c in cells)


def test_partition_too_fine():
    with pytest.raises(GridTooFine):
        grid_partition(6, 100, 7, 7)


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 300),
    w=st.integers(1, 300),
    gr=st.integers(1, 12),
    gc=st.integers(1, 12),
)
def test_partition_tiles_exactly(h, w, gr, gc):
    if h < gr or w < gc:
        with pytest.raises(GridTooFine):
            grid_partition(h, w, gr, gc)
        return
    cells = grid_partition(h, w, gr, gc)
    cover = np.zeros((h, w), dtype=np.int32)
    for c in cells:
        cover[c.y0 : c.y0 + c.h, c.x0 : c.x0 + c.w] += 1
    assert (cover == 1).all()


# ---------------------------------------------------------------------------
# choose_offsets


def test_exact_fit_cell_has_single_offset():
    cells = [GridCell(0, 0, 10, 20, 32, 32)]
    for policy in ("center", "random"):
        for seed in (0, 1, 99):
            assert choose_offsets(cells, 32, 32, policy, seed) == [(10, 20)]


def test_center_offset_frozen():
    cells = [GridCell(0, 0, 0, 0, 154, 274)]
    assert choose_offsets(cells, 32, 32, "center", 0) == [(61, 121)]


def test_random_offsets_bounded_and_deterministic():
    cells = [GridCell(0, 0, 0, 0, 154, 274)]
    a = choose_offsets(cells, 32, 32, "random", 7)
    b = choose_offsets(cells, 32, 32, "random", 7)
    assert a == b
    (y, x) = a[0]
    assert 0 <= y <= 122 and 0 <= x <= 242


def test_cell_smaller_than_fragment():
    cells = [GridCell(0, 0, 0, 0, 31, 40)]
    with pytest.raises(CellSmallerThanFragment):
        choose_offsets(cells, 32, 32, "center", 0)


def test_offsets_independent_across_levels_by_default():
    cells = [GridCell(r, c, r * 50, c * 50, 50, 50) for r in range(2) for c in range(2)]
    lvl0 = choose_offsets(cells, 32, 32, "random", 3, scale_id=0)
    lvl1 = choose_offsets(cells, 32, 32, "random", 3, scale_id=1)
    assert lvl0 != lvl1


def test_aligned_offsets_share_relative_position():
    cells = [GridCell(0, 0, 0, 0, 64, 64)]
    a = choose_offsets(cells, 32, 32, "random", 3, scale_id=0, aligned=True)
    b = choose_offsets(cells, 32, 32, "random", 3, scale_id=5, aligned=True)
    assert a == b  # same cell geometry, any level: identical draw


def test_offset_histogram_uniform_chi_square():
    """10k draws over a 7x7 offset range stay uniform at the 1% level."""
    cells = [GridCell(0, 0, 0, 0, 38, 38)]  # 7 valid offsets per axis
    counts = np.zeros((7, 7), dtype=np.int64)
    for seed in range(10_000):
        (y, x) = choose_offsets(cells, 32, 32, "random", seed)[0]
        counts[y, x] += 1
    expected = 10_000 / 49
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_99_DOF48


# ---------------------------------------------------------------------------
# sample_fragments (the oracle's mosaic builder)


def _config(**kw):
    base = dict(
        grid_rows=7,
        grid_cols=7,
        frag_h=32,
        frag_w=32,
        frames_out=1,
        n_scales=1,
        spatial_mask="none",
        temporal_mask="none",
        offset_policy="center",
        seed=0,
    )
    base.update(kw)
    return SamplerConfig(**base)


def test_identity_mosaic_when_level_equals_output():
    frame = coordinate_frame(224, 224)
    mosaic = sample_fragments(_level(frame), _config())
    assert np.array_equal(mosaic.frames[0], frame.data)


def test_gather_oracle_full_hd_center():
    """Every output pixel re-derived by independent index arithmetic."""
    frame = coordinate_frame(1080, 1920)
    mosaic = sample_fragments(_level(frame), _config())
    out = mosaic.frames[0]
    off = mosaic.offsets
    src = frame.data
    for i in range(224):
        for j in range(224):
            y = off[i // 32, j // 32, 0] + i % 32
            x = off[i // 32, j // 32, 1] + j % 32
            assert (out[i, j] == src[y, x]).all()


def test_gather_oracle_random_policy_small():
    frame = coordinate_frame(100, 150)
    cfg = _config(grid_rows=3, grid_cols=4, frag_h=8, frag_w=8, offset_policy="random", seed=21)
    mosaic = sample_fragments(_level(frame), cfg)
    out = mosaic.frames[0]
    for i in range(24):
        for j in range(32):
            y = mosaic.offsets[i // 8, j // 8, 0] + i % 8
            x = mosaic.offsets[i // 8, j // 8, 1] + j % 8
            assert (out[i, j] == frame.data[y, x]).all()
    # source maps agree with the same arithmetic
    ys, xs = source_coord_maps(mosaic.offsets, 8, 8)
    assert np.array_equal(mosaic.src_y, ys)
    assert (out == frame.data[mosaic.src_y, mosaic.src_x]).all()


def test_constant_level_gives_constant_mosaic():
    mosaic = sample_fragments(_level(constant_frame(500, 700, 123)), _config())
    assert (mosaic.frames == 123).all()


def test_video_offsets_shared_across_frames():
    clip = coordinate_clip(300, 400, 4)
    static = _level(clip)
    mosaic = sample_fragments(static, _config(offset_policy="random", seed=5))
    assert mosaic.frames.shape == (4, 224, 224, 3)
    # a static clip must give a static mosaic
    from sama.media import MediaClip

    same = MediaClip((clip.frames[0],) * 4)
    mosaic2 = sample_fragments(_level(same), _config(offset_policy="random", seed=5))
    for f in range(1, 4):
        assert np.array_equal(mosaic2.frames[f], mosaic2.frames[0])


def test_frame_subset_matches_full_gather():
    clip = coordinate_clip(260, 260, 6)
    lvl = _level(clip, scale_id=2)
    cfg = _config(offset_policy="random", seed=9)
    full = sample_fragments(lvl, cfg)
    part = sample_fragments(lvl, cfg, frame_indices=[1, 4])
    assert np.array_equal(part.offsets, full.offsets)
    assert np.array_equal(part.frames[0], full.frames[1])
    assert np.array_equal(part.frames[1], full.frames[4])
    assert part.frame_position(4) == 1
    with pytest.raises(KeyError):
        part.frame_position(0)


def test_mosaic_fixed_size_across_resolutions():
    cfg = _config()
    for dims in [(224, 224), (480, 640), (1080, 1920), (300, 2000)]:
        frame = coordinate_frame(*dims)
        mosaic = sample_fragments(_level(frame), cfg)
        assert mosaic.frames.shape == (1, 224, 224, 3)


def test_pyramid_levels_draw_independent_offsets():
    cfg = SamplerConfig(
        frames_out=2, n_scales=2, temporal_mask="none", spatial_mask="window",
        offset_policy="random", seed=4,
    )
    frame = coordinate_frame(448, 448)
    levels = build_pyramid(frame, cfg)
    m0 = sample_fragments(levels[0], cfg)
    m1 = sample_fragments(levels[1], cfg)
    assert m0.scale_id == 0 and m1.scale_id == 1
    assert not np.array_equal(m0.offsets, m1.offsets)
