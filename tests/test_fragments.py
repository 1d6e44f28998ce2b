import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sama.errors import CellSmallerThanFragment, GridTooFine
from sama.fragments import plan_level
from sama.media import MediaClip, SamplerConfig, select_frames
from sama.pipeline import plan_sampling
from sama.pyramid import PyramidLevel, build_pyramid

from conftest import constant_frame, coordinate_clip, coordinate_frame
from oracle import sample_fragments, source_coord_maps

# chi2.ppf(0.99, dof=48); frozen so the test needs no scipy
CHI2_99_DOF48 = 73.6826


def partition_oracle(size, parts):
    """Independent floor-partition: boundaries k*size//parts."""
    bounds = [(k * size) // parts for k in range(parts + 1)]
    return [bounds[k + 1] - bounds[k] for k in range(parts)]


def _level(frame_or_clip, scale_id=0):
    """A level the size of its source, over a clip or a one-frame clip."""
    clip = frame_or_clip if hasattr(frame_or_clip, "frames") else MediaClip((frame_or_clip,))
    return PyramidLevel(scale_id, clip, clip.height, clip.width)


# ---------------------------------------------------------------------------
# plan_level: cells and fragment offsets

# plan_level takes a level's dims and id alone, never its pixels


def _plan(h, w, grid=(1, 1), frag=(32, 32), policy="center", seed=0, scale_id=0, aligned=False):
    cfg = SamplerConfig(
        grid_rows=grid[0], grid_cols=grid[1], frag_h=frag[0], frag_w=frag[1],
        offset_policy=policy, seed=seed, aligned_offsets=aligned,
    )
    return plan_level(h, w, scale_id, cfg)


def _per_cell(row_values, col_values):
    """(rows, cols, 2): each cell's (value of its row, value of its column)."""
    ys, xs = np.meshgrid(row_values, col_values, indexing="ij")
    return np.stack([ys, xs], axis=-1)


def test_partition_224_by_7_is_uniform():
    off = _plan(224, 224, (7, 7))
    assert off.shape == (7, 7, 2) and off.dtype == np.int64
    starts = [32 * k for k in range(7)]  # 32x32 cells, each filled by its fragment
    assert np.array_equal(off, _per_cell(starts, starts))


def test_exact_fit_cell_has_single_offset():
    for policy in ("center", "random"):
        for seed in (0, 1, 99):
            off = _plan(64, 64, (2, 2), policy=policy, seed=seed)
            assert np.array_equal(off, _per_cell([0, 32], [0, 32]))


def test_partition_230_by_7_matches_floor_oracle():
    heights = partition_oracle(230, 7)
    assert heights == [32, 33, 33, 33, 33, 33, 33]  # frozen from the oracle
    off = _plan(230, 230, (7, 7))
    # every cell is 32 or 33 wide, so a centred 32-pixel fragment sits at its origin
    assert off[:, 0, 0].tolist() == [0, 32, 65, 98, 131, 164, 197]
    assert off[0, :, 1].tolist() == off[:, 0, 0].tolist()


def test_partition_minimal():
    off = _plan(7, 7, (7, 7), frag=(1, 1), policy="random", seed=3)
    assert np.array_equal(off, _per_cell(range(7), range(7)))


def test_partition_too_fine():
    with pytest.raises(GridTooFine, match="cannot cut 6x100 into 7x7 cells"):
        _plan(6, 100, (7, 7), frag=(1, 1))


@settings(max_examples=80, deadline=None)
@given(
    h=st.integers(1, 300),
    w=st.integers(1, 300),
    gr=st.integers(1, 12),
    gc=st.integers(1, 12),
    fh=st.integers(1, 40),
    fw=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)
def test_partition_tiles_exactly(h, w, gr, gc, fh, fw, seed):
    """The cells are the independent floor partition's, which tiles the
    level: centred offsets over uneven cells are its cells' centres, and
    random ones keep the fragment inside its cell."""
    if h < gr or w < gc:
        with pytest.raises(GridTooFine):
            _plan(h, w, (gr, gc), (fh, fw))
        return
    heights, widths = partition_oracle(h, gr), partition_oracle(w, gc)
    if min(heights) < fh or min(widths) < fw:
        with pytest.raises(CellSmallerThanFragment):
            _plan(h, w, (gr, gc), (fh, fw))
        return
    origins = _per_cell(np.cumsum([0] + heights[:-1]), np.cumsum([0] + widths[:-1]))
    slack = _per_cell(np.subtract(heights, fh), np.subtract(widths, fw))  # room left per cell
    centre = _plan(h, w, (gr, gc), (fh, fw))
    assert np.array_equal(centre, origins + slack // 2)
    rel = _plan(h, w, (gr, gc), (fh, fw), policy="random", seed=seed) - origins
    assert (rel >= 0).all() and (rel <= slack).all()


def test_center_offset_frozen():
    assert _plan(154, 274).tolist() == [[[61, 121]]]


def test_random_offsets_bounded_and_deterministic():
    a = _plan(154, 274, policy="random", seed=7)
    assert np.array_equal(a, _plan(154, 274, policy="random", seed=7))
    (y, x) = a[0, 0]
    assert 0 <= y <= 122 and 0 <= x <= 242


def test_cell_smaller_than_fragment():
    with pytest.raises(CellSmallerThanFragment, match=r"cell \(0,0\) is 31x40, fragment is 32x32"):
        _plan(31, 40)
    # 2x3 cells of 32x31, 32x32 and 32x32 (the first column is narrowest)
    with pytest.raises(CellSmallerThanFragment, match=r"cell \(0,0\) is 32x31, fragment is 32x32"):
        _plan(64, 95, (2, 3))


def test_offsets_independent_across_levels_by_default():
    lvl0 = _plan(100, 100, (2, 2), policy="random", seed=3, scale_id=0)
    lvl1 = _plan(100, 100, (2, 2), policy="random", seed=3, scale_id=1)
    assert not np.array_equal(lvl0, lvl1)


def test_aligned_offsets_share_relative_position():
    a = _plan(100, 100, (2, 2), policy="random", seed=3, scale_id=0, aligned=True)
    b = _plan(100, 100, (2, 2), policy="random", seed=3, scale_id=5, aligned=True)
    assert np.array_equal(a, b)  # same cell geometry, any level: identical draw
    # the cells draw independently of each other
    assert len({tuple(o) for o in (a - _per_cell([0, 50], [0, 50])).reshape(-1, 2)}) > 1


def test_offset_histogram_uniform_chi_square():
    """10k draws over a 7x7 offset range stay uniform at the 1% level."""
    counts = np.zeros((7, 7), dtype=np.int64)
    for seed in range(10_000):
        (y, x) = _plan(38, 38, policy="random", seed=seed)[0, 0]  # 7 valid offsets per axis
        counts[y, x] += 1
    expected = 10_000 / 49
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_99_DOF48


# (level_h, level_w, grid, frag): exact fit, uneven cells, one cell, one-pixel cells
_SWEEP_DIMS = [
    (224, 224, (7, 7), (32, 32)),
    (230, 230, (7, 7), (32, 32)),
    (1080, 1920, (7, 7), (32, 32)),
    (154, 274, (1, 1), (32, 32)),
    (100, 150, (3, 4), (8, 8)),
    (37, 53, (5, 3), (5, 7)),
    (9, 13, (9, 13), (1, 1)),
]


def test_plan_level_sweep_is_frozen():
    """Every offset over both policies, aligned on and off, several level
    ids and seeds; aligned random draws are in no golden case. The digest
    was recorded from the cell-by-cell planner this one replaced."""
    digest = hashlib.sha256()
    for (h, w, grid, frag), policy, aligned, scale_id, seed in itertools.product(
        _SWEEP_DIMS, ("center", "random"), (False, True), (0, 1, 5), (0, 7, 2**64 - 1)
    ):
        off = _plan(h, w, grid, frag, policy, seed, scale_id, aligned)
        digest.update(np.ascontiguousarray(off, dtype=np.int64).tobytes())
    assert digest.hexdigest() == "3a230bfa8de413a626cb118d02fc7a1ca6cbfb77a4d175cc042c22440cb2a919"


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
            # the source maps follow the same arithmetic
            assert (mosaic.src_y[i, j], mosaic.src_x[i, j]) == (y, x)
    assert (out == frame.data[mosaic.src_y, mosaic.src_x]).all()


@pytest.mark.parametrize("cfg", [
    SamplerConfig(grid_rows=3, grid_cols=4, frag_h=8, frag_w=6, frames_out=4, n_scales=2,
                  offset_policy="random", seed=21),
    SamplerConfig(frames_out=4, n_scales=2, temporal_mask="none", spatial_mask="window",
                  offset_policy="random", seed=6),
], ids=["progressive-random", "window-random"])
def test_plan_coords_equal_the_cell_by_cell_maps(cfg):
    selected = select_frames(coordinate_clip(150, 200, 2), cfg.frames_out)
    plan = plan_sampling(150, 200, selected.source_keys, cfg)
    assert sorted(plan.offsets) == [0, 1]
    for s, offsets in plan.offsets.items():
        ys, xs = (a.reshape(cfg.out_h, cfg.out_w) for a in np.broadcast_arrays(*plan.coords(s)))
        want_y, want_x = source_coord_maps(offsets, cfg.frag_h, cfg.frag_w)
        assert np.array_equal(ys, want_y) and np.array_equal(xs, want_x)


def test_plan_coords_are_compact_factors():
    cfg = SamplerConfig(grid_rows=3, grid_cols=4, frag_h=8, frag_w=6, frames_out=4, n_scales=2)
    plan = plan_sampling(150, 200, (0, 0, 1, 1), cfg)
    for s in plan.offsets:
        ys, xs = plan.coords(s)
        # one entry per (cell, dy) and per (cell, dx), never one per pixel
        assert ys.size == cfg.grid_rows * cfg.frag_h * cfg.grid_cols
        assert xs.size == cfg.grid_rows * cfg.grid_cols * cfg.frag_w
        assert np.broadcast_shapes(ys.shape, xs.shape) == plan.grid_shape


def test_constant_level_gives_constant_mosaic():
    mosaic = sample_fragments(_level(constant_frame(500, 700, 123)), _config())
    assert (mosaic.frames == 123).all()


def test_video_offsets_shared_across_frames():
    clip = coordinate_clip(300, 400, 4)
    static = _level(clip)
    mosaic = sample_fragments(static, _config(offset_policy="random", seed=5))
    assert mosaic.frames.shape == (4, 224, 224, 3)
    # a static clip must give a static mosaic
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
    levels = build_pyramid(MediaClip((frame,)), cfg)
    m0 = sample_fragments(levels[0], cfg)
    m1 = sample_fragments(levels[1], cfg)
    assert m0.scale_id == 0 and m1.scale_id == 1
    assert not np.array_equal(m0.offsets, m1.offsets)
