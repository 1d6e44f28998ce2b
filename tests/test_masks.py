import numpy as np
import pytest

from sama.errors import BadArity, DimMismatch, IndivisibleDims
from sama.fragments import source_coord_maps
from sama.masks import (
    SPATIAL_KINDS,
    TEMPORAL_KINDS,
    SpatialMask,
    TemporalMask,
    level_count,
    make_interlace_mask,
    make_spatial_mask,
    make_temporal_mask,
)
from sama.media import SamplerConfig
from sama.pyramid import PyramidLevel

from conftest import coordinate_frame
from oracle import FragmentMosaic, compose_spatial, compose_temporal, sample_fragments


def checkerboard_count_oracle(tiles_h, tiles_w):
    """Brute-force tile counts: even-parity tiles are raw (index 0)."""
    raw = sum(
        1 for i in range(tiles_h) for j in range(tiles_w) if (i + j) % 2 == 0
    )
    return {0: raw, 1: tiles_h * tiles_w - raw}


def interlace_count_oracle(tiles_h, tiles_w, cycle):
    counts = {}
    for i in range(tiles_h):
        for j in range(tiles_w):
            s = cycle[(i + j) % len(cycle)]
            counts[s] = counts.get(s, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Spatial masks


def test_window_mask_224():
    mask = make_spatial_mask("window", 224, 224)
    assert mask.block == 32
    assert mask.tile_counts() == checkerboard_count_oracle(7, 7) == {0: 25, 1: 24}
    assert set(np.unique(mask.indices)) <= {0, 1}
    assert mask.indices[0, 0] == 0  # tile (0,0) takes the raw scale


def test_patch_mask_224():
    mask = make_spatial_mask("patch", 224, 224)
    assert mask.block == 4
    assert mask.tile_counts() == checkerboard_count_oracle(56, 56) == {0: 1568, 1: 1568}


def test_mask_tiles_are_constant_blocks():
    mask = make_spatial_mask("window", 224, 224)
    tiles = mask.indices.reshape(7, 32, 7, 32)
    assert (tiles.min(axis=(1, 3)) == tiles.max(axis=(1, 3))).all()
    parity = (np.add.outer(np.arange(7), np.arange(7)) % 2 == 1).astype(np.uint8)
    assert np.array_equal(tiles[:, 0, :, 0], parity)


@pytest.mark.parametrize("kind, block", [("window", 32), ("patch", 4)])
def test_spatial_mask_is_the_two_level_owner_map(kind, block):
    mask = make_spatial_mask(kind, 224, 256)
    y = np.arange(224)[:, None]
    x = np.arange(256)[None, :]
    assert mask.indices.dtype == np.uint8
    assert np.array_equal(mask.indices, (y // block + x // block) % 2)
    assert not mask.indices.flags.writeable


def test_mask_indivisible_dims():
    with pytest.raises(IndivisibleDims):
        make_spatial_mask("window", 230, 224)


def test_masks_partition_unity():
    for kind, dims in [("window", (224, 224)), ("patch", (256, 256))]:
        mask = make_spatial_mask(kind, *dims)
        ind0 = (mask.indices == 0).astype(int)
        ind1 = (mask.indices == 1).astype(int)
        assert ((ind0 + ind1) == 1).all()


# ---------------------------------------------------------------------------
# Interlace masks


def test_interlace_four_scales_counts():
    mask = make_interlace_mask(4, 224, 224, 32)
    counts = mask.tile_counts()
    assert counts == interlace_count_oracle(7, 7, (0, 1, 2, 3))
    assert sorted(counts.values()) == [12, 12, 12, 13]
    cover = sum((mask.indices == s).astype(int) for s in range(4))
    assert (cover == 1).all()


def test_interlace_three_scales_doubles_middle():
    mask = make_interlace_mask(3, 224, 224, 32)
    counts = mask.tile_counts()
    assert counts == interlace_count_oracle(7, 7, (0, 1, 1, 2))
    assert abs(counts[1] - 2 * counts[0]) <= 1
    assert abs(counts[1] - 2 * counts[2]) <= 1


def test_interlace_mask_is_a_spatial_owner_map():
    mask = make_interlace_mask(3, 64, 128, 16)
    assert isinstance(mask, SpatialMask)
    assert (mask.kind, mask.block, mask.height, mask.width) == ("interlace3", 16, 64, 128)
    y = np.arange(64)[:, None] // 16
    x = np.arange(128)[None, :] // 16
    assert np.array_equal(mask.indices, np.array([0, 1, 1, 2])[(y + x) % 4])


def test_interlace_indivisible():
    with pytest.raises(IndivisibleDims):
        make_interlace_mask(4, 224, 224, 64)  # 224 is not a multiple of 64
    with pytest.raises(BadArity):
        make_interlace_mask(5, 256, 256, 32)


# ---------------------------------------------------------------------------
# Temporal masks


@pytest.mark.parametrize("spatial, temporal, frames, levels", [
    ("none", "none", 32, 1),
    ("window", "none", 32, 2),
    ("patch", "none", 1, 2),
    ("none", "progressive", 32, 16),
    ("window", "progressive", 8, 4),
    ("none", "progressive", 2, 1),
    ("none", "choppy", 32, 16),
    ("patch", "choppy", 2, 2),
    ("none", "mixed", 32, 8),
    ("none", "mixed", 4, 1),
])
def test_level_count_of_each_mode(spatial, temporal, frames, levels):
    assert level_count(spatial, temporal, frames) == levels


def test_level_count_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown mask kinds 'bogus', 'none'"):
        level_count("bogus", "none", 8)
    with pytest.raises(ValueError, match="unknown mask kinds 'none', 'bogus'"):
        level_count("none", "bogus", 8)


def test_the_kinds_are_what_the_builders_take():
    assert SPATIAL_KINDS[0] == TEMPORAL_KINDS[0] == "none"
    for kind in SPATIAL_KINDS[1:]:
        mask = make_spatial_mask(kind, 64, 64)
        assert np.unique(mask.indices).tolist() == list(range(level_count(kind, "none", 8)))
    for kind in TEMPORAL_KINDS[1:]:
        mask = make_temporal_mask(kind, 8, level_count("none", kind, 8))
        assert max(mask.schedule) + 1 == mask.n_levels
    with pytest.raises(ValueError):
        make_spatial_mask("none", 32, 32)
    with pytest.raises(ValueError):
        make_temporal_mask("none", 8, 1)



def test_progressive_schedule():
    mask = make_temporal_mask("progressive", 32, 16)
    assert mask.schedule == tuple(range(16))
    assert mask.frame_scales().tolist() == [s for s in range(16) for _ in range(2)]


def test_choppy_schedule():
    mask = make_temporal_mask("choppy", 32, 16)
    assert mask.schedule == (0, 15) * 8
    two = make_temporal_mask("choppy", 8, 2)
    assert two.schedule == (0, 1, 0, 1)


def test_mixed_schedule():
    mask = make_temporal_mask("mixed", 32, 8)
    assert mask.schedule == tuple(range(8)) * 2
    # restricted to its first half it is the half-length progression
    assert mask.schedule[:8] == make_temporal_mask("progressive", 16, 8).schedule


def test_temporal_bad_arity():
    with pytest.raises(BadArity):
        make_temporal_mask("progressive", 31, 16)
    with pytest.raises(BadArity):
        make_temporal_mask("progressive", 32, 8)
    with pytest.raises(BadArity):
        make_temporal_mask("choppy", 32, 1)
    with pytest.raises(BadArity):
        make_temporal_mask("mixed", 10, 2)
    with pytest.raises(BadArity):
        make_temporal_mask("mixed", 32, 16)


# ---------------------------------------------------------------------------
# compose_spatial


def _flat_mosaic(scale_id, color, frames=1, side=224):
    data = np.empty((frames, side, side, 3), dtype=np.uint8)
    data[:] = color
    offsets = np.zeros((7, 7, 2), dtype=np.int64)
    src_y, src_x = source_coord_maps(offsets, 32, 32)
    return FragmentMosaic(
        scale_id=scale_id,
        frames=data,
        frame_indices=np.arange(frames),
        offsets=offsets,
        src_y=src_y,
        src_x=src_x,
    )


def _sampled_pair(seed=3):
    cfg = SamplerConfig.iqa_default(
        grid_rows=7, grid_cols=7, offset_policy="random", seed=seed
    )  # 224 output
    frame = coordinate_frame(600, 800)
    arrays = [frame.data]
    lvl0 = PyramidLevel(0, arrays, 600, 800)
    lvl1 = PyramidLevel(1, arrays, 600, 800)  # same dims, distinct offsets
    return sample_fragments(lvl0, cfg), sample_fragments(lvl1, cfg), cfg


def test_compose_all_raw_returns_m0():
    m0, m1, cfg = _sampled_pair()
    raw = SpatialMask("window", 32, np.zeros((224, 224), dtype=np.uint8))
    out = compose_spatial(m0, m1, raw, cfg)
    assert np.array_equal(out.data[0], m0.frames[0])
    assert (out.provenance["scale"] == 0).all()


def test_compose_all_scaled_returns_m1():
    m0, m1, cfg = _sampled_pair()
    scaled = SpatialMask("window", 32, np.ones((224, 224), dtype=np.uint8))
    out = compose_spatial(m0, m1, scaled, cfg)
    assert np.array_equal(out.data[0], m1.frames[0])
    assert (out.provenance["scale"] == 1).all()


def test_compose_checkerboard_red_blue():
    red = _flat_mosaic(0, (255, 0, 0))
    blue = _flat_mosaic(1, (0, 0, 255))
    mask = make_spatial_mask("window", 224, 224)
    out = compose_spatial(red, blue, mask)
    tiles = out.data[0][::32, ::32]
    red_tiles = int((tiles == (255, 0, 0)).all(axis=-1).sum())
    blue_tiles = int((tiles == (0, 0, 255)).all(axis=-1).sum())
    assert (red_tiles, blue_tiles) == (25, 24)


def test_compose_dim_mismatch():
    m0 = _flat_mosaic(0, 1)
    m1 = _flat_mosaic(1, 2)
    small = make_spatial_mask("window", 32, 32)
    with pytest.raises(DimMismatch):
        compose_spatial(m0, m1, small)
    with pytest.raises(DimMismatch):
        compose_spatial(m1, m0, make_spatial_mask("window", 224, 224))


def test_compose_swap_complements_provenance():
    m0, m1, cfg = _sampled_pair()
    mask = make_spatial_mask("window", 224, 224)
    fwd = compose_spatial(m0, m1, mask, cfg)
    # swap the mosaics' roles (fabricate the mirrored scale ids)
    from dataclasses import replace

    swapped = compose_spatial(
        replace(m1, scale_id=0), replace(m0, scale_id=1), mask, cfg
    )
    sel = mask.indices == 0
    # together the two composites reconstruct both mosaics exactly
    assert np.array_equal(np.where(sel[..., None], fwd.data[0], swapped.data[0]), m0.frames[0])
    assert np.array_equal(np.where(sel[..., None], swapped.data[0], fwd.data[0]), m1.frames[0])
    # the original m0 owns the masked tiles forward, their complement swapped
    assert np.array_equal(fwd.provenance["scale"][0] == 0, sel)
    assert np.array_equal(swapped.provenance["scale"][0] == 1, ~sel)


# ---------------------------------------------------------------------------
# compose_temporal


def _mosaics_per_level(n_levels, frames, side=64, grid=2, frag=32):
    """Distinct constant color per level; frame index encoded in green."""
    out = {}
    for s in range(n_levels):
        data = np.empty((frames, side, side, 3), dtype=np.uint8)
        for t in range(frames):
            data[t] = (s * 10 % 256, t, 255 - s % 256)
        offsets = np.zeros((grid, grid, 2), dtype=np.int64)
        for r in range(grid):
            for c in range(grid):
                offsets[r, c] = (r * frag, c * frag)
        src_y, src_x = source_coord_maps(offsets, frag, frag)
        out[s] = FragmentMosaic(
            scale_id=s,
            frames=data,
            frame_indices=np.arange(frames),
            offsets=offsets,
            src_y=src_y,
            src_x=src_x,
        )
    return out


def test_compose_temporal_all_zero_schedule():
    mosaics = _mosaics_per_level(4, 8)
    override = TemporalMask("choppy", (0, 0, 0, 0), 4)
    out = compose_temporal(mosaics, override)
    assert np.array_equal(out.data, mosaics[0].frames)
    assert (out.provenance["scale"] == 0).all()


def test_compose_temporal_progressive_expansion():
    mosaics = _mosaics_per_level(4, 8)
    mask = make_temporal_mask("progressive", 8, 4)
    out = compose_temporal(mosaics, mask)
    assert out.provenance["scale"][:, 0, 0].tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    # frame index is preserved: output frame t carries green value t
    assert out.data[:, 0, 0, 1].tolist() == list(range(8))
    assert (out.provenance["frame"][:, 0, 0] == np.arange(8)).all()


def test_compose_temporal_choppy_colors():
    mosaics = _mosaics_per_level(2, 8)
    mask = make_temporal_mask("choppy", 8, 2)
    out = compose_temporal(mosaics, mask)
    reds = out.data[:, 0, 0, 0].tolist()
    assert reds == [0, 0, 10, 10, 0, 0, 10, 10]  # RRBB alternation by level color


def test_compose_temporal_missing_frames():
    mosaics = _mosaics_per_level(2, 4)  # schedule needs 8 frames
    mask = make_temporal_mask("choppy", 8, 2)
    with pytest.raises(BadArity):
        compose_temporal(mosaics, mask)


def test_compose_temporal_missing_level():
    mosaics = _mosaics_per_level(2, 8)
    del mosaics[1]
    with pytest.raises(BadArity):
        compose_temporal(mosaics, make_temporal_mask("choppy", 8, 2))


def test_compose_temporal_accepts_sequence():
    mosaics = _mosaics_per_level(4, 8)
    mask = make_temporal_mask("progressive", 8, 4)
    as_list = [mosaics[s] for s in range(4)]
    a = compose_temporal(as_list, mask)
    b = compose_temporal(mosaics, mask)
    assert np.array_equal(a.data, b.data)
