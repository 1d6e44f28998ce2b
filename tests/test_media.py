import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sama import imageio, masks
from sama.errors import CorruptFile, EmptyClip, InsufficientFrames, MixedDimensions
from sama.media import (
    FrameBuffer,
    MediaClip,
    SamplerConfig,
    load_clip,
    load_image,
    select_frames,
    split_snippets,
)

from sama.pipeline import sample_video
from sama.pyramid import build_pyramid

from conftest import coordinate_frame, constant_frame, write_clip


# ---------------------------------------------------------------------------
# Types


def test_framebuffer_rejects_bad_arrays():
    with pytest.raises(ValueError):
        FrameBuffer(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        FrameBuffer(np.zeros((4, 4, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        FrameBuffer(np.zeros((0, 4, 3), dtype=np.uint8))


def test_clip_invariants():
    with pytest.raises(EmptyClip):
        MediaClip(())
    with pytest.raises(MixedDimensions):
        MediaClip((constant_frame(4, 4, 0), constant_frame(4, 5, 0)))
    clip = MediaClip((constant_frame(4, 4, 0),) * 3)
    assert len(clip) == 3 and clip.height == 4


# ---------------------------------------------------------------------------
# Loading


def test_load_image_png_and_ppm(tmp_path):
    arr = coordinate_frame(5, 7).data
    (tmp_path / "a.png").write_bytes(imageio.encode_png(arr))
    (tmp_path / "b.ppm").write_bytes(imageio.encode_ppm(arr))
    assert np.array_equal(load_image(tmp_path / "a.png").data, arr)
    assert np.array_equal(load_image(tmp_path / "b.ppm").data, arr)


def test_load_clip_orders_by_index(tmp_path):
    # written out of order; loader must sort by the numeric index
    for idx in (3, 1, 2):
        frame = constant_frame(4, 4, idx * 10)
        (tmp_path / f"frame_{idx:06d}.ppm").write_bytes(imageio.encode_ppm(frame.data))
    (tmp_path / "notes.txt").write_text("ignored")
    (tmp_path / "frame_7.png").write_bytes(b"not zero padded, ignored")
    clip = load_clip(tmp_path)
    assert [f.data[0, 0, 0] for f in clip.frames] == [10, 20, 30]


def test_load_clip_mixed_dimensions(tmp_path):
    (tmp_path / "frame_000001.ppm").write_bytes(
        imageio.encode_ppm(constant_frame(4, 4, 1).data)
    )
    (tmp_path / "frame_000002.ppm").write_bytes(
        imageio.encode_ppm(constant_frame(4, 5, 2).data)
    )
    with pytest.raises(MixedDimensions):
        load_clip(tmp_path)


def test_load_clip_empty(tmp_path):
    with pytest.raises(EmptyClip):
        load_clip(tmp_path)


def test_load_clip_rejects_two_files_with_one_frame_index(tmp_path):
    write_clip(tmp_path, 3)
    write_clip(tmp_path, 1, suffix="png")  # a second frame 0
    with pytest.raises(CorruptFile, match="frame_000000.png and frame_000000.ppm"):
        load_clip(tmp_path)


# ---------------------------------------------------------------------------
# Lazy clips: only the frames selection keeps are decoded, once each


def test_vqa_default_decodes_only_the_selected_frames(tmp_path, reads):
    paths = write_clip(tmp_path / "clip", 64, 16, 24)
    clip = load_clip(tmp_path / "clip")
    assert (len(clip), clip.height, clip.width) == (64, 16, 24)
    assert reads == []  # listing and dims come from the headers
    result = sample_video(clip, SamplerConfig.vqa_default())
    assert sorted(name for name, _ in reads) == [p.name for p in paths[1::2]]
    eager = MediaClip(tuple(load_image(p) for p in paths))
    expected = sample_video(eager, SamplerConfig.vqa_default())
    assert np.array_equal(result.tensor.data, expected.tensor.data)
    assert np.array_equal(result.tensor.provenance, expected.tensor.provenance)


def test_short_clip_decodes_each_frame_once(tmp_path, reads):
    write_clip(tmp_path / "clip", 5)
    clip = load_clip(tmp_path / "clip")
    assert reads == []
    sample_video(clip, SamplerConfig.vqa_default())
    assert len(reads) == len({name for name, _ in reads}) == 5
    selected = select_frames(clip, 32)
    assert len(reads) == 5
    assert selected.frames[0] is selected.frames[5] is clip.frames[0]
    assert len({id(f) for f in selected.frames}) == 5


def test_frame_rewritten_to_new_dims_after_listing(tmp_path):
    paths = write_clip(tmp_path / "clip", 3)
    clip = load_clip(tmp_path / "clip")
    paths[2].write_bytes(imageio.encode_ppm(coordinate_frame(8, 9).data))
    assert clip.frames[1].width == 8
    with pytest.raises(MixedDimensions):
        clip.frames[2]


def test_lazy_frames_index_like_a_tuple(tmp_path):
    write_clip(tmp_path / "clip", 4)
    clip = load_clip(tmp_path / "clip")
    assert clip.frames[-1] is clip.frames[3]
    assert clip.frames[1:3] == (clip.frames[1], clip.frames[2])
    assert [f.data[0, 0, 2] for f in clip.frames] == [t * 17 for t in range(4)]
    with pytest.raises(IndexError):
        clip.frames[4]


def test_in_memory_and_loaded_clips_share_one_frames_type(tmp_path):
    write_clip(tmp_path / "clip", 3)
    frame = coordinate_frame(300, 300)
    clip = MediaClip((frame,) * 3)
    assert type(clip.frames) is type(load_clip(tmp_path / "clip").frames)
    assert clip.source_keys == (0, 0, 0)
    assert clip.frames[2] is frame and clip.read(1) is frame.data


# ---------------------------------------------------------------------------
# Streaming: a sampled clip holds one source frame at a time


def test_selecting_and_pyramiding_a_lazy_clip_decode_nothing(tmp_path, reads):
    write_clip(tmp_path / "clip", 12, 16, 24)
    clip = load_clip(tmp_path / "clip")
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    selected = select_frames(clip, 8, policy="random", seed=3)
    (snippet, _) = split_snippets(selected, 4, 2)
    short = select_frames(snippet, 9)  # repeats of a short clip
    levels = build_pyramid(short, cfg)
    assert reads == []
    assert len(levels[0].sources) == 9
    assert levels[0].sources.source_keys[0] == levels[0].sources.source_keys[4]
    assert short.frames[0] is short.frames[4] is clip.frames[short.source_keys[0]]


def test_sample_video_streams_its_source_frames(tmp_path, alive_at_read):
    import tracemalloc

    write_clip(tmp_path / "clip", 64, 480, 640)
    clip = load_clip(tmp_path / "clip")
    cfg = SamplerConfig(grid_rows=2, grid_cols=2, frag_h=16, frag_w=16)  # 32 frames of 32x32
    tracemalloc.start()
    try:
        result = sample_video(clip, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(alive_at_read) == 32
    assert max(alive_at_read) <= 1
    source = 480 * 640 * 3
    output = result.tensor.data.nbytes + result.tensor.provenance.nbytes
    assert peak < 3 * source + output, (peak, source, output)
    eager = MediaClip(tuple(clip.frames))
    assert np.array_equal(result.tensor.data, sample_video(eager, cfg).tensor.data)


# ---------------------------------------------------------------------------
# select_frames


def _clip_of(n):
    return MediaClip(tuple(constant_frame(2, 2, i % 256) for i in range(n)))


def _indices(clip, selected):
    lookup = {id(f): i for i, f in enumerate(clip.frames)}
    return [lookup[id(f)] for f in selected.frames]


def _bin_centers(n, count):
    # independent oracle: floor bin edges, center with ties toward the start
    out = []
    for k in range(count):
        lo = (k * n) // count
        hi = ((k + 1) * n) // count
        out.append((lo + hi) // 2)
    return out


def test_select_identity():
    clip = _clip_of(32)
    assert _indices(clip, select_frames(clip, 32)) == list(range(32))


def test_select_bin_centers_128_to_32():
    clip = _clip_of(128)
    got = _indices(clip, select_frames(clip, 32))
    assert got == list(range(2, 128, 4))  # bins of width 4, centers 2,6,...,126
    assert got == _bin_centers(128, 32)


def test_select_cyclic_repetition():
    clip = _clip_of(8)
    got = _indices(clip, select_frames(clip, 32))
    assert got == [k % 8 for k in range(32)]
    assert all(got.count(i) == 4 for i in range(8))


def test_select_random_deterministic_and_in_bins():
    clip = _clip_of(100)
    a = _indices(clip, select_frames(clip, 16, seed=5, policy="random"))
    b = _indices(clip, select_frames(clip, 16, seed=5, policy="random"))
    c = _indices(clip, select_frames(clip, 16, seed=6, policy="random"))
    assert a == b
    assert a != c
    for k, idx in enumerate(a):
        assert (k * 100) // 16 <= idx < ((k + 1) * 100) // 16


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 200),
    count=st.integers(1, 64),
    seed=st.integers(0, 2**32),
    policy=st.sampled_from(["center", "random"]),
)
def test_select_properties(n, count, seed, policy):
    clip = _clip_of(n)
    got = _indices(clip, select_frames(clip, count, seed=seed, policy=policy))
    assert len(got) == count
    assert all(0 <= i < n for i in got)
    if n >= count:
        assert got == sorted(got)
        for k, idx in enumerate(got):
            assert (k * n) // count <= idx < ((k + 1) * n) // count


# ---------------------------------------------------------------------------
# split_snippets


def test_split_contiguous_quarters():
    clip = _clip_of(128)
    snippets = split_snippets(clip, 32, 4)
    assert len(snippets) == 4
    for i, snip in enumerate(snippets):
        assert _indices(clip, snip) == list(range(32 * i, 32 * (i + 1)))


def test_split_single_snippet_is_input():
    clip = _clip_of(32)
    (snip,) = split_snippets(clip, 32, 1)
    assert tuple(snip.frames) == tuple(clip.frames)


def test_split_insufficient():
    with pytest.raises(InsufficientFrames):
        split_snippets(_clip_of(100), 32, 4)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 150), snippet=st.integers(1, 40), count=st.integers(1, 6)
)
def test_split_covers_prefix_exactly(n, snippet, count):
    clip = _clip_of(n)
    if n < snippet * count:
        with pytest.raises(InsufficientFrames):
            split_snippets(clip, snippet, count)
        return
    snippets = split_snippets(clip, snippet, count)
    flat = [i for s in snippets for i in _indices(clip, s)]
    assert flat == list(range(snippet * count))


# ---------------------------------------------------------------------------
# Config validation


def test_config_defaults_valid():
    SamplerConfig().validate("video")
    SamplerConfig.iqa_default().validate("image")


@pytest.mark.parametrize(
    "overrides, kind",
    [
        (dict(grid_rows=0), "video"),
        (dict(seed=-1), "video"),
        (dict(spatial_mask="bogus"), "video"),
        (dict(frames_out=31), "video"),  # odd with a temporal mask
        (dict(n_scales=15), "video"),  # progressive needs frames_out/2
        (dict(temporal_mask="mixed", n_scales=16), "video"),
        (dict(temporal_mask="none", n_scales=16), "video"),  # no mask to pack
        (dict(temporal_mask="none", spatial_mask="window", n_scales=3), "video"),
        (dict(temporal_mask="progressive"), "image"),
        (dict(spatial_mask="window", n_scales=1), "image"),
    ],
)
def test_config_rejections(overrides, kind):
    from sama.errors import ConfigError

    cfg = SamplerConfig(**overrides) if kind == "video" else SamplerConfig.iqa_default(
        **overrides
    )
    with pytest.raises(ConfigError):
        cfg.validate(kind)


@pytest.mark.parametrize("overrides, kind, message", [
    (dict(frames_out=31), "video", "temporal masks need an even frame count, got 31"),
    (dict(n_scales=15), "video", "progressive needs one level per pair: 16 pairs, 15 levels"),
    (dict(temporal_mask="mixed", frames_out=30, n_scales=7), "video",
     "mixed needs a frame count divisible by 4"),
    (dict(frag_h=30, frag_w=30), "image", "240x240 not divisible by the 32-pixel block"),
    (dict(temporal_mask="none", spatial_mask="patch", n_scales=2, frag_h=30, frag_w=30),
     "video", "210x210 not divisible by the 4-pixel block"),
])
def test_config_mask_rules_come_from_the_masks(overrides, kind, message):
    from sama.errors import ConfigError

    cfg = SamplerConfig(**overrides) if kind == "video" else SamplerConfig.iqa_default(
        **overrides
    )
    with pytest.raises(ConfigError, match=message):
        cfg.validate(kind)


@pytest.mark.parametrize("spatial", masks.SPATIAL_KINDS)
@pytest.mark.parametrize("temporal", masks.TEMPORAL_KINDS)
def test_config_caps_the_output_frame_in_every_mode(spatial, temporal):
    """An output of 5e6 x 5e6 pixels is refused before any mask is built:
    a spatial mask's int64 temporary would exceed any address space."""
    from sama.errors import ConfigError

    levels = masks.level_count(spatial, temporal, 8)
    cfg = SamplerConfig(frames_out=8, n_scales=levels, spatial_mask=spatial, temporal_mask=temporal)
    huge = replace(cfg, grid_rows=156_250, grid_cols=156_250)
    for kind in ("image", "video") if temporal == "none" else ("video",):
        cfg.validate(kind)
        with pytest.raises(ConfigError, match="output 5000000x5000000 has more than the"):
            huge.validate(kind)


def test_config_output_cap_is_the_input_cap():
    from sama.errors import ConfigError

    at_cap = SamplerConfig(grid_rows=1, grid_cols=1, frag_h=4096, frag_w=8192, frames_out=1,
                           n_scales=1, temporal_mask="none")
    assert at_cap.out_h * at_cap.out_w == imageio.MAX_PIXELS
    at_cap.validate("image")
    with pytest.raises(ConfigError, match=f"4096x8193 has more than the {imageio.MAX_PIXELS}"):
        replace(at_cap, frag_w=8193).validate("image")


def test_config_mixed_masks_flagged():
    # spatial+temporal runs the one frame-levels rule: nothing to warn about
    cfg = SamplerConfig(spatial_mask="window", temporal_mask="progressive")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg.validate("video")
