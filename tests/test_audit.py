"""The provenance audit against a per-pixel oracle written from the README
rule, and the audit's memory bound."""

import functools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sama.pack
from sama.media import PROVENANCE_DTYPE, SamplerConfig, load_clip, select_frames
from sama.pack import SampledTensor, provenance_audit, read_container, write_container
from sama.pipeline import sample_video
from sama.pyramid import PyramidLevel, build_pyramid

from conftest import coordinate_clip, write_clip

CHUNK = sama.pack._AUDIT_CHUNK
SIDE = 96  # output frames of 96x96 hold more than one chunk of pixels
PIXELS = SIDE * SIDE
assert PIXELS > CHUNK + 1

# Five source slots over a three-frame clip, so slots repeat source keys;
# levels below, at and above the source size.
_SOURCES = select_frames(coordinate_clip(40, 56, 3), 5)
assert len(set(_SOURCES.source_keys)) < len(_SOURCES)
FRAMES = len(_SOURCES)  # output frames of the oracle test, one per slot
_PYRAMID = [
    PyramidLevel(s, _SOURCES, h, w)
    for s, (h, w) in enumerate([(40, 56), (29, 37), (17, 23), (50, 71)])
]


def _taps(i: int, n_in: int, n_out: int):
    """Half-pixel centre clamped to the edge; the taps below and above it
    and the float32 weight of the one above."""
    centre = min(max((i + 0.5) * (n_in / n_out) - 0.5, 0.0), n_in - 1.0)
    i0 = math.floor(centre)
    return i0, min(i0 + 1, n_in - 1), np.float32(centre - i0)


@functools.lru_cache(maxsize=None)
def _rule(fr: int, h: int, w: int, y: int, x: int) -> tuple[int, int, int]:
    """Level pixel (y, x) of an h x w level over source slot ``fr``: a
    horizontal, then a vertical float32 blend, rounded half up."""
    src = _SOURCES.read(fr)
    y0, y1, fy = _taps(y, src.shape[0], h)
    x0, x1, fx = _taps(x, src.shape[1], w)
    out = []
    for c in range(3):
        p00, p01, p10, p11 = (
            np.float32(src[r, q, c]) for r, q in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))
        )
        top = p00 + fx * (p01 - p00)
        bottom = p10 + fx * (p11 - p10)
        value = top + fy * (bottom - top)
        out.append(min(max(math.floor(value + np.float32(0.5)), 0), 255))
    return tuple(out)


def _oracle(t: SampledTensor, pyramid) -> tuple[int, dict[int, float]]:
    """(mismatches, per-scale shares of the pixels), one pixel at a time:
    output frame f's pixels are checked against frame f of the clip, so a
    record naming another frame is a mismatch."""
    prov = t.provenance.reshape(-1)
    scales, frames, ys, xs = (prov[k].tolist() for k in PROVENANCE_DTYPE.names)
    slots = np.repeat(np.arange(t.frames_out), t.height * t.width).tolist()
    got = [tuple(p) for p in t.data.reshape(-1, 3).tolist()]
    mismatches = 0
    for f, s, fr, y, x, value in zip(slots, scales, frames, ys, xs, got):
        if s >= len(pyramid) or fr != f:
            mismatches += 1
            continue
        level = pyramid[s]
        if f >= len(level.sources) or y >= level.height or x >= level.width:
            mismatches += 1
            continue
        mismatches += _rule(f, level.height, level.width, y, x) != value
    return mismatches, {s: c / len(scales) for s, c in Counter(scales).items()}


def _tensor(rng, frames: int, groups=None) -> SampledTensor:
    """Output frames whose first ``split`` pixels record one level and the
    rest another, each record naming its own frame, at random in-range
    coordinates; the values are the levels' own pixels. Frame ``f``'s two
    levels are ``groups[f]`` if given, else drawn at random."""
    prov = np.zeros((frames, PIXELS), dtype=PROVENANCE_DTYPE)
    data = np.zeros((frames, PIXELS, 3), dtype=np.uint8)
    for f in range(frames):
        split = int(rng.integers(CHUNK + 1, PIXELS))
        if groups is None:
            scales = rng.choice(len(_PYRAMID), size=2, replace=False)
        else:
            scales = groups[f]
        for (lo, hi), s in zip(((0, split), (split, PIXELS)), scales):
            level = _PYRAMID[s]
            part = prov[f, lo:hi]
            part["scale"], part["frame"] = s, f
            part["y"] = rng.integers(0, level.height, hi - lo)
            part["x"] = rng.integers(0, level.width, hi - lo)
            data[f, lo:hi] = level.frame(f)[part["y"], part["x"]]
    return SampledTensor(
        kind="video",
        data=data.reshape(frames, SIDE, SIDE, 3),
        n_scales=len(_PYRAMID),
        provenance=prov.reshape(frames, SIDE, SIDE),
    )


_FAULTS = {
    "byte": None,  # one channel
    "pixel": None,  # every channel: still one mismatch
    "scale": (len(_PYRAMID), 255),
    "frame": (None, 0xFFFF),  # None: the next output frame
    "y": (None, 0xFFFFFFFF),  # None: the level's first value outside
    "x": (None, 0xFFFFFFFF),
}


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(
        st.tuples(
            st.integers(0, FRAMES - 1),  # output frame
            st.sampled_from([0, CHUNK - 1, CHUNK, PIXELS - 1]),
            st.sampled_from(sorted(_FAULTS)),
            st.integers(0, 1),  # which value, or channel
        ),
        max_size=6,
    ),
)
def test_audit_matches_a_per_pixel_oracle(seed, faults):
    t = _tensor(np.random.default_rng(seed), FRAMES)
    data = t.data.reshape(FRAMES, PIXELS, 3)
    prov = t.provenance.reshape(FRAMES, PIXELS)
    for f, p, kind, pick in faults:
        if kind in ("byte", "pixel"):
            data[f, p, pick if kind == "byte" else slice(None)] ^= 0x80
            continue
        value = _FAULTS[kind][pick]
        if value is None and kind == "frame":
            value = (f + 1) % FRAMES
        elif value is None and prov[f, p]["scale"] < len(_PYRAMID):
            level = _PYRAMID[prov[f, p]["scale"]]
            value = level.height if kind == "y" else level.width
        elif value is None:
            value = 0  # the scale is already out of range
        prov[f, p][kind] = value
    report = provenance_audit(t, _PYRAMID)
    mismatches, shares = _oracle(t, _PYRAMID)
    assert report.total_pixels == FRAMES * PIXELS
    assert report.mismatches == mismatches
    assert t.scale_shares() == shares
    if not faults:
        assert mismatches == 0


def test_audit_files_frames_in_and_out_of_key_order_alike():
    """Frame 0's two levels are in key order, so the audit files them as
    views of the tensor; frame 1's are not, so it sorts and copies them.
    Each frame has one flipped byte and one ``y`` outside its level, and
    both give the oracle's report."""
    # a record's key is frame << 8 | scale, and a frame's records share a frame
    t = _tensor(np.random.default_rng(23), 2, [(0, 2), (2, 0)])
    data = t.data.reshape(2, PIXELS, 3)
    prov = t.provenance.reshape(2, PIXELS)
    for f in range(2):
        data[f, 0, 1] ^= 0x80
        prov[f, PIXELS - 1]["y"] = _PYRAMID[prov[f, PIXELS - 1]["scale"]].height
    report = provenance_audit(t, _PYRAMID)
    assert (report.mismatches, t.scale_shares()) == _oracle(t, _PYRAMID)
    assert report.mismatches == 4
    # frame 0's byte is in its level-0 group and its y in its level-2 group,
    # frame 1's the other way round; a group that loses a pixel is a copy
    views = ({0: True, 2: False}, {0: False, 2: False})
    dims = [(level.height, level.width) for level in _PYRAMID]
    for f, view in enumerate(views):
        levels = {}  # scale id -> parts
        assert sama.pack._collect_checks(prov[f], data[f], f, dims, levels) == 1
        shared = {s: np.shares_memory(got, t.data) for s, parts in levels.items() for *_, got in parts}
        assert shared == view


def test_a_record_naming_another_slot_of_its_source_is_a_mismatch():
    """Output frame f is checked against its own source frame, so a record
    whose ``frame`` names another output frame is a mismatch even when that
    frame repeats the same source, where following the record would read
    the same pixels."""
    cfg = SamplerConfig(grid_rows=2, grid_cols=2, frag_h=4, frag_w=4, frames_out=8, n_scales=4)
    res = sample_video(coordinate_clip(40, 56, 3), cfg)
    keys = res.pyramid[0].sources.source_keys
    f, g = next((f, g) for f in range(8) for g in range(8) if f != g and keys[f] == keys[g])
    assert provenance_audit(res.tensor, res.pyramid).ok
    res.tensor.provenance[f, 1, 2]["frame"] = g
    assert provenance_audit(res.tensor, res.pyramid).mismatches == 1


def test_output_frames_past_the_clip_are_mismatches_whole():
    """A clip shorter than the tensor has no source for its last output
    frames, so each of their pixels is a mismatch; the others check clean."""
    t = _tensor(np.random.default_rng(7), FRAMES)
    short = _SOURCES.pick(range(3))
    pyramid = [PyramidLevel(lvl.scale_id, short, lvl.height, lvl.width) for lvl in _PYRAMID]
    report = provenance_audit(t, pyramid)
    assert report.mismatches == _oracle(t, pyramid)[0] == (FRAMES - 3) * PIXELS


def test_audit_of_an_empty_pyramid_is_a_value_error():
    # with no level there is no clip to read, so no pixel can be checked
    t = _tensor(np.random.default_rng(5), 1)
    with pytest.raises(ValueError, match="at least one level"):
        provenance_audit(t, [])


def test_audit_builds_tables_once_per_source_frame_and_level(monkeypatch):
    """Output frames that repeat a source frame at one level share its row
    and column tables: two ``_axis_table`` calls per distinct (source frame,
    level), however many output frames record it, and every pixel is still
    checked."""
    cfg = SamplerConfig(
        grid_rows=2, grid_cols=2, frag_h=4, frag_w=4, frames_out=64,
        n_scales=2, temporal_mask="choppy",
    )
    res = sample_video(coordinate_clip(40, 56, 3), cfg)
    keys = res.pyramid[0].sources.source_keys
    owner = {}  # (source key, level) -> the output frames recording it
    for f, rec in enumerate(res.tensor.provenance):
        for s, fr in set(zip(rec["scale"].flat, rec["frame"].flat)):
            owner.setdefault((keys[fr], int(s)), []).append(f)
    assert len(owner) == 6
    calls = []
    real = sama.pack._axis_table

    def spy(n_in, n_out):
        calls.append((n_in, n_out))
        return real(n_in, n_out)

    monkeypatch.setattr(sama.pack, "_axis_table", spy)
    assert provenance_audit(res.tensor, res.pyramid).mismatches == 0
    assert len(calls) == 2 * len(owner) == 12
    # one flipped byte in each of two output frames sharing (source frame, level)
    f0, f1 = next(fs for fs in owner.values() if len(fs) > 1)[:2]
    res.tensor.data[f0, 0, 0, 0] ^= 0x01
    res.tensor.data[f1, 7, 7, 2] ^= 0x01
    assert provenance_audit(res.tensor, res.pyramid).mismatches == 2


def test_audit_memory_is_one_frame_of_records_and_one_source_of_rows(tmp_path, reads):
    """The audit holds views of the records, copies only for out-of-order
    frames, the tapped rows of one source frame and one chunk's
    temporaries, so its peak does not grow with the clip, nor by widening
    a frame's coordinates at once. A one-frame clip under the progressive
    mask repeats its source in both output frames of each level: their
    parts are checked where they lie, not joined into copies."""
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    for clip_frames in (8, 1):
        clip = tmp_path / f"clip{clip_frames}"
        write_clip(clip, clip_frames, 540, 960)
        res = sample_video(load_clip(clip), cfg)
        pyramid = build_pyramid(select_frames(load_clip(clip), 8, cfg.seed, cfg.offset_policy), cfg)
        assert provenance_audit(res.tensor, pyramid).ok  # first use imports lazily
        del reads[:]
        tracemalloc.start()
        try:
            report = provenance_audit(res.tensor, pyramid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and len(reads) == clip_frames
        records = res.tensor.provenance[0].nbytes  # 11 bytes a pixel
        rows = max(len(r) for _, r in reads) * 960 * 3
        chunk = CHUNK * 160  # the kernel's temporaries, about 130 bytes a pixel
        # widening one frame's y and x to intp at once would add 16 bytes a
        # pixel, and joining copies of a level's two output frames 22
        assert peak < records + rows + chunk, (clip_frames, peak, records, rows, chunk)


def test_audit_files_frames_in_key_order_as_views(tmp_path, reads):
    """Every frame the VQA default writes records one (source frame, level),
    so its keys are in order and the audit files its pixels as views of the
    tensor: beside one source frame's rows and one chunk, its peak has no
    term for a frame's records (the setup of the test above)."""
    write_clip(tmp_path / "clip", 8, 540, 960)
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    res = sample_video(load_clip(tmp_path / "clip"), cfg)
    pyramid = build_pyramid(
        select_frames(load_clip(tmp_path / "clip"), 8, cfg.seed, cfg.offset_policy), cfg
    )
    assert provenance_audit(res.tensor, pyramid).ok  # first use imports lazily
    del reads[:]
    tracemalloc.start()
    try:
        report = provenance_audit(res.tensor, pyramid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(reads) == 8
    rows = max(len(r) for _, r in reads) * 960 * 3
    chunk = CHUNK * 160
    assert peak < rows + chunk, (peak, rows, chunk)


# ---------------------------------------------------------------------------
# Stored containers: the audit reads one output frame at a time


def test_a_stored_tensor_audits_as_its_arrays(tmp_path):
    """The oracle's faults, and output frames past a short clip, give the
    same report read from a file as held in memory."""
    t = _tensor(np.random.default_rng(11), FRAMES)
    data = t.data.reshape(FRAMES, PIXELS, 3)
    prov = t.provenance.reshape(FRAMES, PIXELS)
    data[0, CHUNK, 2] ^= 0x80
    prov[1, 0]["scale"] = len(_PYRAMID)
    prov[2, PIXELS - 1]["frame"] = 0
    prov[3, CHUNK - 1]["x"] = 0xFFFFFFFF
    write_container(t, tmp_path / "t.sama")
    short = _SOURCES.pick(range(3))
    on_short = [PyramidLevel(lvl.scale_id, short, lvl.height, lvl.width) for lvl in _PYRAMID]
    for pyramid in (_PYRAMID, on_short):
        stored = provenance_audit(read_container(tmp_path / "t.sama"), pyramid)
        assert stored == provenance_audit(t, pyramid)
        assert stored.mismatches == _oracle(t, pyramid)[0] > 0


@pytest.mark.parametrize("section", ["pixels", "records"])
def test_a_flipped_byte_in_a_stored_container_is_a_mismatch(tmp_path, section):
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    res = sample_video(coordinate_clip(120, 150, 8), cfg)
    path = tmp_path / "t.sama"
    write_container(res.tensor, path)
    assert provenance_audit(read_container(path), res.pyramid).ok
    pixels = res.tensor.data.nbytes
    at = path.stat().st_size - pixels - res.tensor.provenance.nbytes  # the payload's start
    # a pixel's channel byte, or the low byte of a record's y
    at += pixels // 2 if section == "pixels" else pixels + 1000 * PROVENANCE_DTYPE.itemsize + 3
    with open(path, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)[0]
        fh.seek(at)
        fh.write(bytes([byte ^ 0xFF]))
    assert provenance_audit(read_container(path), res.pyramid).mismatches >= 1


def test_audit_of_a_stored_container_holds_one_frame_at_a_time(tmp_path, reads):
    """Thirty-two output frames of 32 source frames: the audit holds one
    output frame's pixels and records, read from the file, beside one source
    frame's rows and one chunk, and never the whole payload (22.5 MB)."""
    write_clip(tmp_path / "clip", 32, 240, 320)
    cfg = SamplerConfig.vqa_default()
    write_container(sample_video(load_clip(tmp_path / "clip"), cfg).tensor, tmp_path / "t.sama")
    clip = select_frames(load_clip(tmp_path / "clip"), cfg.frames_out, cfg.seed, cfg.offset_policy)
    pyramid = build_pyramid(clip, cfg)
    assert provenance_audit(read_container(tmp_path / "t.sama"), pyramid).ok  # lazy imports
    del reads[:]
    tracemalloc.start()
    try:
        report = provenance_audit(read_container(tmp_path / "t.sama"), pyramid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(reads) == 32
    frame = cfg.out_h * cfg.out_w * (3 + PROVENANCE_DTYPE.itemsize)
    rows = max(len(r) for _, r in reads) * 320 * 3
    chunk = CHUNK * 160  # the kernel's temporaries, about 130 bytes a pixel
    assert peak < frame + rows + chunk + 2 * 2**20, (peak, frame, rows, chunk)
