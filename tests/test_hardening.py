"""Edge cases beyond the happy paths: corrupted provenance, header
truncation, preview rendering on video tensors, minimal temporal arities."""

import numpy as np
import pytest

from sama import imageio
from sama.errors import CorruptFile
from sama.masks import make_temporal_mask
from sama.media import MediaClip, SamplerConfig, select_frames
from sama.pack import provenance_audit, render_preview
from sama.pipeline import sample_video

from conftest import coordinate_clip, coordinate_frame


def test_audit_flags_out_of_bounds_coordinates():
    res = sample_video(coordinate_clip(240, 300, 4), SamplerConfig(frames_out=4, n_scales=2))
    intact = res.tensor.provenance.copy()
    prov = res.tensor.provenance
    prov[0, 0, 0]["y"] = 10_000_000  # beyond any level
    prov[1, 2, 3]["scale"] = 99  # beyond the pyramid
    prov[2, 4, 5]["frame"] = 5000  # beyond the clip
    report = provenance_audit(res.tensor, res.pyramid)
    assert report.mismatches == 3
    assert report.total_pixels == prov.size
    assert 99 in res.tensor.scale_shares()  # an out-of-range scale is still counted

    # the first value outside each range, one field at a time
    level = res.pyramid[int(intact[1, 5, 6]["scale"])]
    first_outside = {
        "scale": len(res.pyramid),
        "frame": len(level.sources),
        "y": level.height,
        "x": level.width,
    }
    for field, value in first_outside.items():
        res.tensor.provenance = intact.copy()
        res.tensor.provenance[1, 5, 6][field] = value
        report = provenance_audit(res.tensor, res.pyramid)
        assert report.mismatches == 1, field
        assert report.total_pixels == intact.size


def test_ppm_header_truncated_variants():
    for blob in (b"P6", b"P6 ", b"P6 5", b"P6 5 5", b"P6 5 5 255"):
        with pytest.raises(CorruptFile):
            imageio.decode_ppm(blob)
    with pytest.raises(CorruptFile):
        imageio.decode_ppm(b"P6 x 5 255 ")  # non-numeric field


def test_ppm_ignores_trailing_bytes():
    data = imageio.encode_ppm(coordinate_frame(2, 2).data) + b"\n"
    assert imageio.decode_ppm(data).shape == (2, 2, 3)


def test_video_previews_render_all_frames():
    cfg = SamplerConfig(frames_out=8, n_scales=4)
    res = sample_video(coordinate_clip(240, 300, 4), cfg)
    for style in ("plain", "tinted"):
        frames = render_preview(res.tensor, style)
        assert len(frames) == 8
    bordered = render_preview(res.tensor, "bordered", cfg.grid_rows, cfg.grid_cols)
    assert len(bordered) == 8
    assert bordered[0].data.shape == (224, 224, 3)


def test_preview_unknown_style():
    res = sample_video(coordinate_clip(240, 300, 2), SamplerConfig(frames_out=4, n_scales=2))
    with pytest.raises(ValueError):
        render_preview(res.tensor, "psychedelic")


def test_minimal_temporal_arities():
    assert make_temporal_mask("progressive", 2, 1).schedule == (0,)
    assert make_temporal_mask("choppy", 4, 2).schedule == (0, 1)
    assert make_temporal_mask("mixed", 4, 1).schedule == (0, 0)
    res = sample_video(
        coordinate_clip(224, 230, 3),
        SamplerConfig(frames_out=4, n_scales=2, temporal_mask="progressive"),
    )
    assert res.tensor.data.shape == (4, 224, 224, 3)
    assert provenance_audit(res.tensor, res.pyramid).ok


def test_select_frames_rejects_bad_count():
    clip = coordinate_clip(8, 8, 3)
    with pytest.raises(ValueError):
        select_frames(clip, 0)
    with pytest.raises(ValueError):
        select_frames(clip, 4, policy="sideways")


def test_single_frame_clip_spatial_mask_video():
    clip = MediaClip((coordinate_frame(400, 640),))
    cfg = SamplerConfig(
        frames_out=4, n_scales=2, temporal_mask="none", spatial_mask="patch",
        offset_policy="random", seed=5,
    )
    res = sample_video(clip, cfg)
    assert res.tensor.data.shape == (4, 224, 224, 3)
    # identical source frames: every output frame identical
    for t in range(1, 4):
        assert np.array_equal(res.tensor.data[t], res.tensor.data[0])
    assert provenance_audit(res.tensor, res.pyramid).ok
