"""Scale-interlaced fragment sampling for quality-assessment pipelines.

Turns arbitrary-resolution images and videos into fixed-size mosaics of
raw-resolution fragments drawn from a multi-scale pyramid, interlaced by
spatial or temporal masks, with per-pixel provenance for exact auditing.
A small numeric kernel verifies the scale-encoded attention variants and
the pooling head that consume such mosaics.
"""

from .errors import SamaError
from .fragments import GridCell, grid_partition
from .masks import (
    InterlaceMask,
    SpatialMask,
    TemporalMask,
    make_interlace_mask,
    make_spatial_mask,
    make_temporal_mask,
)
from .media import (
    FrameBuffer,
    MediaClip,
    ProvenanceEntry,
    SamplerConfig,
    load_clip,
    load_image,
    select_frames,
    split_snippets,
)
from .pack import (
    AuditReport,
    SampledTensor,
    provenance_audit,
    read_container,
    render_preview,
    write_container,
)
from .pipeline import SampleResult, sample_image, sample_media, sample_video
from .pyramid import (
    PyramidLevel,
    ScaleSchedule,
    bilinear_resize,
    build_pyramid,
    scale_schedule,
    upscale_if_small,
)
from .scalehead import (
    AttnInputs,
    FeatureGrid,
    HeadParams,
    SqueezeExciteParams,
    attn_base,
    attn_rsb_add,
    attn_rsb_mul,
    feature_grid_dims,
    grad_check,
    quality_head,
    run_property_suite,
    se_gate,
    temporal_weights_from_features,
    weighted_pool,
)

__version__ = "0.1.0"

__all__ = [
    "AttnInputs",
    "AuditReport",
    "FeatureGrid",
    "FrameBuffer",
    "GridCell",
    "HeadParams",
    "InterlaceMask",
    "MediaClip",
    "ProvenanceEntry",
    "PyramidLevel",
    "SampledTensor",
    "SampleResult",
    "SamplerConfig",
    "SamaError",
    "ScaleSchedule",
    "SpatialMask",
    "SqueezeExciteParams",
    "TemporalMask",
    "attn_base",
    "attn_rsb_add",
    "attn_rsb_mul",
    "bilinear_resize",
    "build_pyramid",
    "feature_grid_dims",
    "grad_check",
    "grid_partition",
    "load_clip",
    "load_image",
    "make_interlace_mask",
    "make_spatial_mask",
    "make_temporal_mask",
    "provenance_audit",
    "quality_head",
    "read_container",
    "render_preview",
    "run_property_suite",
    "sample_image",
    "sample_media",
    "sample_video",
    "scale_schedule",
    "se_gate",
    "select_frames",
    "split_snippets",
    "temporal_weights_from_features",
    "upscale_if_small",
    "weighted_pool",
    "write_container",
]
