"""Core media types, clip loading, frame selection, and sampler configuration.

A clip from ``load_clip`` is lazy: loading lists the frames and checks
each header, and nothing is decoded until a frame is asked for.
``select_frames`` and ``split_snippets`` on a lazy clip return lazy clips
over the chosen files, so selection decodes nothing. Indexing
``clip.frames[i]`` decodes a frame and keeps it; ``MediaClip.read`` is the
read for callers that use each frame once, and keeps nothing, so the
sampler holds one source frame at a time. ``MediaClip.source_keys`` names
the source behind each frame, so a reader fetches a repeated frame once.

``SamplerConfig.validate`` checks mask arity and tiling by building the
masks a config names, so those rules live only in ``masks``.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import imageio, masks
from .errors import (
    BadArity,
    ConfigError,
    EmptyClip,
    IndivisibleDims,
    InsufficientFrames,
    MixedDimensions,
)
from .rng import DOMAIN_FRAME, bounded

SPATIAL_MASK_KINDS = ("none", "window", "patch")
TEMPORAL_MASK_KINDS = ("none", "progressive", "choppy", "mixed")
OFFSET_POLICIES = ("random", "center")

FRAME_NAME_RE = re.compile(r"frame_(\d{6})\.(png|ppm)$")


@dataclass(frozen=True)
class FrameBuffer:
    """One decoded RGB frame: (height, width, 3) uint8, row-major."""

    data: np.ndarray

    def __post_init__(self):
        d = self.data
        if not isinstance(d, np.ndarray) or d.ndim != 3 or d.shape[2] != 3:
            raise ValueError("FrameBuffer needs an (H, W, 3) array")
        if d.dtype != np.uint8:
            raise ValueError(f"FrameBuffer needs uint8 samples, got {d.dtype}")
        if d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError("FrameBuffer dimensions must be at least 1x1")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


class _FrameFiles:
    """The frame files of one clip directory and the frames kept so far.

    Holds the frame paths and the (height, width) each header declares. A
    frame whose decoded dims differ (the file changed after listing)
    raises MixedDimensions.
    """

    def __init__(self, paths: tuple[Path, ...], dims: tuple[tuple[int, int], ...]):
        self.paths = paths
        self.dims = dims
        self.kept: dict[int, FrameBuffer] = {}

    def read(self, i: int, keep: bool) -> FrameBuffer:
        """File ``i``'s frame: the kept one if there is one, else decoded
        (and kept when ``keep``)."""
        frame = self.kept.get(i)
        if frame is None:
            frame = load_image(self.paths[i])
            h, w = self.dims[i]
            if (frame.height, frame.width) != (h, w):
                raise MixedDimensions(
                    f"{self.paths[i].name} is {frame.height}x{frame.width}, "
                    f"its header said {h}x{w}"
                )
            if keep:
                self.kept[i] = frame
        return frame


class _LazyFrames(Sequence):
    """Frames of a clip directory, as indices into its files.

    Indexing decodes a frame on first access and keeps it. Selections
    share the files, so a frame kept through one clip is kept for all, and
    repeated indices are one frame.
    """

    def __init__(self, files: _FrameFiles, indices: tuple[int, ...]):
        self.files = files
        self.indices = indices

    @property
    def dims(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.files.dims[i] for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return self.files.read(self.indices[index], keep=True)


@dataclass(frozen=True)
class MediaClip:
    """An ordered run of frames sharing one resolution.

    ``frames`` is a tuple of FrameBuffers, or the lazy sequence
    ``load_clip`` returns; ``height``, ``width``, ``len``, ``source_keys``
    and ``pick`` never decode.
    """

    frames: Sequence[FrameBuffer]
    nominal_fps: float | None = None

    def __post_init__(self):
        if len(self.frames) < 1:
            raise EmptyClip("clip has no frames")
        if isinstance(self.frames, _LazyFrames):
            dims = self.frames.dims
        else:
            dims = [(f.height, f.width) for f in self.frames]
        h, w = dims[0]
        for i, (fh, fw) in enumerate(dims):
            if (fh, fw) != (h, w):
                raise MixedDimensions(f"frame {i} is {fh}x{fw}, expected {h}x{w}")
        object.__setattr__(self, "_dims", (h, w))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def height(self) -> int:
        return self._dims[0]

    @property
    def width(self) -> int:
        return self._dims[1]

    @property
    def source_keys(self) -> tuple[int, ...]:
        """Per frame, a key naming its source: frames with equal keys are one
        source frame (a short clip's repeats), so a reader fetches it once."""
        if isinstance(self.frames, _LazyFrames):
            return self.frames.indices
        first: dict[int, int] = {}  # the tuple keeps every frame, so ids are stable
        return tuple(first.setdefault(id(f), i) for i, f in enumerate(self.frames))

    def read(self, i: int) -> FrameBuffer:
        """Frame ``i`` for a caller that uses it once: a lazy clip decodes it
        without keeping it, unless it is already kept."""
        if isinstance(self.frames, _LazyFrames):
            return self.frames.files.read(self.frames.indices[i], keep=False)
        return self.frames[i]

    def pick(self, positions) -> MediaClip:
        """The clip of the frames at ``positions``; a lazy clip stays lazy."""
        frames = self.frames
        if isinstance(frames, _LazyFrames):
            picked = _LazyFrames(frames.files, tuple(frames.indices[p] for p in positions))
            return MediaClip(picked, self.nominal_fps)
        return MediaClip(tuple(frames[p] for p in positions), self.nominal_fps)


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the scaling / fragment-sampling / masking pipeline.

    Defaults are the video regime: 7x7 grid of 32x32 fragments (224x224
    output), 32 frames, 16 pyramid levels interlaced by the progressive
    temporal mask. Use ``iqa_default()`` for the image regime.
    """

    grid_rows: int = 7
    grid_cols: int = 7
    frag_h: int = 32
    frag_w: int = 32
    frames_out: int = 32
    n_scales: int = 16
    spatial_mask: str = "none"
    temporal_mask: str = "progressive"
    offset_policy: str = "center"
    seed: int = 0
    aligned_offsets: bool = False

    @staticmethod
    def iqa_default(**overrides) -> "SamplerConfig":
        """Image regime: 8x8 grid, 256x256 output, two-scale window mask."""
        cfg = SamplerConfig(
            grid_rows=8,
            grid_cols=8,
            frames_out=1,
            n_scales=2,
            spatial_mask="window",
            temporal_mask="none",
        )
        return replace(cfg, **overrides)

    @staticmethod
    def vqa_default(**overrides) -> "SamplerConfig":
        """Video regime: 224x224x32 output, progressive 16-level interlace."""
        return replace(SamplerConfig(), **overrides)

    @property
    def out_h(self) -> int:
        return self.grid_rows * self.frag_h

    @property
    def out_w(self) -> int:
        return self.grid_cols * self.frag_w

    @property
    def target_min(self) -> int:
        """Min-side of the coarsest pyramid level (the mosaic min-side)."""
        return min(self.out_h, self.out_w)

    def validate(self, kind: str = "video") -> None:
        """Raise ConfigError on any inconsistent combination.

        The frame counts, level counts and output dims a mask accepts are
        the mask's own rules: validate builds the masks the config names
        and reports their BadArity or IndivisibleDims as a ConfigError.
        """
        if kind not in ("image", "video"):
            raise ValueError(f"kind must be image|video, got {kind!r}")
        for name in ("grid_rows", "grid_cols", "frag_h", "frag_w"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_scales < 1 or self.n_scales > 255:
            raise ConfigError("n_scales must be in [1, 255]")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.spatial_mask not in SPATIAL_MASK_KINDS:
            raise ConfigError(f"unknown spatial_mask {self.spatial_mask!r}")
        if self.temporal_mask not in TEMPORAL_MASK_KINDS:
            raise ConfigError(f"unknown temporal_mask {self.temporal_mask!r}")
        if self.offset_policy not in OFFSET_POLICIES:
            raise ConfigError(f"unknown offset_policy {self.offset_policy!r}")

        spatial = self.spatial_mask != "none"
        temporal = self.temporal_mask != "none"
        if kind == "image" and temporal:
            raise ConfigError("temporal masks apply to video input only")
        if kind == "video" and self.frames_out < 1:
            raise ConfigError("frames_out must be >= 1")
        if self.n_scales == 1:
            if spatial or temporal:
                raise ConfigError("masks need n_scales > 1 (nothing to interlace)")
        elif not spatial and not temporal:
            raise ConfigError(
                "n_scales > 1 needs a spatial or temporal mask to pack "
                "the pyramid into one output"
            )
        if spatial and not temporal and self.n_scales != 2:
            raise ConfigError("spatial masks interlace exactly two scales")
        # the masks own their arity and tiling rules: build the ones named
        try:
            if spatial:
                masks.make_spatial_mask(self.spatial_mask, self.out_h, self.out_w)
            if temporal:
                masks.make_temporal_mask(self.temporal_mask, self.frames_out, self.n_scales)
        except (BadArity, IndivisibleDims) as exc:
            raise ConfigError(str(exc)) from exc
        if spatial and temporal:
            warnings.warn(
                "combining spatial and temporal masks is experimental",
                stacklevel=2,
            )


# Per-pixel provenance layout; also the container's on-disk record (11 bytes).
PROVENANCE_DTYPE = np.dtype(
    [("scale", "u1"), ("frame", "<u2"), ("y", "<u4"), ("x", "<u4")]
)


@dataclass(frozen=True)
class ProvenanceEntry:
    """Where one output pixel came from: level, frame, and coordinates."""

    scale_id: int
    src_frame: int
    src_y: int
    src_x: int


# ---------------------------------------------------------------------------
# Loading


def load_image(path: str | Path) -> FrameBuffer:
    """Decode one PNG or binary-PPM file."""
    return FrameBuffer(imageio.read_image(path))


def load_clip(directory: str | Path) -> MediaClip:
    """List a frame directory (frame_000001.png, ...) ordered by index.

    Every frame's header is checked here: its format, that all frames
    share one resolution, and that a PPM file holds its whole raster.
    Pixels are decoded when a frame is read, so corrupt PNG pixel data in
    a frame that is never selected goes unnoticed.
    """
    directory = Path(directory)
    entries = []
    for p in directory.iterdir():
        m = FRAME_NAME_RE.fullmatch(p.name)
        if m:
            entries.append((int(m.group(1)), p.name, p))
    if not entries:
        raise EmptyClip(f"no frame_NNNNNN.(png|ppm) files in {directory}")
    entries.sort()
    paths = tuple(p for _, _, p in entries)
    files = _FrameFiles(paths, tuple(imageio.probe_image(p) for p in paths))
    return MediaClip(_LazyFrames(files, tuple(range(len(paths)))))


# ---------------------------------------------------------------------------
# Temporal selection


def select_frames(
    clip: MediaClip, count: int, seed: int = 0, policy: str = "center"
) -> MediaClip:
    """Pick ``count`` frames spread over the clip.

    The clip is split into ``count`` equal temporal bins; the default picks
    each bin's center, ``policy="random"`` jitters within the bin using the
    counter-based generator. Clips shorter than ``count`` repeat frames
    cyclically instead. Nothing is decoded: a lazy clip gives a lazy clip.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if policy not in OFFSET_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    n = len(clip)
    if n < count:
        indices = [k % n for k in range(count)]
    else:
        indices = []
        for k in range(count):
            lo = (k * n) // count
            hi = ((k + 1) * n) // count
            if policy == "random":
                indices.append(lo + bounded(seed, DOMAIN_FRAME, k, n=hi - lo))
            else:
                # bin center, ties toward the earlier frame
                indices.append((lo + hi) // 2)
    return clip.pick(indices)


def split_snippets(clip: MediaClip, snippet_len: int, n_snippets: int) -> list[MediaClip]:
    """Cut the first snippet_len*n_snippets frames into contiguous snippets;
    a lazy clip gives lazy snippets."""
    if snippet_len < 1 or n_snippets < 1:
        raise ValueError("snippet_len and n_snippets must be >= 1")
    need = snippet_len * n_snippets
    if len(clip) < need:
        raise InsufficientFrames(
            f"need {need} frames for {n_snippets} snippets of {snippet_len}, "
            f"clip has {len(clip)}"
        )
    return [
        clip.pick(range(i * snippet_len, (i + 1) * snippet_len)) for i in range(n_snippets)
    ]
