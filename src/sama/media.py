"""Core media types, clip loading, frame selection, and sampler configuration.

A clip's frames are indices into one frame store. A clip built from
FrameBuffers keeps them in its store; a clip from ``load_clip`` is lazy:
loading lists the frames and checks each header, and its store reads a
frame only when asked. ``select_frames`` and ``split_snippets`` pick
indices into the same store, so selection reads nothing. Indexing
``clip.frames[i]`` reads a whole frame and keeps it. ``MediaClip.read(i,
rows)`` is the read for callers that use each frame once: it returns
just the rows asked for, read from the file (``imageio.read_image``) or
taken from a kept frame, and keeps nothing, so the sampler holds one
source frame's rows at a time. ``MediaClip.source_keys`` names the source
behind each frame, so a reader fetches a repeated frame once. A pyramid's
levels share the clip they were built from as ``sources`` and read it
through these two, whether they are smaller or larger than its frames.

``SamplerConfig.validate`` builds the masks a config names and asks
``masks.level_count``, so the mask rules live only in ``masks``.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import imageio, masks
from .errors import (
    BadArity,
    ConfigError,
    CorruptFile,
    EmptyClip,
    IndivisibleDims,
    InsufficientFrames,
    MixedDimensions,
)
from .rng import DOMAIN_FRAME, bounded

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


class _FrameStore:
    """The frames behind one clip and every clip picked from it, by index.

    Holds each frame's (height, width), and either the frame files, which
    are read when asked for, or the frames themselves, kept from the start.
    A file whose dims differ from its header's at listing (it changed
    since) raises MixedDimensions.
    """

    def __init__(self, dims: tuple[tuple[int, int], ...], paths: tuple[Path, ...], kept: dict):
        self.dims = dims
        self.paths = paths
        self.kept: dict[int, FrameBuffer] = kept

    def read(self, i: int, rows=None) -> np.ndarray:
        """Rows ``rows`` (ascending; every row when None) of frame ``i``, as a
        (len(rows), W, 3) array: of the kept frame if there is one, else read
        from its file and not kept."""
        frame = self.kept.get(i)
        if frame is not None:
            return frame.data if rows is None else frame.data[rows]
        return imageio.read_image(self.paths[i], rows, self.dims[i])

    def keep(self, i: int) -> FrameBuffer:
        """Frame ``i``, read whole and kept."""
        frame = self.kept.get(i)
        if frame is None:
            frame = self.kept[i] = FrameBuffer(self.read(i))
        return frame


class _StoreFrames(Sequence):
    """A clip's frames, as indices into its frame store.

    Indexing reads a frame and keeps it. Clips picked from one clip share
    its store, so a frame kept through one clip is kept for all, and
    repeated indices are one frame.
    """

    def __init__(self, store: _FrameStore, indices: tuple[int, ...]):
        self.store = store
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return self.store.keep(self.indices[index])


@dataclass(frozen=True)
class MediaClip:
    """An ordered run of frames sharing one resolution.

    ``frames`` is a sequence of indices into a frame store. A clip built
    from FrameBuffers keeps them in its own store, where a frame object
    given more than once is one frame; ``load_clip`` gives a store that
    reads each file when asked. ``height``, ``width``, ``len``,
    ``source_keys`` and ``pick`` never read pixels.
    """

    frames: Sequence[FrameBuffer]

    def __post_init__(self):
        if len(self.frames) < 1:
            raise EmptyClip("clip has no frames")
        if not isinstance(self.frames, _StoreFrames):
            given = tuple(self.frames)
            first: dict[int, int] = {}  # frame object -> first position
            keys = tuple(first.setdefault(id(f), i) for i, f in enumerate(given))
            dims = tuple((f.height, f.width) for f in given)
            store = _FrameStore(dims, (), {k: given[k] for k in keys})
            object.__setattr__(self, "frames", _StoreFrames(store, keys))
        dims = [self.frames.store.dims[k] for k in self.frames.indices]
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
        return self.frames.indices

    def read(self, i: int, rows=None) -> np.ndarray:
        """Rows ``rows`` (ascending; every row when None) of frame ``i``, as a
        (len(rows), width, 3) array, for a caller that uses them once: a
        frame not kept yet is read and not kept."""
        return self.frames.store.read(self.frames.indices[i], rows)

    def pick(self, positions) -> MediaClip:
        """The clip of the frames at ``positions``, over the same store, so
        nothing is read."""
        indices = tuple(self.frames.indices[p] for p in positions)
        return MediaClip(_StoreFrames(self.frames.store, indices))


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

    def validate(self, kind: str = "video") -> None:
        """Raise ConfigError on any inconsistent combination.

        The frame counts, level counts and output dims a mode accepts are
        the masks' own rules: validate builds the masks the config names,
        reporting their BadArity or IndivisibleDims as a ConfigError, then
        checks ``n_scales`` against ``masks.level_count``.
        """
        if kind not in ("image", "video"):
            raise ValueError(f"kind must be image|video, got {kind!r}")
        for name in ("grid_rows", "grid_cols", "frag_h", "frag_w"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # before any mask or output array is built, cap the output frame
        # as the readers cap an input frame
        if self.out_h * self.out_w > imageio.MAX_PIXELS:
            raise ConfigError(
                f"output {self.out_h}x{self.out_w} has more than the "
                f"{imageio.MAX_PIXELS} pixels allowed"
            )
        if kind == "video" and not 1 <= self.frames_out <= MAX_FRAMES_OUT:
            raise ConfigError(
                f"frames_out must be in [1, {MAX_FRAMES_OUT}], got {self.frames_out}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.spatial_mask not in masks.SPATIAL_KINDS:
            raise ConfigError(f"unknown spatial_mask {self.spatial_mask!r}")
        if self.temporal_mask not in masks.TEMPORAL_KINDS:
            raise ConfigError(f"unknown temporal_mask {self.temporal_mask!r}")
        if self.offset_policy not in OFFSET_POLICIES:
            raise ConfigError(f"unknown offset_policy {self.offset_policy!r}")

        spatial = self.spatial_mask != "none"
        temporal = self.temporal_mask != "none"
        if kind == "image" and temporal:
            raise ConfigError("temporal masks apply to video input only")
        # the masks own their arity and tiling rules: build the ones named
        try:
            if spatial:
                masks.make_spatial_mask(self.spatial_mask, self.out_h, self.out_w)
            if temporal:
                masks.make_temporal_mask(self.temporal_mask, self.frames_out, self.n_scales)
        except (BadArity, IndivisibleDims) as exc:
            raise ConfigError(str(exc)) from exc
        # a temporal mask has checked its level count; the others take theirs
        levels = masks.level_count(self.spatial_mask, self.temporal_mask, self.frames_out)
        if (spatial or temporal) and self.n_scales == 1:
            raise ConfigError("masks need n_scales > 1 (nothing to interlace)")
        if not temporal and self.n_scales != levels:
            raise ConfigError(
                f"n_scales must be {levels} with spatial_mask {self.spatial_mask!r} "
                f"and no temporal mask, got {self.n_scales}"
            )
        if self.n_scales > 255:
            raise ConfigError("n_scales must be in [1, 255]")


# Per-pixel provenance layout; also the container's on-disk record (11 bytes).
PROVENANCE_DTYPE = np.dtype(
    [("scale", "u1"), ("frame", "<u2"), ("y", "<u4"), ("x", "<u4")]
)
MAX_FRAMES_OUT = np.iinfo(PROVENANCE_DTYPE["frame"]).max + 1  # a record names its frame in a u16


@dataclass(frozen=True)
class ProvenanceEntry:
    """Where one output pixel came from: level, frame, and coordinates.

    In a v1 container ``src_frame`` is the pixel's own output frame. The
    clip frame it was sampled from is that output frame's source key
    (``SamplingPlan.source_keys``); naming it here waits on a container
    that stores it."""

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
    for (i, a, _), (j, b, _) in zip(entries, entries[1:]):
        if i == j:
            raise CorruptFile(f"{a} and {b} both hold frame {i} in {directory}")
    paths = tuple(p for _, _, p in entries)
    store = _FrameStore(tuple(imageio.probe_image(p) for p in paths), paths, {})
    return MediaClip(_StoreFrames(store, tuple(range(len(paths)))))


# ---------------------------------------------------------------------------
# Temporal selection


def select_frames(
    clip: MediaClip, count: int, seed: int = 0, policy: str = "center"
) -> MediaClip:
    """Pick ``count`` frames spread over the clip.

    The clip is split into ``count`` equal temporal bins; the default picks
    each bin's center, ``policy="random"`` jitters within the bin using the
    counter-based generator. Clips shorter than ``count`` repeat frames
    cyclically instead. Nothing is decoded: the clip picked shares the store.
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
    """Cut the first snippet_len*n_snippets frames into contiguous snippets,
    which share the clip's store, so nothing is decoded."""
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
