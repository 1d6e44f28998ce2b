"""Per-stage timing harness and synthetic inputs.

Stages are timed where the pipeline does the work: pyramid (schedule,
and executing the plan: level coordinates, row marking, interpolation
taps and the per-frame gathers), fragments (planning: level tuples,
owner map, grid and offsets), compose (the provenance records the plan
builds), and pack (container serialization, in memory so disk noise
stays out of the numbers). Decoding is not timed here: the input is made
in memory.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .media import FrameBuffer, MediaClip, SamplerConfig
from .pack import container_bytes
from .pipeline import sample_image, sample_video
from .pyramid import build_pyramid

BENCH_STAGES = ("pyramid", "fragments", "compose", "pack")


def synthetic_frame(height: int, width: int, seed: int = 0) -> FrameBuffer:
    """Deterministic noise frame for benchmarks and self-checks."""
    rng = np.random.default_rng(seed)
    return FrameBuffer(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))


def synthetic_clip(height: int, width: int, frames: int, seed: int = 0) -> MediaClip:
    rng = np.random.default_rng(seed)
    return MediaClip(
        tuple(
            FrameBuffer(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
            for _ in range(frames)
        )
    )


@dataclass
class StageTiming:
    name: str
    times: list[float]

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def p95(self) -> float:
        ordered = sorted(self.times)
        idx = max(int(np.ceil(0.95 * len(ordered))) - 1, 0)
        return ordered[idx]


def bench_image(
    height: int, width: int, config: SamplerConfig, reps: int, seed: int = 0
) -> dict[str, StageTiming]:
    """Run the image pipeline ``reps`` times and collect per-stage times."""
    frame = synthetic_frame(height, width, seed)
    stages: dict[str, list[float]] = {name: [] for name in BENCH_STAGES}
    for _ in range(reps):
        result = sample_image(frame, config)
        for name in ("pyramid", "fragments", "compose"):
            stages[name].append(result.timings[name])
        t0 = time.perf_counter()
        container_bytes(result.tensor)
        stages["pack"].append(time.perf_counter() - t0)
    return {name: StageTiming(name, times) for name, times in stages.items()}


def compare_single_vs_interlaced(
    height: int,
    width: int,
    reps: int,
    seed: int = 0,
    frames: int = 32,
    clip_frames: int = 4,
) -> dict[str, float]:
    """Median fragment+compose time: plain sampling vs two-scale interlace.

    Runs the video pipeline (the regime the single-scale baseline comes
    from). Both paths gather exactly one output's worth of pixels; the
    interlace adds only a second level's offsets and coordinates and the
    mask constants, amortized over the clip, so the ratio should stay near
    one.
    """
    clip = synthetic_clip(height, width, clip_frames, seed)
    single = SamplerConfig(
        frames_out=frames, n_scales=1, temporal_mask="none", seed=seed
    )
    interlaced = SamplerConfig(
        frames_out=frames, n_scales=2, temporal_mask="none",
        spatial_mask="window", seed=seed,
    )
    for config in (single, interlaced):
        sample_video(clip, config)  # warmup, excluded from the medians
    # alternate the two runs so drift over the timing lands on both sides
    times = {"single_scale": [], "interlaced": []}
    for _ in range(reps):
        for name, config in (("single_scale", single), ("interlaced", interlaced)):
            result = sample_video(clip, config)
            times[name].append(result.timings["fragments"] + result.timings["compose"])
    medians = {name: statistics.median(t) for name, t in times.items()}
    ratio = (
        medians["interlaced"] / medians["single_scale"]
        if medians["single_scale"] > 0
        else float("inf")
    )
    return {**medians, "ratio": ratio}


def pyramid_scaling(
    height: int,
    width: int,
    levels_list: tuple[int, ...] = (2, 4, 8, 16),
    reps: int = 7,
    seed: int = 0,
) -> dict[int, float]:
    """Median time to build and fully materialize an n-level pyramid."""
    clip = MediaClip((synthetic_frame(height, width, seed),))
    out: dict[int, float] = {}
    for levels in levels_list:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            pyramid = build_pyramid(clip, SamplerConfig(n_scales=levels))
            for level in pyramid:
                level.frame(0)
            times.append(time.perf_counter() - t0)
        out[levels] = statistics.median(times)
    return out
