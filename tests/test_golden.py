"""Container bytes pinned across every sampling mode.

Each case samples a fixed-seed synthetic input and compares the SHA-256
of the serialized container (pixels and provenance) with a stored hash.
A change to the sampler that moves any byte in any mode fails here. The
plan behind each case is also rebuilt from dims alone, with no clip.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from sama import bench
from sama.media import SamplerConfig, select_frames
from sama.pack import container_bytes
from sama.pipeline import SamplingPlan, plan_sampling, sample_image, sample_video

VQA = SamplerConfig.vqa_default
IQA = SamplerConfig.iqa_default


def _video(cfg, height=270, width=480, frames=12):
    return cfg, height, width, frames


def _image(cfg, height=540, width=720):
    return cfg, height, width, None


def _sample(name):
    cfg, height, width, frames = CASES[name]
    if frames is None:
        return sample_image(bench.synthetic_frame(height, width, seed=4), cfg)
    return sample_video(bench.synthetic_clip(height, width, frames, seed=3), cfg)


CASES = {
    "vqa-center": _video(VQA()),
    "vqa-random": _video(VQA(offset_policy="random", seed=21)),
    "vqa-upscaled": _video(VQA(offset_policy="random", seed=22), 150, 170, 6),
    "choppy": _video(VQA(frames_out=8, n_scales=4, temporal_mask="choppy", seed=23)),
    "mixed": _video(VQA(frames_out=8, n_scales=2, temporal_mask="mixed", seed=24)),
    "spatial-window": _video(
        VQA(frames_out=4, n_scales=2, temporal_mask="none", spatial_mask="window", seed=25)
    ),
    "spatial-patch": _video(
        VQA(frames_out=4, n_scales=2, temporal_mask="none", spatial_mask="patch",
            offset_policy="random", seed=26)
    ),
    "progressive-patch-random": _video(
        VQA(frames_out=8, n_scales=4, spatial_mask="patch", offset_policy="random", seed=27)
    ),
    "progressive-window": _video(VQA(frames_out=8, n_scales=4, spatial_mask="window", seed=28)),
    "single-scale": _video(VQA(frames_out=8, n_scales=1, temporal_mask="none", seed=29)),
    "iqa-default": _image(IQA(offset_policy="random", seed=30)),
    "iqa-patch": _image(IQA(spatial_mask="patch", seed=31)),
    "iqa-single-scale": _image(IQA(n_scales=1, spatial_mask="none", seed=32), 300, 260),
}

GOLDEN = {
    "choppy": "d0871e1326d8eacd6501a3f3ae750b276e93f33d5a491b6b1454e90b1515390e",
    "iqa-default": "6369ed1654e00f0e2a1297366d8bc9796a2c3a23eeb90ad05ad3fc8bd847f6c9",
    "iqa-patch": "730fa20a91f528d8f965e3040a97b6e7d810725642571d7316c4220007d37da7",
    "iqa-single-scale": "36d94873a61dc173552cdf76191fad4a0bf13277bffbe5ebdb74d90f81299ebc",
    "mixed": "948b1683d22284bca422bb7eb0cacf92fb95cee3b44400a0246f52f5f9250fcf",
    "progressive-patch-random": "57a4b72b849fe46d75e5591b4ffddcf66a1494bd87965a30d9838bdd4f8b3a97",
    "progressive-window": "e874abacce736472459b226a3a16cfc2a241db920d100114ab3abf7df3b889d0",
    "single-scale": "7f552a9d7f9baf4fe53fbe0123f5245d97fa959c7d462f5d0578d786032b2372",
    "spatial-patch": "e0bacf50ebb3d397bf5fe59cdfb72ed6cc3a299852c15b4c02630466d6a704f4",
    "spatial-window": "f716c5302eff9348594668208c91bc189d1c895dc23a49a96c8cec30be482660",
    "vqa-center": "62c9f7f4f3b11cc6b5c6307bcd3910912da6a6f74352a2046cc2de203f8e0ff9",
    "vqa-random": "f79eb1379708821e1c1d00a852d3d504a207627fcc1fbb7d2f1061bc7e8a74cd",
    "vqa-upscaled": "9e27271e8c370d23896aa5763fb7551656cb112db5766a87758093e57d05d7d4",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_container_bytes_are_pinned(name):
    tensor = _sample(name).tensor
    assert hashlib.sha256(container_bytes(tensor)).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_from_dims_alone_equals_the_sampled_plan(name):
    cfg, height, width, frames = CASES[name]
    keys = (0,)  # an image is a one-frame clip
    if frames is not None:
        clip = bench.synthetic_clip(height, width, frames, seed=3)
        keys = select_frames(clip, cfg.frames_out, cfg.seed, cfg.offset_policy).source_keys
    plan = plan_sampling(height, width, keys, cfg)
    sampled = _sample(name).plan
    for field in fields(SamplingPlan):
        got, want = getattr(plan, field.name), getattr(sampled, field.name)
        if field.name == "offsets":
            assert sorted(got) == sorted(want)
            assert all(np.array_equal(got[s], want[s]) for s in want)
        elif field.name == "owner":
            assert np.array_equal(got, want)
        else:
            assert got == want, field.name
