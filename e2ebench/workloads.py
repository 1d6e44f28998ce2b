"""The three workloads: their inputs, their operation and its checks.

Inputs are made from the workload seed alone; the program sees only the
files. Expected outputs come from ``reference``, computed from the pixels
the benchmark generated, never from a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference
from .reference import IQA, VQA

CLIP_FRAMES = 2 * VQA.frames_out  # twice the frames the sampler keeps
PAN = (1, 2)  # per-frame camera motion (rows, cols)
WORKLOAD_TAGS = {"vqa-ppm": 1, "iqa-png": 2, "audit-ppm": 3}


class OperationFailed(Exception):
    """The program returned a non-zero exit code."""


@dataclass(frozen=True)
class Item:
    src: Path  # clip directory or image file
    container: Path  # written by the operation (or, for audit, read)


def _rng(seed: int, workload: str, item: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_TAGS[workload], item])


def _value_noise(rng: np.random.Generator, h: int, w: int, cell: int) -> np.ndarray:
    """(h, w, 3) float32 in [0, 1): random lattice, bilinearly interpolated."""
    grid = rng.random((h // cell + 2, w // cell + 2, 3), dtype=np.float32)
    ys = np.arange(h, dtype=np.float32) / cell
    xs = np.arange(w, dtype=np.float32) / cell
    y0, x0 = ys.astype(np.intp), xs.astype(np.intp)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    rows = grid[y0] * (1 - fy) + grid[y0 + 1] * fy
    return rows[:, x0] * (1 - fx) + rows[:, x0 + 1] * fx


def photo_like(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """(h, w, 3) uint8: smooth shading, hard-edged objects and sensor grain."""
    img = 150 * _value_noise(rng, h, w, max(h, w) // 6) + 60 * _value_noise(rng, h, w, 24)
    for _ in range(24):
        y, x = rng.integers(0, h), rng.integers(0, w)
        rh, rw = rng.integers(h // 20, h // 4), rng.integers(w // 20, w // 4)
        img[y : y + rh, x : x + rw] = rng.random(3, dtype=np.float32) * 210
    img += rng.normal(0.0, 6.0, (h, w, 3)).astype(np.float32)
    return np.clip(img + 20, 0, 255).astype(np.uint8)


def write_panning_clip(rng: np.random.Generator, directory: Path, h: int, w: int) -> np.ndarray:
    """Write CLIP_FRAMES binary PPM frames of a camera panning over one
    textured canvas; returns the canvas (frame f is ``crop(canvas, f)``)."""
    canvas = photo_like(rng, h + PAN[0] * CLIP_FRAMES, w + PAN[1] * CLIP_FRAMES)
    directory.mkdir(parents=True)
    header = b"P6\n%d %d\n255\n" % (w, h)
    for f in range(CLIP_FRAMES):
        write_durable(directory / f"frame_{f:06d}.ppm", header + crop(canvas, f, h, w).tobytes())
    return canvas


def write_durable(path: Path, data: bytes) -> None:
    """Write and fsync, so the kernel's write-back of the inputs happens
    during set-up and not under the timed operations."""
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def crop(canvas: np.ndarray, f: int, h: int, w: int) -> np.ndarray:
    y, x = PAN[0] * f, PAN[1] * f
    return canvas[y : y + h, x : x + w]


def expected_clip_output(canvas: np.ndarray, h: int, w: int) -> np.ndarray:
    """(T, H, W, 3) the VQA default should produce from a panning clip."""
    sources = reference.selected_frames(CLIP_FRAMES, VQA.frames_out)
    return np.stack(
        [reference.expected_frame(crop(canvas, f, h, w), VQA, t) for t, f in enumerate(sources)]
    )


def pixel_error(container: Path, expected: np.ndarray) -> str | None:
    """Compare a container's pixels with the reference, one grey level allowed."""
    got = reference.container_pixels(container.read_bytes())
    if got.shape != expected.shape:
        return f"container holds {got.shape}, expected {expected.shape}"
    diff = np.abs(got.astype(np.int16) - expected.astype(np.int16))
    if diff.max() > 1:
        bad = int((diff.max(axis=-1) > 1).sum())
        return f"{bad} pixels differ from the reference by more than one grey level"
    return None


def shares_error(sama, container: Path, regime: reference.Regime) -> str | None:
    shares = sama.pack.read_container(container).scale_shares()
    want = reference.expected_shares(regime)
    if shares != want:
        return f"scale_shares() {shares} differs from the schedule's {want}"
    return None


def run_cli(sama, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = sama.cli.main(argv)
    if code != 0:
        raise OperationFailed(f"sama {argv[0]} exited with code {code}")


# ---------------------------------------------------------------------------


class Workload:
    """One workload; ``generate`` makes inputs, ``operate`` is the timed
    operation, ``check`` verifies one operation's result.

    ``generate`` runs in a process of its own and leaves each item's
    expected output in ``expected<k>.npy``, which ``check`` reads.
    """

    name = ""

    def __init__(self, work: Path):
        self.work = work
        self._expected: dict[int, np.ndarray] = {}

    def items(self) -> list[Item]:
        raise NotImplementedError

    def generate(self, seed: int, sama) -> list[str]:
        """Write the inputs; return errors found in any program output
        made during set-up."""
        raise NotImplementedError

    def operate(self, sama, item: Item):
        raise NotImplementedError

    def check(self, sama, index: int, item: Item, outcome) -> str | None:
        raise NotImplementedError

    def once(self, sama, seed: int) -> list[str]:
        """Checks made once per run, after the timed loop."""
        return []

    def save_expected(self, index: int, pixels: np.ndarray) -> None:
        np.save(self.work / f"expected{index}.npy", pixels)

    def expected(self, index: int) -> np.ndarray:
        if index not in self._expected:
            self._expected[index] = np.load(self.work / f"expected{index}.npy")
        return self._expected[index]


class VqaPpm(Workload):
    name = "vqa-ppm"
    size = (1080, 1920)

    def items(self) -> list[Item]:
        return [Item(self.work / "clip", self.work / "out" / "clip.sama")]

    def generate(self, seed: int, sama) -> list[str]:
        canvas = write_panning_clip(_rng(seed, self.name, 0), self.work / "clip", *self.size)
        (self.work / "out").mkdir()
        self.save_expected(0, expected_clip_output(canvas, *self.size))
        return []

    def operate(self, sama, item: Item):
        run_cli(sama, ["sample-video", str(item.src), "--out", str(item.container)])

    def check(self, sama, index: int, item: Item, outcome) -> str | None:
        return pixel_error(item.container, self.expected(index)) or shares_error(
            sama, item.container, VQA
        )


class IqaPng(Workload):
    name = "iqa-png"
    n_images = 4
    size = (500, 500)

    def items(self) -> list[Item]:
        return [
            Item(self.work / f"photo{k}.png", self.work / "out" / f"photo{k}.sama")
            for k in range(self.n_images)
        ]

    def generate(self, seed: int, sama) -> list[str]:
        (self.work / "out").mkdir(parents=True)
        for k, item in enumerate(self.items()):
            pixels = photo_like(_rng(seed, self.name, k), *self.size)
            # every filter type on a fixed fifth of the rows, shifted per image
            write_durable(item.src, reference.encode_png(pixels, lambda r, k=k: (r + k) % 5))
            self.save_expected(k, reference.expected_frame(pixels, IQA, 0)[None])
        return []

    def operate(self, sama, item: Item):
        run_cli(sama, ["sample-image", str(item.src), "--out", str(item.container)])

    def check(self, sama, index: int, item: Item, outcome) -> str | None:
        return pixel_error(item.container, self.expected(index)) or shares_error(
            sama, item.container, IQA
        )


class AuditPpm(Workload):
    name = "audit-ppm"
    size = (540, 960)

    def items(self) -> list[Item]:
        return [Item(self.work / "clip", self.work / "out" / "clip.sama")]

    def generate(self, seed: int, sama) -> list[str]:
        (item,) = self.items()
        canvas = write_panning_clip(_rng(seed, self.name, 0), item.src, *self.size)
        item.container.parent.mkdir()
        run_cli(sama, ["sample-video", str(item.src), "--out", str(item.container)])
        err = pixel_error(item.container, expected_clip_output(canvas, *self.size))
        return [f"set-up container: {err}"] if err else []

    def operate(self, sama, item: Item):
        config = sama.media.SamplerConfig()
        tensor = sama.pack.read_container(item.container)
        clip = sama.media.load_clip(item.src)
        selected = sama.media.select_frames(
            clip, config.frames_out, config.seed, config.offset_policy
        )
        pyramid = sama.pyramid.build_pyramid(selected, config)
        return sama.pack.provenance_audit(tensor, pyramid)

    def check(self, sama, index: int, item: Item, report) -> str | None:
        want = VQA.frames_out * VQA.out_h * VQA.out_w
        if report.total_pixels != want:
            return f"audit covered {report.total_pixels} pixels, expected {want}"
        if report.mismatches:
            return f"audit reported {report.mismatches} mismatches on an intact container"
        return None

    def once(self, sama, seed: int) -> list[str]:
        """A copy with one flipped pixel byte must fail the audit."""
        item = self.items()[0]
        pixels = VQA.frames_out * VQA.out_h * VQA.out_w * 3
        provenance = pixels // 3 * 11  # 11 bytes a pixel
        header = item.container.stat().st_size - pixels - provenance
        pos = header + int(np.random.default_rng(seed).integers(pixels))
        flipped = item.container.with_name("flipped.sama")
        shutil.copyfile(item.container, flipped)
        with open(flipped, "r+b") as fh:  # flip in place: no second copy in memory
            fh.seek(pos)
            byte = fh.read(1)[0]
            fh.seek(pos)
            fh.write(bytes([byte ^ 0xFF]))
        try:
            report = self.operate(sama, Item(item.src, flipped))
        finally:
            os.unlink(flipped)
        if report.mismatches < 1:
            return ["audit found no mismatch in a container with a flipped pixel byte"]
        return []


WORKLOADS = {w.name: w for w in (VqaPpm, IqaPng, AuditPpm)}
