import weakref
from pathlib import Path

import numpy as np
import pytest

from sama import imageio
from sama.media import FrameBuffer, MediaClip


def coordinate_frame(height: int, width: int, tag: int = 0) -> FrameBuffer:
    """Frame whose pixels encode their own coordinates.

    Gather bugs (wrong cell, swapped axes, off-by-one) show up as value
    mismatches anywhere in the output.
    """
    yy = np.arange(height, dtype=np.int64)[:, None]
    xx = np.arange(width, dtype=np.int64)[None, :]
    r = (yy * 7 + xx * 13 + tag) % 256
    g = (yy // 3 + xx * 5 + tag * 11) % 256
    b = (yy * 31 + xx // 2 + tag * 17) % 256
    return FrameBuffer(np.stack([r, g, b], axis=-1).astype(np.uint8))


def coordinate_clip(height: int, width: int, frames: int) -> MediaClip:
    return MediaClip(tuple(coordinate_frame(height, width, tag=t) for t in range(frames)))


def constant_frame(height: int, width: int, color) -> FrameBuffer:
    data = np.empty((height, width, 3), dtype=np.uint8)
    data[:] = color
    return FrameBuffer(data)


@pytest.fixture
def coord_frame():
    return coordinate_frame


@pytest.fixture
def coord_clip():
    return coordinate_clip


def write_clip(directory, frames: int, height: int = 8, width: int = 8, suffix: str = "ppm"):
    """Write ``frames`` coordinate frames as frame_NNNNNN files; returns their paths."""
    encode = imageio.encode_png if suffix == "png" else imageio.encode_ppm
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for t in range(frames):
        path = directory / f"frame_{t:06d}.{suffix}"
        path.write_bytes(encode(coordinate_frame(height, width, tag=t).data))
        paths.append(path)
    return paths


@pytest.fixture
def reads(monkeypatch):
    """The image reads made, as (file name, rows), spied on through
    ``sama.imageio.read_image``, the one read path; ``rows`` is None for a
    whole frame, else the array of rows asked for."""
    calls = []
    real = imageio.read_image

    def spy(path, rows=None, dims=None):
        calls.append((Path(path).name, None if rows is None else np.array(rows)))
        return real(path, rows, dims)

    monkeypatch.setattr(imageio, "read_image", spy)
    return calls


@pytest.fixture
def alive_at_read(monkeypatch):
    """For each image read, how many arrays read earlier are still alive
    (weak references to ``read_image``'s results); its length is the
    number of reads."""
    refs, alive = [], []
    real = imageio.read_image

    def spy(path, rows=None, dims=None):
        alive.append(sum(ref() is not None for ref in refs))
        out = real(path, rows, dims)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(imageio, "read_image", spy)
    return alive
