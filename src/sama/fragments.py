"""Grid cells and fragment offsets: where each cell's fragment lies in a level.

A level is cut into grid_rows x grid_cols cells; each cell contributes one
frag_h x frag_w patch copied byte-for-byte (pure gather, no resampling).
The cells are stated per axis: cell (r, c) spans level rows
[r*H//grid_rows, (r+1)*H//grid_rows) and the analogous columns, so a cell
row shares its height and a cell column its width, and cell sizes differ
by at most one pixel. Offsets are drawn per (seed, level, row, col), so
cells and frames can be processed in any order. For clips the same
offsets apply to every frame, keeping the mosaic temporally aligned.
``plan_level`` makes every placement decision of a level and returns it
as the cells' fragment offsets; ``pipeline.SamplingPlan.coords`` is the
one rule that turns them into per-pixel level coordinates.
"""

from __future__ import annotations

import numpy as np

from .errors import CellSmallerThanFragment, GridTooFine
from .media import SamplerConfig
from .rng import DOMAIN_OFFSET, bounded

# scale key used instead of the level id when offsets are shared across levels
ALIGNED_SCALE_KEY = -1


def plan_level(height: int, width: int, scale_id: int, config: SamplerConfig) -> np.ndarray:
    """Cut level ``scale_id``, of ``height`` x ``width`` pixels, into the
    config's grid and place one fragment per cell: the (grid_rows,
    grid_cols, 2) int64 top-left (y, x) of each cell's fragment, in level
    coordinates.

    ``center`` centres the fragment in its cell (ties toward top-left);
    ``random`` draws it uniformly over the cell's valid positions from the
    counter-based generator. With ``aligned_offsets`` the draw ignores the
    level id, so all levels place a cell's fragment at the same relative
    position. Raises GridTooFine when a cell would be empty and
    CellSmallerThanFragment, naming cell (0,0), when a fragment does not
    fit every cell.
    """
    c = config
    if c.grid_rows < 1 or c.grid_cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    # cell sizes differ by at most one, and the first cell row and column
    # are the smallest: cell (0,0), the first in row-major order, fits least
    h0, w0 = height // c.grid_rows, width // c.grid_cols
    if h0 < 1 or w0 < 1:
        raise GridTooFine(f"cannot cut {height}x{width} into {c.grid_rows}x{c.grid_cols} cells")
    if h0 < c.frag_h or w0 < c.frag_w:
        raise CellSmallerThanFragment(
            f"cell (0,0) is {h0}x{w0}, fragment is {c.frag_h}x{c.frag_w}"
        )
    y_edges = np.arange(c.grid_rows + 1) * height // c.grid_rows
    x_edges = np.arange(c.grid_cols + 1) * width // c.grid_cols
    # valid fragment positions per cell row and per cell column
    ny = np.diff(y_edges) - c.frag_h + 1
    nx = np.diff(x_edges) - c.frag_w + 1
    offsets = np.empty((c.grid_rows, c.grid_cols, 2), dtype=np.int64)
    offsets[..., 0] = y_edges[:-1, None]
    offsets[..., 1] = x_edges[:-1]
    if c.offset_policy == "center":
        offsets[..., 0] += ((ny - 1) // 2)[:, None]
        offsets[..., 1] += (nx - 1) // 2
    elif c.offset_policy == "random":
        key = ALIGNED_SCALE_KEY if c.aligned_offsets else scale_id
        # n as a Python int: the draw's 64-bit product overflows a numpy int
        draws = [
            bounded(c.seed, DOMAIN_OFFSET, key, r, col, axis, n=n)
            for r, n_y in enumerate(ny.tolist())
            for col, n_x in enumerate(nx.tolist())
            for axis, n in ((0, n_y), (1, n_x))
        ]
        offsets += np.array(draws, dtype=np.int64).reshape(offsets.shape)
    else:
        raise ValueError(f"unknown offset policy {c.offset_policy!r}")
    return offsets
