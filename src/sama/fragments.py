"""Grid partition and per-cell raw-resolution patch extraction.

A level is cut into grid_rows x grid_cols cells; each cell contributes one
frag_h x frag_w patch copied byte-for-byte (pure gather, no resampling).
Offsets are drawn per (seed, level, row, col), so cells and frames can be
processed in any order. For clips the same offsets apply to every frame,
keeping the mosaic temporally aligned. ``plan_level`` makes every
placement decision of a level; the sampler reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CellSmallerThanFragment, GridTooFine
from .media import SamplerConfig
from .pyramid import PyramidLevel
from .rng import DOMAIN_OFFSET, bounded

# scale key used instead of the level id when offsets are shared across levels
ALIGNED_SCALE_KEY = -1


@dataclass(frozen=True)
class GridCell:
    """One rectangle of the balanced integer partition."""

    row: int
    col: int
    y0: int
    x0: int
    h: int
    w: int


def grid_partition(level_h: int, level_w: int, grid_rows: int, grid_cols: int) -> list[GridCell]:
    """Tile (level_h, level_w) into grid_rows x grid_cols cells exactly.

    Cell (r, c) spans rows [r*H//G_h, (r+1)*H//G_h) and the analogous
    columns, so cell sizes differ by at most one pixel.
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    if level_h < grid_rows or level_w < grid_cols:
        raise GridTooFine(
            f"cannot cut {level_h}x{level_w} into {grid_rows}x{grid_cols} cells"
        )
    row_b = [(r * level_h) // grid_rows for r in range(grid_rows + 1)]
    col_b = [(c * level_w) // grid_cols for c in range(grid_cols + 1)]
    return [
        GridCell(
            row=r,
            col=c,
            y0=row_b[r],
            x0=col_b[c],
            h=row_b[r + 1] - row_b[r],
            w=col_b[c + 1] - col_b[c],
        )
        for r in range(grid_rows)
        for c in range(grid_cols)
    ]


def choose_offsets(
    cells: Sequence[GridCell],
    frag_h: int,
    frag_w: int,
    policy: str,
    seed: int,
    scale_id: int = 0,
    aligned: bool = False,
) -> list[tuple[int, int]]:
    """Pick a fragment top-left inside every cell.

    ``center`` centers the fragment (ties toward top-left); ``random``
    draws uniformly over valid positions from the counter-based generator.
    With ``aligned`` the draw ignores the level id, so all levels place a
    cell's fragment at the same relative position.
    """
    key_scale = ALIGNED_SCALE_KEY if aligned else scale_id
    offsets = []
    for cell in cells:
        ny = cell.h - frag_h + 1
        nx = cell.w - frag_w + 1
        if ny < 1 or nx < 1:
            raise CellSmallerThanFragment(
                f"cell ({cell.row},{cell.col}) is {cell.h}x{cell.w}, "
                f"fragment is {frag_h}x{frag_w}"
            )
        if policy == "center":
            y = cell.y0 + (cell.h - frag_h) // 2
            x = cell.x0 + (cell.w - frag_w) // 2
        elif policy == "random":
            y = cell.y0 + bounded(seed, DOMAIN_OFFSET, key_scale, cell.row, cell.col, 0, n=ny)
            x = cell.x0 + bounded(seed, DOMAIN_OFFSET, key_scale, cell.row, cell.col, 1, n=nx)
        else:
            raise ValueError(f"unknown offset policy {policy!r}")
        offsets.append((y, x))
    return offsets


def offsets_array(offsets: Sequence[tuple[int, int]], grid_rows: int, grid_cols: int) -> np.ndarray:
    """(grid_rows, grid_cols, 2) int array of per-cell (y, x) offsets."""
    arr = np.asarray(offsets, dtype=np.int64).reshape(grid_rows, grid_cols, 2)
    return arr


def source_coord_maps(
    offsets: np.ndarray, frag_h: int, frag_w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-pixel source coordinates implied by per-cell offsets.

    Returns (src_y, src_x), each (grid_rows*frag_h, grid_cols*frag_w) uint32:
    output pixel (i, j) copies level pixel (src_y[i, j], src_x[i, j]).
    """
    grid_rows, grid_cols = offsets.shape[:2]
    shape = (grid_rows, frag_h, grid_cols, frag_w)  # (row, dy, col, dx)
    ys = offsets[:, None, :, None, 0] + np.arange(frag_h)[:, None, None]
    xs = offsets[:, None, :, None, 1] + np.arange(frag_w)
    out_shape = (grid_rows * frag_h, grid_cols * frag_w)
    return (
        np.broadcast_to(ys, shape).astype(np.uint32).reshape(out_shape),
        np.broadcast_to(xs, shape).astype(np.uint32).reshape(out_shape),
    )


@dataclass(frozen=True)
class LevelPlan:
    """Offsets and per-pixel source coordinates for one pyramid level."""

    scale_id: int
    offsets: np.ndarray  # (grid_rows, grid_cols, 2)
    src_y: np.ndarray  # (H, W) uint32
    src_x: np.ndarray  # (H, W) uint32


def plan_level(level: PyramidLevel, config: SamplerConfig) -> LevelPlan:
    """Cut a level into the config's grid, place one fragment per cell and
    map every mosaic pixel to its level coordinates."""
    cells = grid_partition(level.height, level.width, config.grid_rows, config.grid_cols)
    offs = choose_offsets(
        cells,
        config.frag_h,
        config.frag_w,
        config.offset_policy,
        config.seed,
        scale_id=level.scale_id,
        aligned=config.aligned_offsets,
    )
    offsets = offsets_array(offs, config.grid_rows, config.grid_cols)
    src_y, src_x = source_coord_maps(offsets, config.frag_h, config.frag_w)
    return LevelPlan(level.scale_id, offsets, src_y, src_x)
