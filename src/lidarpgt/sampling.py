"""Neural-guided selection of candidate pixels from a dense box grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bev import BoxGrid, GridSpec, pillar_centres, require_grid_shape
from .errors import OutOfGrid


@dataclass(frozen=True)
class SamplerConfig:
    """Split/sample parameters: confidence threshold, total pixel budget, seed."""

    confidence_threshold: float = 0.08
    sample_count: int = 60
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence threshold must lie in [0, 1]")
        if self.sample_count <= 0 or self.sample_count % 2:
            raise ValueError("sample count must be even and positive")


def sample_pixels(grid: BoxGrid, spec: GridSpec, cfg: SamplerConfig) -> list[tuple[int, int]]:
    """Pick up to `sample_count` grid pixels, half from each confidence band.

    Pixels with raw confidence strictly above the threshold form the high band,
    the rest the low band. Each band contributes up to half the budget,
    uniformly without replacement; if one band is too small the other backfills
    so the total stays constant whenever the grid is large enough. Deterministic
    given the seed; the band split itself is seed-independent.
    """
    require_grid_shape(grid, spec)
    conf = grid.confidence.reshape(-1)
    high = np.flatnonzero(conf > cfg.confidence_threshold)
    low = np.flatnonzero(conf <= cfg.confidence_threshold)
    rng = np.random.default_rng(cfg.seed)
    perm_high = rng.permutation(len(high))
    perm_low = rng.permutation(len(low))

    half = cfg.sample_count // 2
    n_high = min(half, len(high))
    n_low = min(half, len(low))
    # Backfill a short band from the other band's remaining permutation.
    n_high += min(half - n_low, len(high) - n_high)
    n_low += min(cfg.sample_count - n_high - n_low, len(low) - n_low)

    chosen = np.concatenate([high[perm_high[:n_high]], low[perm_low[:n_low]]])
    cols = spec.out_cols
    return [(int(flat // cols), int(flat % cols)) for flat in chosen]


def grid_centres(grid: BoxGrid, spec: GridSpec) -> np.ndarray:
    """Decoded 3D centres of every grid box, (rows*cols, 3), row-major."""
    base = pillar_centres(np.arange(spec.out_rows)[:, None], np.arange(spec.out_cols), spec)
    return (base + grid.data[:, :, 0:3]).reshape(-1, 3)


def smooth_confidence(grid: BoxGrid, spec: GridSpec, pixel, centres: np.ndarray | None = None) -> float:
    """Average a pixel's confidence with the 8 boxes whose decoded 3D centres
    are nearest to its own (Euclidean; ties broken by (row, col) order).

    With fewer than 8 other boxes the mean runs over what exists. Passing a
    precomputed `centres` array (from grid_centres) avoids re-decoding when
    smoothing many pixels of one grid.
    """
    require_grid_shape(grid, spec)
    r, c = pixel
    if not (0 <= r < spec.out_rows and 0 <= c < spec.out_cols):
        raise OutOfGrid(f"pixel {(r, c)} outside {spec.out_rows}x{spec.out_cols} grid")
    if centres is None:
        centres = grid_centres(grid, spec)
    conf = grid.confidence.reshape(-1)
    own_flat = r * spec.out_cols + c
    d2 = np.sum((centres - centres[own_flat]) ** 2, axis=1)
    rows = np.arange(len(d2)) // spec.out_cols
    cols = np.arange(len(d2)) % spec.out_cols
    d2[own_flat] = np.inf
    order = np.lexsort((cols, rows, d2))
    n_other = min(8, len(d2) - 1)
    neighbours = order[:n_other]
    return float((conf[own_flat] + conf[neighbours].sum()) / (1 + n_other))
