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
    sq = (centres - centres[own_flat]) ** 2
    d2 = sq[:, 0] + sq[:, 1] + sq[:, 2]  # the sums np.sum(sq, axis=1) makes, at a third of its cost
    d2[own_flat] = np.inf
    n_other = min(8, len(d2) - 1)
    # Flat indices run in (row, col) order, so a stable sort of the boxes no
    # farther than the n-th nearest keeps the tie-break of a full sort.
    kth = np.partition(d2, n_other - 1)[n_other - 1]
    candidates = np.flatnonzero(d2 <= kth)
    neighbours = candidates[np.argsort(d2[candidates], kind="stable")[:n_other]]
    return float((conf[own_flat] + conf[neighbours].sum()) / (1 + n_other))
