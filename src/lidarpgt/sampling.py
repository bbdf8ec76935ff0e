"""Neural-guided selection of candidate pixels from a dense box grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bev import BoxGrid, GridSpec, check_pixel, grid_centres, require_grid_shape


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def smooth_confidence(grid: BoxGrid, spec: GridSpec, pixel) -> float:
    """Average a pixel's confidence with the 8 boxes whose decoded 3D centres
    are nearest to its own (Euclidean; ties broken by (row, col) order).

    With fewer than 8 other boxes the mean runs over what exists.
    smoothed_confidences smooths many pixels of one grid from one decoding.
    """
    return smoothed_confidences(grid, spec, [pixel])[0]


def _sq_dist(points: np.ndarray, own: np.ndarray) -> np.ndarray:
    sq = (points - own) ** 2
    return sq[:, 0] + sq[:, 1] + sq[:, 2]  # the sums np.sum(sq, axis=1) makes, at a third of its cost


def smoothed_confidences(grid: BoxGrid, spec: GridSpec, pixels) -> list[float]:
    """smooth_confidence of each pixel, bit for bit, from one centre index.

    The centres are sorted by x once. A pixel's 8th-nearest squared distance
    is at most the 8th nearest among its clipped 5x5 lattice block, so a box
    whose x differs from the pixel's by more than that bound's root (padded
    by a tiny relative term that absorbs rounding) is farther than 8 others
    and cannot be chosen. Only the bisected x-slab is searched, in (row, col)
    order, so the ties break as in a full sort. Every pixel is checked
    against the grid before any is smoothed.
    """
    require_grid_shape(grid, spec)
    rows, cols = spec.out_rows, spec.out_cols
    pixels = [check_pixel(pixel, spec) for pixel in pixels]
    centres = grid_centres(grid, spec)
    conf = grid.confidence.reshape(-1)
    n_other = min(8, rows * cols - 1)
    order = np.argsort(centres[:, 0], kind="stable")
    xs = centres[order, 0]
    smoothed = []
    for r, c in pixels:
        own_flat = r * cols + c
        own = centres[own_flat]
        block = (np.arange(max(r - 2, 0), min(r + 3, rows))[:, None] * cols
                 + np.arange(max(c - 2, 0), min(c + 3, cols))).reshape(-1)
        bound = math.inf
        if len(block) > n_other:
            d2 = _sq_dist(centres[block], own)
            d2[block == own_flat] = np.inf
            bound = float(np.partition(d2, n_other - 1)[n_other - 1])
        reach = math.sqrt(bound)
        reach += 1e-9 * (1.0 + abs(own[0]) + reach)
        lo, hi = 0, len(xs)
        if reach < math.inf:  # else (too few block cells, overflow, NaN) every box
            lo = np.searchsorted(xs, own[0] - reach, side="left")
            hi = np.searchsorted(xs, own[0] + reach, side="right")
        slab = np.sort(order[lo:hi])
        d2 = _sq_dist(centres[slab], own)
        d2[slab == own_flat] = np.inf
        # a stable sort of the slab's boxes no farther than the n-th nearest
        # keeps the tie-break of a full sort
        kth = np.partition(d2, n_other - 1)[n_other - 1]
        candidates = np.flatnonzero(d2 <= kth)
        neighbours = slab[candidates[np.argsort(d2[candidates], kind="stable")[:n_other]]]
        smoothed.append(float((conf[own_flat] + conf[neighbours].sum()) / (1 + n_other)))
    return smoothed
