"""Sources of the dense box grid the sampler draws from.

Either a file-backed grid produced by an external predictor, or a built-in
point-density heuristic that makes fully self-contained end-to-end runs
possible without any trained model.
"""

from __future__ import annotations

import numpy as np

from .bev import CONFIDENCE, OFFSET, SIZE, BoxGrid, GridSpec, _cell_index, in_volume_mask, pillar_centres
from .dataset import read_box_grid
from .geometry import PointCloud

# Height above the volume floor below which points count as ground.
DEFAULT_GROUND_MARGIN = 0.3

# Smallest per-axis extent a heuristic cell may report.
_MIN_EXTENT = 0.1


def grid_from_file(path, spec: GridSpec) -> BoxGrid:
    """Load an externally predicted box grid, validating its shape."""
    return read_box_grid(path, spec)


def heuristic_grid(cloud: PointCloud, spec: GridSpec, ground_margin: float = DEFAULT_GROUND_MARGIN) -> BoxGrid:
    """Point-density stand-in predictor.

    Ground is removed with a simple height threshold (adequate for flat
    synthetic or urban ground; a documented limitation otherwise). Remaining
    points pool per output cell: the offset is the pooled centroid relative
    to the pillar centre, the dims are the per-axis point spreads clamped to
    a 0.1 m floor, yaw is 0 and the confidence is the cell's point count
    normalized by the busiest cell. Deterministic and independent of the
    input point order.
    """
    grid = BoxGrid.zeros(spec)
    xyz = cloud.xyz
    keep = in_volume_mask(xyz, spec) & (xyz[:, 2] >= spec.z_range[0] + ground_margin)
    xyz = xyz[keep]
    rows, cols = _cell_index(xyz, spec, spec.stride)
    flat = rows * spec.out_cols + cols

    n_cells = spec.out_rows * spec.out_cols
    count = np.bincount(flat, minlength=n_cells)
    sums = np.zeros((n_cells, 3))
    lo = np.full((n_cells, 3), np.inf)
    hi = np.full((n_cells, 3), -np.inf)
    for axis in range(3):
        np.add.at(sums[:, axis], flat, xyz[:, axis])
        np.minimum.at(lo[:, axis], flat, xyz[:, axis])
        np.maximum.at(hi[:, axis], flat, xyz[:, axis])

    occupied = np.flatnonzero(count > 0)
    r, c = np.divmod(occupied, spec.out_cols)
    centroid = sums[occupied] / count[occupied, None]
    grid.data[r, c, OFFSET] = centroid - pillar_centres(r, c, spec)
    grid.data[r, c, SIZE] = np.maximum(hi[occupied] - lo[occupied], _MIN_EXTENT)
    grid.data[r, c, CONFIDENCE] = count[occupied] / count.max()
    return grid
