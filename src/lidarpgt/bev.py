"""Pillar grid definition, BEV rasterization, and dense box-grid encoding.

Pixel axis mapping, fixed package-wide: image rows index lidar x (forward),
image columns index lidar y (left-right). Grid pixels are (row, col) integer
pairs. Cells are half-open: a point exactly on a max bound is excluded, so
every in-volume point lands in exactly one pillar.
Only this module knows the pixel rules: `check_pixel` bounds a box-grid
pixel, `pixel_coords` maps lidar x/y to continuous pixel coordinates,
`cell_index` floors them to a pixel, `grid_centres` decodes them. So with
the box code: `OFFSET`...`CONFIDENCE` name its channels, `code_faults` its rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfGrid, OutOfVolume, ShapeMismatch
from .geometry import LIDAR, Obb3, PointCloud

# Point count at which the density channel saturates.
_DENSITY_SATURATION = 64

# Largest height * width a grid may have: at 4096 x 4096, `render --bev-raster`
# peaks at about 730 MB of RSS on a 10k-point scene, against 50 MB at 608 x 608.
MAX_GRID_PIXELS = 4096 * 4096

# Largest out_rows * out_cols a grid may have, each cell a box code of 8 float64: at 2048 x 2048
# stride 1, `generate --jobs 1` peaks at 618 MB on a 10k-point scene with heuristic proposals.
MAX_GRID_CELLS = 2048 * 2048

# Box-code channels: centre offset from the pillar centre, sizes, yaw, confidence.
OFFSET, SIZE, YAW, CONFIDENCE = slice(0, 3), slice(3, 6), 6, 7


@dataclass(frozen=True)
class GridSpec:
    """The rasterized 3D volume and its pixel layout."""

    x_range: tuple[float, float] = (2.5, 40.0)
    y_range: tuple[float, float] = (-18.0, 18.0)
    z_range: tuple[float, float] = (-2.73, 1.27)
    height: int = 608
    width: int = 608
    stride: int = 4

    def __post_init__(self):
        for lo, hi in (self.x_range, self.y_range, self.z_range):
            if not (hi > lo and math.isfinite(hi - lo) and math.isfinite(hi + lo)):
                raise ValueError("volume ranges must be non-empty, with a finite width and midpoint")
        if self.height <= 0 or self.width <= 0 or self.stride <= 0:
            raise ValueError("grid sizes must be positive")
        if self.height * self.width > MAX_GRID_PIXELS:
            raise ValueError(f"height * width exceeds MAX_GRID_PIXELS = {MAX_GRID_PIXELS}")
        if self.height % self.stride or self.width % self.stride:
            raise ValueError("height and width must be divisible by the stride")
        if self.out_rows * self.out_cols > MAX_GRID_CELLS:
            raise ValueError(f"out_rows * out_cols exceeds MAX_GRID_CELLS = {MAX_GRID_CELLS}")

    @property
    def out_rows(self) -> int:
        return self.height // self.stride

    @property
    def out_cols(self) -> int:
        return self.width // self.stride

    @property
    def x_res(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.height

    @property
    def y_res(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / self.width

    @property
    def cell_x(self) -> float:
        """Metres of lidar x covered by one output-grid row."""
        return self.x_res * self.stride

    @property
    def cell_y(self) -> float:
        """Metres of lidar y covered by one output-grid column."""
        return self.y_res * self.stride


class BoxGrid:
    """Dense (rows, cols, 8) image of box codes."""

    def __init__(self, data):
        arr = np.array(data, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 8:
            raise ValueError("box grid data must have shape (rows, cols, 8)")
        self.data = arr

    @classmethod
    def zeros(cls, spec: GridSpec) -> "BoxGrid":
        return cls(np.zeros((spec.out_rows, spec.out_cols, 8)))

    @property
    def confidence(self) -> np.ndarray:
        return self.data[:, :, CONFIDENCE]

    def set_code(self, pixel, code):
        """Write a pixel's code, [dx, dy, dz, size_x, size_y, size_z, yaw, confidence]."""
        code = np.asarray(code, dtype=float)
        if code.shape != (8,) or not np.isfinite(code).all() or any(bad for _, _, bad in code_faults(code)):
            raise ValueError("a box code is 8 finite values with sizes >= 0 and a confidence in [0, 1]")
        self.data[pixel[0], pixel[1]] = code


def code_faults(codes: np.ndarray, span=np.inf):
    """The box code's rules as (field, fault, cells), cells marking the codes (last axis of `codes`)
    that break each: offsets within `span` (scalar or per axis), sizes >= 0, confidence in [0, 1]."""
    return (
        ("box offset", "exceeds the grid span", (np.abs(codes[..., OFFSET]) > span).any(axis=-1)),
        ("box size", "is negative", (codes[..., SIZE] < 0).any(axis=-1)),
        ("confidence", "lies outside [0, 1]", (codes[..., CONFIDENCE] < 0) | (codes[..., CONFIDENCE] > 1)),
    )


def require_grid_shape(grid: BoxGrid, spec: GridSpec):
    rows, cols = grid.data.shape[:2]
    if (rows, cols) != (spec.out_rows, spec.out_cols):
        raise ShapeMismatch(f"grid is {rows}x{cols}, expected {spec.out_rows}x{spec.out_cols}")


def check_pixel(pixel, spec: GridSpec) -> tuple[int, int]:
    """The (row, col) of a box-grid pixel, or OutOfGrid when it lies off the grid."""
    r, c = pixel
    if not (0 <= r < spec.out_rows and 0 <= c < spec.out_cols):
        raise OutOfGrid(f"pixel {(r, c)} outside {spec.out_rows}x{spec.out_cols} grid")
    return r, c


def in_volume_mask(xyz: np.ndarray, spec: GridSpec) -> np.ndarray:
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    return (
        (x >= spec.x_range[0])
        & (x < spec.x_range[1])
        & (y >= spec.y_range[0])
        & (y < spec.y_range[1])
        & (z >= spec.z_range[0])
        & (z < spec.z_range[1])
    )


def pixel_coords(xy: np.ndarray, spec: GridSpec, stride: int):
    """Continuous (row, col) of lidar x/y (`xy[..., 0:2]`) on the grid of
    stride x stride pixel blocks: 1 for the raster, spec.stride for the box grid."""
    rows = (xy[..., 0] - spec.x_range[0]) / (spec.x_res * stride)
    cols = (xy[..., 1] - spec.y_range[0]) / (spec.y_res * stride)
    return rows, cols


def cell_index(xyz: np.ndarray, spec: GridSpec, stride: int):
    """(row, col) of the pixel block holding each in-volume lidar point."""
    rows, cols = (np.floor(v).astype(int) for v in pixel_coords(xyz, spec, stride))
    # Guard against points landing exactly on the top edge through rounding.
    return np.clip(rows, 0, spec.height // stride - 1), np.clip(cols, 0, spec.width // stride - 1)


def rasterize(cloud: PointCloud, spec: GridSpec) -> np.ndarray:
    """Project a lidar cloud down into an (H, W, 3) BEV image.

    Channels: 0 = normalized max point height, 1 = max intensity,
    2 = log-normalized point density saturating at 64 points. Empty pillars
    are (0, 0, 0). Max/count reductions make the result independent of the
    input point order.
    """
    image = np.zeros((spec.height, spec.width, 3))
    xyz = cloud.xyz
    keep = in_volume_mask(xyz, spec)
    xyz = xyz[keep]
    intensity = cloud.intensity[keep]
    rows, cols = cell_index(xyz, spec, 1)
    flat = rows * spec.width + cols

    # the channels are written into the image in place, from one reused scratch vector
    n_pix = spec.height * spec.width
    count = np.bincount(flat, minlength=n_pix)
    occupied = (count > 0).reshape(spec.height, spec.width)
    top = np.full(n_pix, -np.inf)
    np.maximum.at(top, flat, xyz[:, 2])
    z0, z1 = spec.z_range
    top -= z0
    top /= z1 - z0
    np.copyto(image[:, :, 0], top.reshape(spec.height, spec.width), where=occupied)
    top.fill(-np.inf)
    np.maximum.at(top, flat, intensity)
    np.copyto(image[:, :, 1], top.reshape(spec.height, spec.width), where=occupied)
    density = image[:, :, 2]
    np.log1p(count.reshape(spec.height, spec.width), out=density)
    density /= math.log1p(_DENSITY_SATURATION)
    np.minimum(density, 1.0, out=density)
    return image


def pillar_centres(rows, cols, spec: GridSpec) -> np.ndarray:
    """3D centres (lidar frame) of the stride x stride pillar blocks at grid
    rows and columns; the index arrays broadcast and gain a last axis of 3."""
    rows, cols = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
    out = np.empty(rows.shape + (3,))
    out[..., 0] = spec.x_range[0] + (rows + 0.5) * spec.cell_x
    out[..., 1] = spec.y_range[0] + (cols + 0.5) * spec.cell_y
    out[..., 2] = 0.5 * (spec.z_range[0] + spec.z_range[1])
    return out


def pillar_centre(pixel, spec: GridSpec) -> np.ndarray:
    """3D centre (lidar frame) of the stride x stride pillar block at a grid pixel."""
    return pillar_centres(*check_pixel(pixel, spec), spec)


def grid_centres(grid: BoxGrid, spec: GridSpec) -> np.ndarray:
    """Decoded 3D centres of every grid box, (rows*cols, 3), row-major."""
    base = pillar_centres(np.arange(spec.out_rows)[:, None], np.arange(spec.out_cols), spec)
    return (base + grid.data[:, :, OFFSET]).reshape(-1, 3)


def encode_box(box: Obb3, spec: GridSpec, confidence: float = 1.0):
    """The grid pixel holding a lidar-frame box's centre, and the 8-float code that `grid_centres` decodes."""
    if box.frame != LIDAR:
        raise ValueError("encode_box expects a lidar-frame box")
    c = box.centre
    if not in_volume_mask(c.reshape(1, 3), spec)[0]:
        raise OutOfVolume(f"box centre {c.tolist()} outside the rasterized volume")
    row, col = cell_index(c, spec, spec.stride)
    pixel = (int(row), int(col))
    return pixel, np.concatenate([c - pillar_centre(pixel, spec), box.dims, [box.yaw, confidence]])
