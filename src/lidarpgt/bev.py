"""Pillar grid definition, BEV rasterization, and dense box-grid encoding.

Pixel axis mapping, fixed package-wide: image rows index lidar x (forward),
image columns index lidar y (left-right). Grid pixels are (row, col) integer
pairs. Cells are half-open: a point exactly on a max bound is excluded, so
every in-volume point lands in exactly one pillar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfGrid, OutOfVolume, ShapeMismatch
from .geometry import LIDAR, Obb3, PointCloud

# Point count at which the density channel saturates.
_DENSITY_SATURATION = 64


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
            if not hi > lo:
                raise ValueError("volume ranges must be non-empty")
        if self.height <= 0 or self.width <= 0 or self.stride <= 0:
            raise ValueError("grid sizes must be positive")
        if self.height % self.stride or self.width % self.stride:
            raise ValueError("height and width must be divisible by the stride")

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


@dataclass(frozen=True, eq=False)
class BoxCode:
    """One output pixel's 8-tuple: centre offset, dims, yaw and confidence."""

    delta: np.ndarray
    dims: np.ndarray
    yaw: float
    confidence: float

    def __post_init__(self):
        delta = np.array(self.delta, dtype=float).reshape(3)
        dims = np.array(self.dims, dtype=float).reshape(3)
        if np.any(dims < 0):
            raise ValueError("box code dims must be >= 0")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        delta.flags.writeable = False
        dims.flags.writeable = False
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "dims", dims)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.delta, self.dims, [self.yaw, self.confidence]])


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
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def confidence(self) -> np.ndarray:
        return self.data[:, :, 7]

    def set_code(self, pixel, code: BoxCode):
        r, c = pixel
        self.data[r, c] = code.as_array()


def require_grid_shape(grid: BoxGrid, spec: GridSpec):
    if grid.rows != spec.out_rows or grid.cols != spec.out_cols:
        raise ShapeMismatch(
            f"grid is {grid.rows}x{grid.cols}, expected {spec.out_rows}x{spec.out_cols}"
        )


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


def rasterize(cloud: PointCloud, spec: GridSpec) -> np.ndarray:
    """Project a lidar cloud down into an (H, W, 3) BEV image.

    Channels: 0 = normalized max point height, 1 = max intensity,
    2 = log-normalized point density saturating at 64 points. Empty pillars
    are (0, 0, 0). Max/count reductions make the result independent of the
    input point order.
    """
    if cloud.frame != LIDAR:
        raise ValueError("rasterize expects a lidar-frame cloud")
    image = np.zeros((spec.height, spec.width, 3))
    if len(cloud) == 0:
        return image
    xyz = cloud.xyz
    keep = in_volume_mask(xyz, spec)
    if not keep.any():
        return image
    xyz = xyz[keep]
    intensity = cloud.intensity[keep]
    rows = np.floor((xyz[:, 0] - spec.x_range[0]) / spec.x_res).astype(int)
    cols = np.floor((xyz[:, 1] - spec.y_range[0]) / spec.y_res).astype(int)
    # Guard against points landing exactly on the top edge through rounding.
    rows = np.clip(rows, 0, spec.height - 1)
    cols = np.clip(cols, 0, spec.width - 1)
    flat = rows * spec.width + cols

    n_pix = spec.height * spec.width
    top_z = np.full(n_pix, -np.inf)
    top_i = np.full(n_pix, -np.inf)
    count = np.zeros(n_pix)
    np.maximum.at(top_z, flat, xyz[:, 2])
    np.maximum.at(top_i, flat, intensity)
    np.add.at(count, flat, 1.0)

    occupied = count > 0
    z0, z1 = spec.z_range
    ch0 = np.where(occupied, (top_z - z0) / (z1 - z0), 0.0)
    ch1 = np.where(occupied, top_i, 0.0)
    ch2 = np.minimum(1.0, np.log1p(count) / math.log1p(_DENSITY_SATURATION))
    image[:, :, 0] = ch0.reshape(spec.height, spec.width)
    image[:, :, 1] = ch1.reshape(spec.height, spec.width)
    image[:, :, 2] = ch2.reshape(spec.height, spec.width)
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
    r, c = pixel
    if not (0 <= r < spec.out_rows and 0 <= c < spec.out_cols):
        raise OutOfGrid(f"pixel {(r, c)} outside {spec.out_rows}x{spec.out_cols} grid")
    return pillar_centres(r, c, spec)


def decode_box(pixel, code: BoxCode, spec: GridSpec) -> Obb3:
    """Lidar-frame box of a pixel's code: pillar centre plus offset (requires positive dims)."""
    return Obb3(pillar_centre(pixel, spec) + code.delta, code.dims, code.yaw, LIDAR)


def encode_box(box: Obb3, spec: GridSpec, confidence: float = 1.0):
    """Inverse of decode_box: the grid pixel containing the centre, plus its code."""
    if box.frame != LIDAR:
        raise ValueError("encode_box expects a lidar-frame box")
    c = box.centre
    if not in_volume_mask(c.reshape(1, 3), spec)[0]:
        raise OutOfVolume(f"box centre {c.tolist()} outside the rasterized volume")
    row = int(np.floor((c[0] - spec.x_range[0]) / spec.cell_x))
    col = int(np.floor((c[1] - spec.y_range[0]) / spec.cell_y))
    row = min(row, spec.out_rows - 1)
    col = min(col, spec.out_cols - 1)
    pixel = (row, col)
    delta = c - pillar_centre(pixel, spec)
    return pixel, BoxCode(delta, box.dims, box.yaw, confidence)
