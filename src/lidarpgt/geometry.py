"""Coordinate frames, rigid transforms, camera projection and rotated-box geometry.

Conventions, used bit-for-bit everywhere in this package:

  - camera frame: x right, y down, z forward. The vertical axis is y and
    birds-eye-view (BEV) geometry lives in the x-z plane.
  - lidar frame: x forward, y left, z up. The vertical axis is z and BEV
    geometry lives in the x-y plane.
  - image coordinates are continuous (u, v) = (column, row).
  - all angles are radians, all lengths metres; no unit scaling anywhere.

All types here are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, NonPositiveDepth

CAMERA = "camera"
LIDAR = "lidar"

_HALF_PI = math.pi / 2.0

# Per frame: the two coordinates spanning its BEV plane, then its vertical one.
_AXES = {CAMERA: (0, 2, 1), LIDAR: (0, 1, 2)}

MIN_VERTICAL_COSINE = 0.999  # cosine of the largest tilt between vertical axes (2.56 degrees) a box survives

# Corner sign pattern shared by box corner generation (8, 3).
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def canonical_yaw(yaw: float) -> float:
    """Map a yaw angle to (-pi/2, pi/2], exploiting the boxes' 180-degree symmetry."""
    wrapped = (float(yaw) + _HALF_PI) % math.pi - _HALF_PI
    if wrapped == -_HALF_PI:
        wrapped = _HALF_PI
    return wrapped


def yaw_matrix(frame: str, angle: float) -> np.ndarray:
    """Rotation about the frame's vertical axis, mapping box-local to frame coords.

    The columns are the local x/y/z axes of a box with the given yaw. The local
    x axis points at angle `angle` within the frame's BEV plane.
    """
    c, s = math.cos(angle), math.sin(angle)
    if frame == CAMERA:
        return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    if frame == LIDAR:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"unknown frame {frame!r}")


def freeze_arrays(record, **shapes) -> list[np.ndarray]:
    """Set each named field of a frozen dataclass to a read-only float64 copy, reshaped as given; return the copies."""
    arrays = [np.array(getattr(record, name), dtype=float).reshape(shape) for name, shape in shapes.items()]
    for name, array in zip(shapes, arrays):
        array.flags.writeable = False
        object.__setattr__(record, name, array)
    return arrays


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A proper rigid transform: p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot, tra = freeze_arrays(self, rotation=(3, 3), translation=3)
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValueError("rigid transform has non-finite entries")
        drift = np.abs(rot.T @ rot - np.eye(3)).max()
        det = np.linalg.det(rot)
        if not (drift <= 1e-6 and abs(det - 1.0) <= 1e-6):
            raise ValueError(
                f"rotation is not orthonormal with det +1 (drift {drift:.3g}, det {det:.9g})"
            )

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points):
        """Transform a (3,) point or an (n, 3) array of points."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def invert(self) -> "RigidTransform":
        rot_t = self.rotation.T
        return RigidTransform(rot_t, -(rot_t @ self.translation))


def kitti_lidar_to_camera() -> RigidTransform:
    """Axis permutation from lidar (x fwd, y left, z up) to camera (x right, y down, z fwd)."""
    return RigidTransform(
        np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]), np.zeros(3)
    )


# Largest width * height a camera image may have: at 4096 x 4096, `simulate` of a
# 2-frame scene of the default objects peaks at about 145 MB of RSS.
MAX_IMAGE_PIXELS = 4096 * 4096
# Largest focal length in pixels (a 4096-px image then spans 0.23 degrees, narrower than any
# lens): fx * x / z stays inside the int64 range pixels are cast to while |x| / z < 10**12.
MAX_FOCAL_PX = 1e6


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; (cx, cy) is the principal point in (column, row) pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx <= MAX_FOCAL_PX and 0 < self.fy <= MAX_FOCAL_PX):
            raise ValueError(f"focal lengths must be positive and at most MAX_FOCAL_PX = {MAX_FOCAL_PX:g}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.width * self.height > MAX_IMAGE_PIXELS:
            raise ValueError(f"width * height exceeds MAX_IMAGE_PIXELS = {MAX_IMAGE_PIXELS}")


def project(points, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Perspective-project (n, 3) camera-frame points to (n, 2) continuous (u, v) pixels.

    Raises NonPositiveDepth if any point has z <= 0.
    """
    p = np.asarray(points, dtype=float)
    z = p[:, 2]
    if np.any(z <= 0):
        raise NonPositiveDepth("cannot project points at depth <= 0")
    return np.stack(
        [
            intrinsics.fx * p[:, 0] / z + intrinsics.cx,
            intrinsics.fy * p[:, 1] / z + intrinsics.cy,
        ],
        axis=1,
    )


def project_box_2d(box: Obb3, intrinsics: CameraIntrinsics) -> AABB2:
    """Tightest axis-aligned 2D box around a camera-frame box's 8 projected vertices.

    All vertices must land in front of the camera; the result is clipped to
    the image bounds.
    """
    corners = box.corners()
    if np.any(corners[:, 2] <= 0):
        raise BehindCamera("box has vertices at non-positive camera depth")
    uv = project(corners, intrinsics)
    lo = np.clip(uv.min(axis=0), (0.0, 0.0), (intrinsics.width, intrinsics.height))
    hi = np.clip(uv.max(axis=0), (0.0, 0.0), (intrinsics.width, intrinsics.height))
    return AABB2(lo, hi)


def backproject(uv, depth, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Lift (n, 2) (u, v) pixels with (n,) depths back to (n, 3) camera-frame points.

    Raises NonPositiveDepth if any depth is <= 0.
    """
    u = np.asarray(uv, dtype=float)
    d = np.asarray(depth, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDepth("cannot backproject with depth <= 0")
    return np.stack(
        [
            (u[:, 0] - intrinsics.cx) / intrinsics.fx * d,
            (u[:, 1] - intrinsics.cy) / intrinsics.fy * d,
            d,
        ],
        axis=1,
    )


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Lidar-frame points as an (n, 4) array of (x, y, z, intensity)."""

    points: np.ndarray

    def __post_init__(self):
        (pts,) = freeze_arrays(self, points=(-1, 4))
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite values")
        if pts.size and (pts[:, 3].min() < 0.0 or pts[:, 3].max() > 1.0):
            raise ValueError("intensities must lie in [0, 1]")

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class Obb3:
    """3D oriented bounding box: volumetric centre, per-axis extents, vertical yaw.

    The yaw is stored canonically in (-pi/2, pi/2]; boxes are symmetric under a
    180-degree rotation so nothing is lost. `dims` are the extents along the
    box-local x/y/z axes (see `yaw_matrix` for the local axis layout per frame).
    """

    centre: np.ndarray
    dims: np.ndarray
    yaw: float
    frame: str

    def __post_init__(self):
        _, dims = freeze_arrays(self, centre=3, dims=3)
        if not np.all(dims > 0):
            raise ValueError("box dims must be positive")
        if self.frame not in _AXES:
            raise ValueError(f"unknown frame {self.frame!r}")
        object.__setattr__(self, "yaw", canonical_yaw(self.yaw))

    def corners(self) -> np.ndarray:
        """The 8 box corners, (8, 3), in the box's own frame."""
        axes = yaw_matrix(self.frame, self.yaw)
        offsets = 0.5 * _CORNER_SIGNS * self.dims
        return self.centre + offsets @ axes.T

    def footprint(self) -> np.ndarray:
        """The 4 BEV-plane corners of the box, (4, 2), counter-clockwise."""
        i, j, _ = _AXES[self.frame]
        half_u, half_v = 0.5 * self.dims[0], 0.5 * self.dims[j]
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        local = np.array(
            [[half_u, half_v], [-half_u, half_v], [-half_u, -half_v], [half_u, -half_v]]
        )
        return np.array([self.centre[i], self.centre[j]]) + local @ rot.T


@dataclass(frozen=True, eq=False)
class AABB2:
    """Axis-aligned 2D box given by min/max corners."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo, hi = freeze_arrays(self, min_corner=2, max_corner=2)
        if np.any(lo > hi):
            raise ValueError("min corner must not exceed max corner")

    def area(self) -> float:
        size = self.max_corner - self.min_corner
        return float(size[0] * size[1])


def iou_2d(a: AABB2, b: AABB2) -> float:
    """Standard axis-aligned intersection-over-union."""
    lo = np.maximum(a.min_corner, b.min_corner)
    hi = np.minimum(a.max_corner, b.max_corner)
    size = np.clip(hi - lo, 0.0, None)
    inter = float(size[0] * size[1])
    union = a.area() + b.area() - inter
    return inter / union if union > 0.0 else 0.0


def polygon_area(points) -> float:
    """Shoelace area of a simple polygon, (n, 2)."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _edge_cross(a, b, p):
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _edge_intersection(p, q, a, b):
    dp = _edge_cross(a, b, p)
    dq = _edge_cross(a, b, q)
    t = dp / (dp - dq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def clip_convex_polygon(subject, clip) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex `subject` against a CCW convex `clip`."""
    output = [tuple(p) for p in np.asarray(subject, dtype=float)]
    clip_pts = [tuple(p) for p in np.asarray(clip, dtype=float)]
    for i in range(len(clip_pts)):
        a = clip_pts[i]
        b = clip_pts[(i + 1) % len(clip_pts)]
        current = output
        output = []
        if not current:
            break
        for j in range(len(current)):
            prev_pt = current[j - 1]
            cur_pt = current[j]
            cur_in = _edge_cross(a, b, cur_pt) >= 0.0
            prev_in = _edge_cross(a, b, prev_pt) >= 0.0
            if cur_in:
                if not prev_in:
                    output.append(_edge_intersection(prev_pt, cur_pt, a, b))
                output.append(cur_pt)
            elif prev_in:
                output.append(_edge_intersection(prev_pt, cur_pt, a, b))
    return np.array(output).reshape(-1, 2)


def rotated_iou_bev(a: Obb3, b: Obb3) -> float:
    """BEV IoU of two boxes' yaw-rotated footprint rectangles.

    Exact for convex footprints via polygon clipping; near-zero-area
    intersections (degenerate edge/vertex touches) count as 0.
    """
    if a.frame != b.frame:
        raise ValueError(f"boxes live in different frames: {a.frame!r} vs {b.frame!r}")
    fa, fb = a.footprint(), b.footprint()
    inter = polygon_area(clip_convex_polygon(fa, fb))
    if inter < 1e-12:
        return 0.0
    area_a, area_b = polygon_area(fa), polygon_area(fb)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)


def transform_obb(box: Obb3, rt: RigidTransform, target_frame: str) -> Obb3:
    """Re-express an oriented box in another frame.

    Only rigid transforms that keep the box's vertical axis aligned (up to
    sign) with the target frame's vertical axis are supported; anything else
    would tilt the box and it could no longer be described by a yaw alone.
    """
    axes = yaw_matrix(box.frame, box.yaw)
    new_axes = rt.rotation @ axes
    i, j, v = _AXES[target_frame]
    _, j_src, v_src = _AXES[box.frame]
    if abs(new_axes[v, v_src]) < MIN_VERTICAL_COSINE:
        raise ValueError("transform does not keep the box vertical in the target frame")
    new_yaw = math.atan2(new_axes[j, 0], new_axes[i, 0])
    new_dims = np.empty(3)
    new_dims[[0, j, v]] = box.dims[[0, j_src, v_src]]
    return Obb3(rt.apply(box.centre), new_dims, new_yaw, target_frame)
