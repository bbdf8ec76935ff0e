"""Synthetic multi-frame scenes with analytic flow, depth and poses.

Objects are rigid cuboid shells (4 sides + top, no underside) standing on a
flat ground plane and moving with constant per-frame velocity and yaw rate.
The world frame coincides with the camera frame of an unmoved ego (x right,
y down, z forward), so the ground plane is y = ground_y with ground_y > 0.

Depth images are z-buffered projections of each frame's own cloud; flow is
exact per pixel: the projected displacement of the surface point that owns
the pixel. That makes the scenes usable as tracking oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    Calibration,
    write_calib,
    write_cloud,
    write_depth,
    write_flow,
    write_labels,
    write_poses,
)
from .errors import ConfigInvalid
from .evaluation import label_record
from .geometry import (
    CAMERA,
    LIDAR,
    CameraIntrinsics,
    Obb3,
    PointCloud,
    RigidTransform,
    kitti_lidar_to_camera,
    project,
    transform_obb,
    yaw_matrix,
)
from .pipeline import default_anchors

_CLASS_DENSITY = {"vehicle": 150.0, "pedestrian": 400.0, "cyclist": 400.0}
_ANCHOR_DIMS = {a.name: a.dims for a in default_anchors()}


@dataclass
class SimObject:
    """A rigid mobile object; dims are (lateral, height, length) local extents."""

    cls: str
    position: tuple[float, float]  # (x, z) ground-plane location at frame 0
    dims: tuple[float, float, float] | None = None  # defaults to the class anchor
    yaw: float = 0.0
    velocity: tuple[float, float] = (0.0, 0.0)  # (vx, vz) metres per frame
    yaw_rate: float = 0.0  # radians per frame
    density: float | None = None  # surface points per square metre

    def __post_init__(self):
        if self.cls not in _ANCHOR_DIMS:
            raise ConfigInvalid(f"unknown object class {self.cls!r}")
        anchor = _ANCHOR_DIMS[self.cls]
        if self.dims is None:
            self.dims = tuple(anchor)
        dims = np.asarray(self.dims, dtype=float)
        if not np.all(dims > 0):
            raise ConfigInvalid("object dims must be positive")
        if np.any(dims < 0.8 * anchor) or np.any(dims > 1.2 * anchor):
            raise ConfigInvalid(
                f"{self.cls} dims {dims.tolist()} stray more than 20% from the class anchor"
            )
        if self.density is None:
            self.density = _CLASS_DENSITY[self.cls]

    @property
    def is_moving(self) -> bool:
        return bool(np.linalg.norm(self.velocity) > 0 or self.yaw_rate != 0.0)

    def pose_at(self, t: int):
        """(x, z, yaw) of the object in the world ground plane at frame t."""
        return (
            self.position[0] + t * self.velocity[0],
            self.position[1] + t * self.velocity[1],
            self.yaw + t * self.yaw_rate,
        )


@dataclass
class EgoMotion:
    """Planar ego trajectory; heading rotates about the vertical axis."""

    position: tuple[float, float] = (0.0, 0.0)
    heading: float = 0.0
    velocity: tuple[float, float] = (0.0, 0.0)
    yaw_rate: float = 0.0

    def pose_at(self, t: int) -> RigidTransform:
        """Camera(t) -> world transform."""
        x = self.position[0] + t * self.velocity[0]
        z = self.position[1] + t * self.velocity[1]
        heading = self.heading + t * self.yaw_rate
        return RigidTransform(yaw_matrix(CAMERA, heading), (x, 0.0, z))


@dataclass
class SimConfig:
    n_frames: int
    objects: list[SimObject]
    intrinsics: CameraIntrinsics
    ground_extent: tuple[float, float, float, float]  # camera-frame (x0, x1, z0, z1)
    lidar_to_cam: RigidTransform = field(default_factory=kitti_lidar_to_camera)
    ego: EgoMotion = field(default_factory=EgoMotion)
    ground_y: float = 2.55  # camera-frame height of the ground plane (y is down)
    ground_density: float = 40.0
    intensity_range: tuple[float, float] = (0.2, 0.9)

    def __post_init__(self):
        if self.n_frames < 1:
            raise ConfigInvalid("a scene needs at least one frame")
        if self.ground_density < 0:
            raise ConfigInvalid("ground density must be >= 0")
        x0, x1, z0, z1 = self.ground_extent
        if not (x1 > x0 and z1 > z0):
            raise ConfigInvalid("ground extent must be a non-empty rectangle")


@dataclass
class GtBox:
    box: Obb3  # lidar frame
    cls: str
    is_moving: bool


@dataclass
class SceneFrame:
    cloud: PointCloud
    depth: np.ndarray
    flow: np.ndarray
    pose: RigidTransform  # camera(t) -> world
    gt_boxes: list[GtBox]


def _sample_face(rng, count, axis, offset, extents):
    """Uniform points on one cuboid face; `axis` is the fixed coordinate."""
    pts = np.empty((count, 3))
    free = [i for i in range(3) if i != axis]
    pts[:, axis] = offset
    for i in free:
        pts[:, i] = rng.uniform(-0.5 * extents[i], 0.5 * extents[i], count)
    return pts


def _sample_shell(rng, dims, density) -> np.ndarray:
    """Cuboid shell points in the object's local frame: 4 sides and the top.

    The top face sits at the minimum local y (up is -y); the underside is
    never sampled, mimicking surface returns.
    """
    dx, dy, dz = dims
    faces = [
        (0, +0.5 * dx, dy * dz),
        (0, -0.5 * dx, dy * dz),
        (2, +0.5 * dz, dx * dy),
        (2, -0.5 * dz, dx * dy),
        (1, -0.5 * dy, dx * dz),
    ]
    parts = []
    for axis, offset, area in faces:
        count = max(1, int(round(area * density)))
        parts.append(_sample_face(rng, count, axis, offset, np.asarray(dims, dtype=float)))
    return np.vstack(parts)


# Hidden-point removal: a point is dropped when a splatted surface at least
# this much nearer covers its pixel. The margin exceeds any single object's
# depth extent so objects stay self-transparent, while surfaces much further
# apart (ground seen "through" a vehicle) occlude properly, as they would for
# a real forward-facing depth sensor.
_OCCLUSION_MARGIN = 6.0
_OCCLUSION_SPLAT_RADIUS = 4


def _splat_min(buffer: np.ndarray, radius: int) -> np.ndarray:
    """Separable sliding-window minimum over a (2*radius+1)^2 neighbourhood."""
    out = buffer
    for axis in (0, 1):
        shifted = [np.roll(out, s, axis=axis) for s in range(-radius, radius + 1)]
        for s in range(-radius, radius + 1):
            sh = shifted[s + radius]
            if s > 0:
                sh[(slice(0, s),) if axis == 0 else (slice(None), slice(0, s))] = np.inf
            elif s < 0:
                sh[(slice(s, None),) if axis == 0 else (slice(None), slice(s, None))] = np.inf
        out = np.min(shifted, axis=0)
    return out


def _render_depth_with_owner(xyz_cam, intrinsics):
    """Z-buffered depth plus the index of the point owning each pixel (-1 empty).

    Points far behind a nearer splatted surface are culled first, so the depth
    image respects visibility; within each surviving pixel the nearest depth
    wins.
    """
    h, w = intrinsics.height, intrinsics.width
    depth = np.zeros((h, w))
    owner = np.full((h, w), -1, dtype=int)
    z = xyz_cam[:, 2]
    front = z > 0
    if not front.any():
        return depth, owner
    idx = np.flatnonzero(front)
    uv = project(xyz_cam[idx], intrinsics)
    cols = np.floor(uv[:, 0] + 0.5).astype(int)
    rows = np.floor(uv[:, 1] + 0.5).astype(int)
    in_img = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    idx, rows, cols = idx[in_img], rows[in_img], cols[in_img]
    z = xyz_cam[idx, 2]
    flat = rows * w + cols

    zbuf = np.full(h * w, np.inf)
    np.minimum.at(zbuf, flat, z)
    near = _splat_min(zbuf.reshape(h, w), _OCCLUSION_SPLAT_RADIUS).reshape(-1)
    visible = z <= near[flat] + _OCCLUSION_MARGIN
    idx, flat, z = idx[visible], flat[visible], z[visible]

    order = np.lexsort((np.arange(len(flat)), z, flat))
    flat_sorted = flat[order]
    first = np.ones(len(flat_sorted), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    winners = order[first]
    depth.reshape(-1)[flat[winners]] = z[winners]
    owner.reshape(-1)[flat[winners]] = idx[winners]
    return depth, owner


def render_depth(cloud: PointCloud, intrinsics: CameraIntrinsics, lidar_to_cam: RigidTransform):
    """Sparse depth image of a lidar cloud: nearest depth wins per pixel, 0 = empty."""
    depth, _ = _render_depth_with_owner(lidar_to_cam.apply(cloud.xyz), intrinsics)
    return depth


def object_rigid_motion(obj: SimObject, config: SimConfig, t0: int, t1: int) -> RigidTransform:
    """World-frame rigid motion carrying the object's points from frame t0 to t1."""
    x0, z0, yaw0 = obj.pose_at(t0)
    x1, z1, yaw1 = obj.pose_at(t1)
    y_centre = config.ground_y - 0.5 * obj.dims[1]
    pose0 = RigidTransform(yaw_matrix(CAMERA, yaw0), (x0, y_centre, z0))
    pose1 = RigidTransform(yaw_matrix(CAMERA, yaw1), (x1, y_centre, z1))
    return pose1.compose(pose0.invert())


def make_scene(config: SimConfig, seed: int) -> list[SceneFrame]:
    """Generate the scene deterministically for a given seed."""
    rng = np.random.default_rng(seed)
    x0, x1, z0, z1 = config.ground_extent
    n_ground = int(round((x1 - x0) * (z1 - z0) * config.ground_density))
    ground = np.empty((n_ground, 3))
    ground[:, 0] = rng.uniform(x0, x1, n_ground)
    ground[:, 1] = config.ground_y
    ground[:, 2] = rng.uniform(z0, z1, n_ground)

    local_points = [_sample_shell(rng, obj.dims, obj.density) for obj in config.objects]
    n_total = n_ground + sum(len(p) for p in local_points)
    lo, hi = config.intensity_range
    intensities = rng.uniform(lo, hi, n_total)

    cam_to_lidar = config.lidar_to_cam.invert()

    def world_points(t):
        parts = [ground]
        for obj, local in zip(config.objects, local_points):
            x, z, yaw = obj.pose_at(t)
            centre = np.array([x, config.ground_y - 0.5 * obj.dims[1], z])
            parts.append(local @ yaw_matrix(CAMERA, yaw).T + centre)
        return np.vstack(parts)

    frames = []
    for t in range(config.n_frames):
        pose = config.ego.pose_at(t)
        world = world_points(t)
        cam = pose.invert().apply(world)
        lidar = cam_to_lidar.apply(cam)
        cloud = PointCloud(np.column_stack([lidar, intensities]), frame=LIDAR)
        depth, owner = _render_depth_with_owner(cam, config.intrinsics)

        flow = np.zeros((config.intrinsics.height, config.intrinsics.width, 2))
        if t + 1 < config.n_frames:
            cam_next = config.ego.pose_at(t + 1).invert().apply(world_points(t + 1))
            owned = owner.reshape(-1)
            pix = np.flatnonzero(owned >= 0)
            pts_now = cam[owned[pix]]
            pts_next = cam_next[owned[pix]]
            visible = pts_next[:, 2] > 0
            pix, pts_now, pts_next = pix[visible], pts_now[visible], pts_next[visible]
            flow.reshape(-1, 2)[pix] = (
                project(pts_next, config.intrinsics) - project(pts_now, config.intrinsics)
            )

        gt_boxes = []
        for obj in config.objects:
            x, z, yaw = obj.pose_at(t)
            centre_world = np.array([x, config.ground_y - 0.5 * obj.dims[1], z])
            heading = config.ego.heading + t * config.ego.yaw_rate
            cam_box = Obb3(
                pose.invert().apply(centre_world), obj.dims, yaw - heading, CAMERA
            )
            gt_boxes.append(
                GtBox(transform_obb(cam_box, cam_to_lidar, LIDAR), obj.cls, obj.is_moving)
            )
        frames.append(SceneFrame(cloud, depth, flow, pose, gt_boxes))
    return frames


_LABEL_CLASS = {"vehicle": "Car", "pedestrian": "Pedestrian", "cyclist": "Cyclist"}


def write_scene(frames: list[SceneFrame], config: SimConfig, out_dir, seed: int | None = None):
    """Write a scene in the on-disk sequence layout (see dataset module)."""
    out = Path(out_dir)
    for sub in ("velodyne", "depth", "flow", "label_2"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    calib = Calibration(config.lidar_to_cam, config.intrinsics)
    write_calib(out / "calib.txt", calib)
    write_poses(out / "poses.txt", [f.pose for f in frames])
    for t, frame in enumerate(frames):
        write_cloud(out / "velodyne" / f"{t:06d}.bin", frame.cloud)
        write_depth(out / "depth" / f"{t:06d}.bin", frame.depth)
        write_flow(out / "flow" / f"{t:06d}.bin", frame.flow)
        records = [
            label_record(_LABEL_CLASS[gt.cls], gt.box, config.lidar_to_cam, config.intrinsics)
            for gt in frame.gt_boxes
        ]
        write_labels(out / "label_2" / f"{t:06d}.txt", records)
    meta = {
        "seed": seed,
        "n_frames": len(frames),
        "objects": [
            {"cls": obj.cls, "moving": obj.is_moving} for obj in config.objects
        ],
    }
    (out / "scene_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
