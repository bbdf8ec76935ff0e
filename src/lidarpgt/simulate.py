"""Synthetic multi-frame scenes with analytic flow, depth and poses.

Objects are rigid cuboid shells (4 sides + top, no underside) standing on a
flat ground plane. The ego and every object move by one rule, `_planar_pose`:
constant per-frame velocity and yaw rate. Its transform places an object's
points, and its translation is the object's ground-truth box centre.
The world frame coincides with the camera frame of an unmoved ego (x right,
y down, z forward), so the ground plane is y = ground_y with ground_y > 0.

Depth images are z-buffered projections of each frame's own cloud; flow is
exact per pixel: the projected displacement of the surface point that owns
the pixel. That makes the scenes usable as tracking oracles.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    FRAME_FILES,
    Calibration,
    SequenceIndex,
    label_record,
    remove_frames_from,
    write_calib,
    write_cloud,
    write_labels,
    write_poses,
    write_raster,
)
from .errors import ConfigInvalid
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

# The most points a frame may hold, the ground's and every object's together.
# `simulate` peaks at about 350 MB of resident memory just under it.
MAX_FRAME_POINTS = 2_000_000
LIDAR_TO_CAM = kitti_lidar_to_camera()  # every simulated scene's extrinsics
_INTENSITY_RANGE = (0.2, 0.9)  # point intensities are drawn uniformly from it
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
            raise ConfigInvalid(f"unknown object class {reprlib.repr(self.cls)}")
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

    def pose_at(self, t: int, ground_y: float) -> RigidTransform:
        """Box-local -> world placement at frame t; the box stands on y = ground_y."""
        return _planar_pose(self, self.yaw, t, ground_y - 0.5 * self.dims[1])


@dataclass
class EgoMotion:
    """Planar ego trajectory; heading rotates about the vertical axis."""

    position: tuple[float, float] = (0.0, 0.0)
    heading: float = 0.0
    velocity: tuple[float, float] = (0.0, 0.0)
    yaw_rate: float = 0.0

    def pose_at(self, t: int) -> RigidTransform:
        """Camera(t) -> world transform."""
        return _planar_pose(self, self.heading, t, 0.0)


def _heading_at(body, heading: float, t: int) -> float:
    return heading + t * body.yaw_rate


def _planar_pose(body, heading: float, t: int, height: float) -> RigidTransform:
    """Placement at frame t of a body in constant planar motion (the one motion
    rule of the simulator): (x, z) = position + t * velocity at camera-frame
    height `height`, turned by heading + t * yaw_rate about the vertical axis."""
    return RigidTransform(
        yaw_matrix(CAMERA, _heading_at(body, heading, t)),
        (body.position[0] + t * body.velocity[0], height, body.position[1] + t * body.velocity[1]),
    )


@dataclass
class SimConfig:
    n_frames: int
    objects: list[SimObject]
    intrinsics: CameraIntrinsics
    ground_extent: tuple[float, float, float, float]  # camera-frame (x0, x1, z0, z1)
    ego: EgoMotion = field(default_factory=EgoMotion)
    ground_y: float = 2.55  # camera-frame height of the ground plane (y is down)
    ground_density: float = 40.0

    def __post_init__(self):
        if self.n_frames < 1:
            raise ConfigInvalid("a scene needs at least one frame")
        if self.ground_density < 0:
            raise ConfigInvalid("ground density must be >= 0")
        x0, x1, z0, z1 = self.ground_extent
        if not (x1 > x0 and z1 > z0):
            raise ConfigInvalid("ground extent must be a non-empty rectangle")
        counts = {"ground_density": _point_count((x1 - x0) * (z1 - z0), self.ground_density)}
        for i, obj in enumerate(self.objects):
            counts[f"objects[{i}].density"] = sum(count for *_, count in _shell_faces(obj.dims, obj.density))
        if sum(counts.values()) > MAX_FRAME_POINTS:
            key = max(counts, key=counts.get)  # the largest share names the key to lower
            raise ConfigInvalid(f"{key}: a frame would hold more than MAX_FRAME_POINTS = {MAX_FRAME_POINTS} points")


@dataclass
class GtBox:
    box: Obb3  # lidar frame
    cls: str
    is_moving: bool


@dataclass
class SceneFrame:
    """One simulated frame; depth and flow are float32, the width they are stored in."""

    cloud: PointCloud
    depth: np.ndarray  # (h, w) float32
    flow: np.ndarray  # (h, w, 2) float32
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


def _point_count(area: float, density: float) -> int:
    """Points drawn on `area` square metres at `density`; a count past the limit
    is clipped to MAX_FRAME_POINTS + 1, so an overflowing product still counts."""
    return int(round(min(area * density, MAX_FRAME_POINTS + 1)))


def _shell_faces(dims, density) -> list[tuple[int, float, int]]:
    """A cuboid shell's faces as (fixed axis, offset, point count): 4 sides and the top.

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
    return [(axis, offset, max(1, _point_count(area, density))) for axis, offset, area in faces]


def _sample_shell(rng, dims, density) -> np.ndarray:
    """Cuboid shell points in the object's local frame (see `_shell_faces`)."""
    extents = np.asarray(dims, dtype=float)
    return np.vstack(
        [_sample_face(rng, count, axis, offset, extents) for axis, offset, count in _shell_faces(dims, density)]
    )


# Hidden-point removal: a point is dropped when a splatted surface at least
# this much nearer covers its pixel. The margin exceeds any single object's
# depth extent so objects stay self-transparent, while surfaces much further
# apart (ground seen "through" a vehicle) occlude properly, as they would for
# a real forward-facing depth sensor.
_OCCLUSION_MARGIN = 6.0
_OCCLUSION_SPLAT_RADIUS = 4


def _splat_min(buffer: np.ndarray, radius: int) -> np.ndarray:
    """Separable sliding-window minimum over a (2*radius+1)^2 neighbourhood.
    Each axis pass doubles the window on an inf-padded buffer (the min over 1,
    2, 4, ... cells), then takes the min of two overlapping windows of the
    largest power of two that fits; a min is exact, so overlap changes nothing."""
    width = 2 * radius + 1
    h, w = buffer.shape
    run = np.full((h + 2 * radius, w + 2 * radius), np.inf)
    run[radius : radius + h, radius : radius + w] = buffer
    for n in (h, w):
        span = 1
        while 2 * span <= width:
            run = np.minimum(run[:-span], run[span:])
            span *= 2
        # the pass is along axis 0; the transpose turns the next axis there
        run = np.minimum(run[:n], run[width - span : width - span + n]).T
    return run


def _render_depth_with_owner(xyz_cam, intrinsics):
    """Z-buffered float32 depth plus the int32 index of the point owning each
    pixel (-1 empty); indices stay below MAX_FRAME_POINTS < 2**31.

    Points far behind a nearer splatted surface are culled, so the depth image
    respects visibility; each pixel's nearest point wins, ties going to the
    lowest point index. A pixel's nearest point is culled only with all of its
    points, so the cull is tested once per pixel.
    """
    h, w = intrinsics.height, intrinsics.width
    idx = np.flatnonzero(xyz_cam[:, 2] > 0)
    uv = project(xyz_cam[idx], intrinsics)
    cols = np.floor(uv[:, 0] + 0.5).astype(int)
    rows = np.floor(uv[:, 1] + 0.5).astype(int)
    in_img = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    idx, rows, cols = idx[in_img], rows[in_img], cols[in_img]
    if not len(idx):
        return np.zeros((h, w), dtype=np.float32), np.full((h, w), -1, dtype=np.int32)
    z = xyz_cam[idx, 2]

    # The buffers cover the bounding box of the points' pixels: outside it every
    # cell is inf and holds no point.
    r0, c0 = rows.min(), cols.min()
    box = (rows.max() - r0 + 1, cols.max() - c0 + 1)
    flat = (rows - r0) * box[1] + (cols - c0)
    zbuf = np.full(box[0] * box[1], np.inf)
    np.minimum.at(zbuf, flat, z)
    near = _splat_min(zbuf.reshape(box), _OCCLUSION_SPLAT_RADIUS).reshape(-1)
    near += _OCCLUSION_MARGIN
    shown = zbuf <= near
    del near
    nearest = np.flatnonzero((z == zbuf[flat]) & shown[flat])
    del shown
    first = np.full(len(zbuf), len(z), dtype=np.int32)
    np.minimum.at(first, flat[nearest], nearest.astype(np.int32))  # ufunc.at is slow across dtypes
    cells = np.flatnonzero(first < len(z))
    r, c = np.unravel_index(cells, box)
    # the outputs are allocated only now, after the cull's buffers are gone
    depth = np.zeros((h, w), dtype=np.float32)
    owner = np.full((h, w), -1, dtype=np.int32)
    depth[r + r0, c + c0] = z[first[cells]]
    owner[r + r0, c + c0] = idx[first[cells]]
    return depth, owner


def _render_flow(owner, cam, cam_next, intrinsics) -> np.ndarray:
    """Float32 flow to the next frame: each owned pixel gets the projected
    displacement of its owner point while that point stays in front of the
    camera; other pixels, and every pixel of the last frame, get zero."""
    flow = np.zeros((intrinsics.height, intrinsics.width, 2), dtype=np.float32)
    if cam_next is not None:
        pix = np.flatnonzero(owner.reshape(-1) >= 0)
        idx = owner.reshape(-1)[pix]
        visible = cam_next[idx, 2] > 0
        pix, idx = pix[visible], idx[visible]
        flow.reshape(-1, 2)[pix] = project(cam_next[idx], intrinsics) - project(cam[idx], intrinsics)
    return flow


def make_scene(config: SimConfig, seed: int) -> Iterator[SceneFrame]:
    """Yield the scene's frames in order, deterministically for a given seed.
    Each is built when asked for, so memory does not grow with the frame count."""
    rng = np.random.default_rng(seed)
    x0, x1, z0, z1 = config.ground_extent
    n_ground = _point_count((x1 - x0) * (z1 - z0), config.ground_density)
    ground = np.column_stack(
        [rng.uniform(x0, x1, n_ground), np.full(n_ground, config.ground_y), rng.uniform(z0, z1, n_ground)]
    )

    local_points = [_sample_shell(rng, obj.dims, obj.density) for obj in config.objects]
    n_total = n_ground + sum(len(p) for p in local_points)
    intensities = rng.uniform(*_INTENSITY_RANGE, n_total)

    cam_to_lidar = LIDAR_TO_CAM.invert()
    intr = config.intrinsics

    def camera_points(t):
        world = [ground] + [
            obj.pose_at(t, config.ground_y).apply(local)
            for obj, local in zip(config.objects, local_points)
        ]
        return config.ego.pose_at(t).invert().apply(np.vstack(world))

    cam = camera_points(0)
    for t in range(config.n_frames):
        pose = config.ego.pose_at(t)
        cloud = PointCloud(np.column_stack([cam_to_lidar.apply(cam), intensities]))
        depth, owner = _render_depth_with_owner(cam, intr)

        # Each frame's points are built once: first as frame t's flow target.
        cam_next = camera_points(t + 1) if t + 1 < config.n_frames else None
        flow = _render_flow(owner, cam, cam_next, intr)

        world_to_cam = pose.invert()
        gt_boxes = []
        for obj in config.objects:
            centre = world_to_cam.apply(obj.pose_at(t, config.ground_y).translation)
            yaw = _heading_at(obj, obj.yaw, t) - _heading_at(config.ego, config.ego.heading, t)
            cam_box = Obb3(centre, obj.dims, yaw, CAMERA)
            gt_boxes.append(GtBox(transform_obb(cam_box, cam_to_lidar, LIDAR), obj.cls, obj.is_moving))
        yield SceneFrame(cloud, depth, flow, pose, gt_boxes)
        # the frame is the caller's now: hold none of it while the next is built
        del cloud, depth, owner, flow, gt_boxes
        cam = cam_next


_LABEL_CLASS = {"vehicle": "Car", "pedestrian": "Pedestrian", "cyclist": "Cyclist"}


def write_scene(frames: Iterable[SceneFrame], config: SimConfig, out_dir, seed: int) -> list[int]:
    """Write `config`'s scene, made with `seed`, in the on-disk sequence layout
    (see dataset module). The poses and frame count come from `config`; each
    frame is written as it arrives. Returns the number of points of each frame."""
    calib = Calibration(LIDAR_TO_CAM, config.intrinsics)
    poses = [config.ego.pose_at(t) for t in range(config.n_frames)]
    seq = SequenceIndex(Path(out_dir), calib, poses, config.n_frames)
    for directory, suffix in FRAME_FILES.values():
        (seq.root / directory).mkdir(parents=True, exist_ok=True)
        remove_frames_from(seq.root / directory, config.n_frames, suffix)
    write_calib(seq.root / "calib.txt", calib)
    write_poses(seq.root / "poses.txt", seq.poses)
    n_points = []
    for frame in frames:  # enumerate's cached result tuple would hold the last frame
        t = len(n_points)
        n_points.append(len(frame.cloud))
        write_cloud(seq.path("cloud", t), frame.cloud)
        write_raster(seq.path("depth", t), frame.depth)
        write_raster(seq.path("flow", t), frame.flow)
        records = [
            label_record(_LABEL_CLASS[gt.cls], gt.box, LIDAR_TO_CAM, config.intrinsics)
            for gt in frame.gt_boxes
        ]
        write_labels(seq.path("label", t), records)
        del frame  # so the next frame is not built beside this one
    meta = {
        "seed": seed,
        "n_frames": config.n_frames,
        "objects": [
            {"cls": obj.cls, "moving": obj.is_moving} for obj in config.objects
        ],
    }
    (seq.root / "scene_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return n_points
