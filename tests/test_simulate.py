import tracemalloc

import numpy as np
import pytest

from lidarpgt.dataset import load_sequence
from lidarpgt.errors import ConfigInvalid
from lidarpgt.geometry import CAMERA, LIDAR, CameraIntrinsics, backproject, yaw_matrix
from lidarpgt.simulate import (
    EgoMotion,
    SimConfig,
    SimObject,
    _render_depth_with_owner,
    _splat_min,
    make_scene,
    write_scene,
)

INTR = CameraIntrinsics(500.0, 500.0, 400.0, 150.0, 800, 320)


def small_config(objects, **kw):
    defaults = dict(
        n_frames=4,
        objects=objects,
        intrinsics=INTR,
        ground_extent=(-8.0, 8.0, 4.0, 30.0),
        ground_density=20.0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestSimObject:
    def test_dims_default_to_anchor(self):
        obj = SimObject("vehicle", (0.0, 10.0))
        assert np.allclose(obj.dims, [1.88, 1.63, 4.58])

    def test_rejects_far_from_anchor(self):
        with pytest.raises(ConfigInvalid):
            SimObject("pedestrian", (0.0, 10.0), dims=(1.0, 1.7, 0.27))

    def test_rejects_unknown_class(self):
        with pytest.raises(ConfigInvalid):
            SimObject("dragon", (0.0, 10.0))

    def test_within_20pct_accepted(self):
        obj = SimObject("vehicle", (0.0, 10.0), dims=(1.88 * 1.15, 1.63, 4.58 * 0.85))
        assert obj.dims[0] == pytest.approx(1.88 * 1.15)


class TestMakeScene:
    def test_deterministic_given_seed(self):
        cfg = small_config([SimObject("vehicle", (1.0, 12.0), velocity=(0.3, 0.1))])
        a = make_scene(cfg, seed=5)
        b = make_scene(cfg, seed=5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.cloud.points, fb.cloud.points)
            assert np.array_equal(fa.depth, fb.depth)
            assert np.array_equal(fa.flow, fb.flow)

    def test_static_world_zero_flow(self):
        cfg = small_config([SimObject("vehicle", (1.0, 12.0))])
        frames = list(make_scene(cfg, seed=1))
        for frame in frames[:-1]:
            valid = frame.depth > 0
            assert np.abs(frame.flow[valid]).max() < 1e-9

    def test_gt_centre_advances_with_velocity(self):
        cfg = small_config([SimObject("vehicle", (0.0, 12.0), velocity=(0.5, 0.0))])
        frames = list(make_scene(cfg, seed=2))
        # static ego: lidar x = camera z, lidar y = -camera x
        c0 = frames[0].gt_boxes[0].box.centre
        c1 = frames[1].gt_boxes[0].box.centre
        assert np.allclose(c1 - c0, [0.0, -0.5, 0.0], atol=1e-12)

    def test_is_moving_flags(self):
        cfg = small_config(
            [SimObject("vehicle", (0.0, 12.0), velocity=(0.5, 0.0)), SimObject("pedestrian", (3.0, 10.0))]
        )
        frames = list(make_scene(cfg, seed=3))
        assert frames[0].gt_boxes[0].is_moving
        assert not frames[0].gt_boxes[1].is_moving

    def test_gt_box_encloses_object_points(self):
        cfg = small_config(
            [SimObject("vehicle", (2.0, 12.0), yaw=0.6, velocity=(0.2, 0.3), yaw_rate=0.05)],
            ground_density=0.0,
        )
        frames = make_scene(cfg, seed=4)
        for frame in frames:
            box = frame.gt_boxes[0].box
            pts = frame.cloud.xyz
            axes = yaw_matrix(LIDAR, box.yaw)
            local = (pts - box.centre) @ axes
            inside = np.all(np.abs(local) <= box.dims / 2 + 1e-6, axis=1)
            assert inside.mean() >= 0.95

    def test_gt_dims_match_fitted_extents(self):
        cfg = small_config(
            [SimObject("cyclist", (1.0, 10.0), yaw=0.4)], ground_density=0.0
        )
        frames = list(make_scene(cfg, seed=5))
        box = frames[0].gt_boxes[0].box
        pts = frames[0].cloud.xyz
        axes = yaw_matrix(LIDAR, box.yaw)
        local = (pts - box.centre) @ axes
        extents = local.max(axis=0) - local.min(axis=0)
        assert np.abs(extents - box.dims).max() < 0.1

    def test_pose_consistency_static_point(self):
        cfg = small_config(
            [SimObject("vehicle", (0.0, 12.0))],
            ego=EgoMotion(velocity=(0.2, 0.4), yaw_rate=0.03),
        )
        frames = list(make_scene(cfg, seed=6))
        world_point = np.array([1.0, 0.5, 14.0])
        for k in (1, 2, 3):
            in_cam_k = frames[k].pose.invert().apply(world_point)
            via_relative = frames[0].pose.invert().compose(frames[k].pose).apply(in_cam_k)
            in_cam_0 = frames[0].pose.invert().apply(world_point)
            assert np.abs(via_relative - in_cam_0).max() < 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(n_frames=0, objects=[], intrinsics=INTR, ground_extent=(-8.0, 8.0, 4.0, 30.0))


def depth_of(pts_cam):
    return _render_depth_with_owner(np.asarray(pts_cam, dtype=float).reshape(-1, 3), INTR)[0]


class TestRenderDepth:
    def test_empty_cloud(self):
        assert not (depth_of(np.zeros((0, 3))) > 0).any()

    def test_single_point_recoverable(self):
        cam_point = np.array([0.5, 0.2, 9.0])
        depth = depth_of(cam_point)
        nz = np.argwhere(depth > 0)
        assert len(nz) == 1
        r, c = nz[0]
        back = backproject(np.array([float(c), float(r)]), depth[r, c], INTR)
        # half-pixel quantization at this depth
        assert np.linalg.norm(back - cam_point) < 0.5 * 9.0 / 500.0 * 1.5

    def test_nearer_point_wins(self):
        depth = depth_of([[0.0, 0.0, 10.0], [0.0, 0.0, 5.0]])
        assert depth[150, 400] == pytest.approx(5.0)

    def test_occluded_background_culled(self):
        rng = np.random.default_rng(7)
        # a dense wall at 8 m should hide a sparse wall 20 m behind it
        wall = np.column_stack([rng.uniform(-1, 1, 900), rng.uniform(-1, 1, 900), np.full(900, 8.0)])
        behind = np.column_stack([rng.uniform(-0.5, 0.5, 40), rng.uniform(-0.5, 0.5, 40), np.full(40, 28.0)])
        depth = depth_of(np.vstack([wall, behind]))
        assert not (np.abs(depth - 28.0) < 0.5).any()

    def test_exact_depth_tie_goes_to_lower_point_index(self):
        # points 1 and 2 tie at the nearest depth of one pixel; point 0 lies behind them
        pts_cam = np.array([[0.0, 0.0, 6.0], [0.001, 0.0, 5.0], [-0.001, 0.0, 5.0]])
        for order in ([0, 1, 2], [0, 2, 1]):
            depth, owner = _render_depth_with_owner(pts_cam[order], INTR)
            assert depth[150, 400] == 5.0 and owner[150, 400] == 1
            assert (owner >= 0).sum() == 1

    @pytest.mark.parametrize("shape, radius", [((6, 9), 1), ((5, 7), 4), ((3, 3), 3), ((1, 20), 2), ((4, 2), 6)])
    def test_splat_min_equals_brute_force_window_min(self, shape, radius):
        rng = np.random.default_rng(shape[0] * 31 + shape[1] + radius)
        buf = rng.random(shape)
        buf[rng.random(shape) < 0.6] = np.inf
        h, w = shape
        want = np.array(
            [
                [buf[max(0, r - radius) : r + radius + 1, max(0, c - radius) : c + radius + 1].min() for c in range(w)]
                for r in range(h)
            ]
        )
        assert np.array_equal(_splat_min(buf, radius), want)


def world_points(frame, cfg):
    """A frame's cloud back in the world frame."""
    return frame.pose.apply(cfg.lidar_to_cam.apply(frame.cloud.xyz))


class TestObjectRigidMotion:
    """Frame t1's points are frame t0's carried by the object's placements."""

    def test_translation_only(self):
        cfg = small_config([SimObject("vehicle", (1.0, 12.0), velocity=(0.4, -0.2))], ground_density=0.0)
        frames = list(make_scene(cfg, seed=9))
        shift = world_points(frames[3], cfg) - world_points(frames[0], cfg)
        assert np.allclose(shift, [1.2, 0.0, -0.6], atol=1e-9)

    def test_rotation_about_object_centre(self):
        obj = SimObject("vehicle", (2.0, 10.0), yaw=0.1, yaw_rate=0.2)
        cfg = small_config([obj], ground_density=0.0, ego=EgoMotion(heading=0.1, velocity=(0.1, 0.3), yaw_rate=0.02))
        frames = list(make_scene(cfg, seed=10))
        motion = obj.pose_at(1, cfg.ground_y).compose(obj.pose_at(0, cfg.ground_y).invert())
        assert np.allclose(motion.rotation, yaw_matrix(CAMERA, 0.2), atol=1e-12)
        assert np.allclose(motion.apply(world_points(frames[0], cfg)), world_points(frames[1], cfg), atol=1e-9)
        centre = np.array([2.0, cfg.ground_y - obj.dims[1] / 2, 10.0])
        assert np.allclose(motion.apply(centre), centre, atol=1e-12)
        for frame in frames[:2]:
            box = frame.gt_boxes[0].box
            assert np.allclose(frame.pose.apply(cfg.lidar_to_cam.apply(box.centre)), centre, atol=1e-9)
            local = (frame.cloud.xyz - box.centre) @ yaw_matrix(LIDAR, box.yaw)
            assert np.all(np.abs(local) <= box.dims / 2 + 1e-9)


class TestWriteScene:
    def test_layout_loads_back(self, tmp_path):
        cfg = small_config([SimObject("vehicle", (1.0, 12.0), velocity=(0.3, 0.0))])
        frames = list(make_scene(cfg, seed=8))
        write_scene(frames, cfg, tmp_path / "seq", seed=8)
        seq = load_sequence(tmp_path / "seq")
        assert seq.n_frames == 4
        cloud = seq.read_cloud(0)
        assert np.allclose(cloud.points, frames[0].cloud.points.astype(np.float32), atol=1e-6)
        depth = seq.read_depth(1)
        assert np.array_equal(depth.astype(np.float32), frames[1].depth.astype(np.float32))
        labels = seq.read_labels(0)
        assert len(labels) == 1 and labels[0].cls == "Car"
        assert len(seq.poses) == 4


class TestStreaming:
    """make_scene yields one frame at a time; write_scene writes each as it arrives."""

    @staticmethod
    def config(n_frames):
        objects = [
            SimObject("vehicle", (1.0, 12.0), yaw=0.3, velocity=(0.3, 0.1), yaw_rate=0.05),
            SimObject("pedestrian", (-3.0, 9.0), velocity=(0.1, 0.2)),
        ]
        return small_config(objects, n_frames=n_frames)

    def test_first_frame_equals_listed_scene(self):
        cfg = self.config(4)
        first = next(make_scene(cfg, seed=7))
        listed = list(make_scene(cfg, seed=7))[0]
        assert np.array_equal(first.cloud.points, listed.cloud.points)
        assert first.cloud.frame == listed.cloud.frame
        assert np.array_equal(first.depth, listed.depth)
        assert np.array_equal(first.flow, listed.flow)
        assert np.array_equal(first.pose.rotation, listed.pose.rotation)
        assert np.array_equal(first.pose.translation, listed.pose.translation)
        assert len(first.gt_boxes) == len(listed.gt_boxes) == 2
        for a, b in zip(first.gt_boxes, listed.gt_boxes):
            assert (a.cls, a.is_moving, a.box.yaw, a.box.frame) == (b.cls, b.is_moving, b.box.yaw, b.box.frame)
            assert np.array_equal(a.box.centre, b.box.centre)
            assert np.array_equal(a.box.dims, b.box.dims)

    def test_write_peak_does_not_grow_with_frame_count(self, tmp_path):
        peaks = {}
        for n_frames in (3, 9):
            cfg = self.config(n_frames)
            tracemalloc.start()
            try:
                write_scene(make_scene(cfg, seed=7), cfg, tmp_path / f"seq{n_frames}", seed=7)
                peaks[n_frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[9] <= 1.1 * peaks[3], peaks
