import numpy as np
import pytest

from lidarpgt.dataset import load_sequence
from lidarpgt.errors import ConfigInvalid
from lidarpgt.geometry import CAMERA, LIDAR, CameraIntrinsics, backproject, yaw_matrix
from lidarpgt.simulate import (
    EgoMotion,
    SimConfig,
    SimObject,
    make_scene,
    object_rigid_motion,
    render_depth,
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
        frames = make_scene(cfg, seed=1)
        for frame in frames[:-1]:
            valid = frame.depth > 0
            assert np.abs(frame.flow[valid]).max() < 1e-9

    def test_gt_centre_advances_with_velocity(self):
        cfg = small_config([SimObject("vehicle", (0.0, 12.0), velocity=(0.5, 0.0))])
        frames = make_scene(cfg, seed=2)
        # static ego: lidar x = camera z, lidar y = -camera x
        c0 = frames[0].gt_boxes[0].box.centre
        c1 = frames[1].gt_boxes[0].box.centre
        assert np.allclose(c1 - c0, [0.0, -0.5, 0.0], atol=1e-12)

    def test_is_moving_flags(self):
        cfg = small_config(
            [SimObject("vehicle", (0.0, 12.0), velocity=(0.5, 0.0)), SimObject("pedestrian", (3.0, 10.0))]
        )
        frames = make_scene(cfg, seed=3)
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
        frames = make_scene(cfg, seed=5)
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
        frames = make_scene(cfg, seed=6)
        world_point = np.array([1.0, 0.5, 14.0])
        for k in (1, 2, 3):
            in_cam_k = frames[k].pose.invert().apply(world_point)
            via_relative = frames[0].pose.invert().compose(frames[k].pose).apply(in_cam_k)
            in_cam_0 = frames[0].pose.invert().apply(world_point)
            assert np.abs(via_relative - in_cam_0).max() < 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(n_frames=0, objects=[], intrinsics=INTR, ground_extent=(-8.0, 8.0, 4.0, 30.0))


class TestRenderDepth:
    def test_empty_cloud(self):
        from lidarpgt.geometry import PointCloud, kitti_lidar_to_camera

        depth = render_depth(PointCloud(np.zeros((0, 4)), LIDAR), INTR, kitti_lidar_to_camera())
        assert not (depth > 0).any()

    def test_single_point_recoverable(self):
        from lidarpgt.geometry import PointCloud, kitti_lidar_to_camera

        s = kitti_lidar_to_camera()
        cam_point = np.array([0.5, 0.2, 9.0])
        lidar_point = s.invert().apply(cam_point)
        cloud = PointCloud(np.array([[*lidar_point, 0.5]]), LIDAR)
        depth = render_depth(cloud, INTR, s)
        nz = np.argwhere(depth > 0)
        assert len(nz) == 1
        r, c = nz[0]
        back = backproject(np.array([float(c), float(r)]), depth[r, c], INTR)
        # half-pixel quantization at this depth
        assert np.linalg.norm(back - cam_point) < 0.5 * 9.0 / 500.0 * 1.5

    def test_nearer_point_wins(self):
        from lidarpgt.geometry import PointCloud, kitti_lidar_to_camera

        s = kitti_lidar_to_camera()
        near = s.invert().apply(np.array([0.0, 0.0, 5.0]))
        far = s.invert().apply(np.array([0.0, 0.0, 10.0]))
        cloud = PointCloud(np.array([[*far, 0.5], [*near, 0.5]]), LIDAR)
        depth = render_depth(cloud, INTR, s)
        assert depth[150, 400] == pytest.approx(5.0)

    def test_occluded_background_culled(self):
        from lidarpgt.geometry import PointCloud, kitti_lidar_to_camera

        s = kitti_lidar_to_camera()
        rng = np.random.default_rng(7)
        # a dense wall at 8 m should hide a sparse wall 20 m behind it
        wall = np.column_stack([rng.uniform(-1, 1, 900), rng.uniform(-1, 1, 900), np.full(900, 8.0)])
        behind = np.column_stack([rng.uniform(-0.5, 0.5, 40), rng.uniform(-0.5, 0.5, 40), np.full(40, 28.0)])
        pts_cam = np.vstack([wall, behind])
        lidar = s.invert().apply(pts_cam)
        cloud = PointCloud(np.column_stack([lidar, np.full(len(lidar), 0.5)]), LIDAR)
        depth = render_depth(cloud, INTR, s)
        assert not (np.abs(depth - 28.0) < 0.5).any()


class TestObjectRigidMotion:
    def test_translation_only(self):
        cfg = small_config([SimObject("vehicle", (1.0, 12.0), velocity=(0.4, -0.2))])
        motion = object_rigid_motion(cfg.objects[0], cfg, 0, 3)
        assert np.allclose(motion.rotation, np.eye(3))
        assert np.allclose(motion.translation, [1.2, 0.0, -0.6])

    def test_rotation_about_object_centre(self):
        obj = SimObject("vehicle", (2.0, 10.0), yaw=0.1, yaw_rate=0.2)
        cfg = small_config([obj])
        motion = object_rigid_motion(obj, cfg, 0, 1)
        centre = np.array([2.0, cfg.ground_y - obj.dims[1] / 2, 10.0])
        assert np.allclose(motion.apply(centre), centre, atol=1e-12)


class TestWriteScene:
    def test_layout_loads_back(self, tmp_path):
        cfg = small_config([SimObject("vehicle", (1.0, 12.0), velocity=(0.3, 0.0))])
        frames = make_scene(cfg, seed=8)
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
