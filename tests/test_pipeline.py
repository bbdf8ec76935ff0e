import math

import numpy as np
import pytest

from lidarpgt.errors import DegenerateInput, MissingFrameData
from lidarpgt.geometry import (
    CAMERA,
    LIDAR,
    CameraIntrinsics,
    Obb3,
    PointCloud,
    RigidTransform,
    kitti_lidar_to_camera,
    project,
    yaw_matrix,
)
from lidarpgt.pipeline import (
    Anchor,
    ScorerConfig,
    combined_confidence,
    crop_cylinder,
    default_anchors,
    fit_obb,
    inconsistency_score,
    moving_score,
    principal_direction,
    select_anchor,
    track_points,
)

ANCHORS = {a.name: a for a in default_anchors()}
EXTR = kitti_lidar_to_camera()
INTR = CameraIntrinsics(500.0, 500.0, 400.0, 150.0, 800, 320)


def lidar_cloud(points_cam):
    """Build a lidar cloud from camera-frame points for crop tests."""
    pts = EXTR.invert().apply(np.atleast_2d(points_cam))
    return PointCloud(np.column_stack([pts, np.full(len(pts), 0.5)]), LIDAR)


class TestAnchors:
    def test_reference_sizes(self):
        assert np.allclose(ANCHORS["pedestrian"].dims, [0.45, 1.70, 0.27])
        assert np.allclose(ANCHORS["cyclist"].dims, [0.54, 1.90, 1.75])
        assert np.allclose(ANCHORS["vehicle"].dims, [1.88, 1.63, 4.58])

    def test_crop_radii(self):
        assert ANCHORS["pedestrian"].crop_radius() == pytest.approx(
            math.hypot(0.45, 0.27) / 2
        )
        assert ANCHORS["vehicle"].crop_radius() == pytest.approx(math.hypot(1.88, 4.58) / 2)


class TestCropCylinder:
    def test_centre_point_included(self):
        centre_cam = np.array([1.0, 0.5, 10.0])
        cloud = lidar_cloud([centre_cam])
        centre_lidar = EXTR.invert().apply(centre_cam)
        out = crop_cylinder(cloud, centre_lidar, ANCHORS["pedestrian"], EXTR)
        assert len(out) == 1
        assert np.allclose(out[0], centre_cam)

    def test_pedestrian_radius_excludes_30cm(self):
        centre_cam = np.array([0.0, 0.0, 10.0])
        point = centre_cam + np.array([0.30, 0.0, 0.0])  # 0.30 > ~0.2624 radius
        cloud = lidar_cloud([point])
        out = crop_cylinder(cloud, EXTR.invert().apply(centre_cam), ANCHORS["pedestrian"], EXTR)
        assert len(out) == 0

    def test_vehicle_radius_includes_2m(self):
        centre_cam = np.array([0.0, 0.0, 10.0])
        point = centre_cam + np.array([2.0, 0.0, 0.0])  # 2.0 < ~2.4754 radius
        cloud = lidar_cloud([point])
        out = crop_cylinder(cloud, EXTR.invert().apply(centre_cam), ANCHORS["vehicle"], EXTR)
        assert len(out) == 1

    def test_height_band_strict(self):
        centre_cam = np.array([0.0, 0.0, 10.0])
        half_h = ANCHORS["vehicle"].dims[1] / 2
        on_edge = centre_cam + np.array([0.0, half_h, 0.0])
        just_inside = centre_cam + np.array([0.0, half_h - 1e-9, 0.0])
        cloud = lidar_cloud([on_edge, just_inside])
        out = crop_cylinder(cloud, EXTR.invert().apply(centre_cam), ANCHORS["vehicle"], EXTR)
        assert len(out) == 1

    def test_matches_brute_force_membership(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            centre_cam = np.array([rng.uniform(-3, 3), rng.uniform(-1, 2), rng.uniform(6, 25)])
            pts_cam = centre_cam + rng.normal(scale=1.8, size=(60, 3))
            cloud = lidar_cloud(pts_cam)
            for anchor in default_anchors():
                got = crop_cylinder(cloud, EXTR.invert().apply(centre_cam), anchor, EXTR)
                expected = []
                radius = math.hypot(anchor.dims[0], anchor.dims[2]) / 2
                for p in cloud.xyz:
                    q = EXTR.apply(p)
                    if abs(q[1] - centre_cam[1]) < anchor.dims[1] / 2 and math.hypot(
                        q[0] - centre_cam[0], q[2] - centre_cam[2]
                    ) < radius:
                        expected.append(q)
                expected = np.array(expected).reshape(-1, 3)
                assert got.shape == expected.shape
                if len(got):
                    assert np.allclose(np.sort(got, axis=0), np.sort(expected, axis=0), atol=1e-12)


def constant_depth_scene(points_cam, n_frames, intr=INTR):
    """Static scene: depth images rendered from fixed points, zero flow."""
    h, w = intr.height, intr.width
    uv = project(points_cam, intr)
    depth = np.zeros((h, w))
    for (u, v), z in zip(uv, points_cam[:, 2]):
        depth[int(round(v)), int(round(u))] = z
    flows = [np.zeros((h, w, 2)) for _ in range(n_frames - 1)]
    depths = [depth.copy() for _ in range(n_frames)]
    poses = [RigidTransform.identity() for _ in range(n_frames)]
    return flows, depths, poses


class TestTrackPoints:
    def pixel_aligned_points(self, rng, n, intr=INTR):
        """Points that project exactly onto integer pixels (no quantization)."""
        cols = rng.integers(50, intr.width - 50, n)
        rows = rng.integers(40, intr.height - 40, n)
        depth = rng.uniform(5, 20, n)
        x = (cols - intr.cx) / intr.fx * depth
        y = (rows - intr.cy) / intr.fy * depth
        return np.column_stack([x, y, depth])

    def test_static_scene_returns_input(self):
        rng = np.random.default_rng(1)
        pts = self.pixel_aligned_points(rng, 40)
        flows, depths, poses = constant_depth_scene(pts, 4)
        tracked = track_points(pts, flows, depths, poses, 3, INTR)
        for k in range(4):
            assert tracked.alive[k].all()
            assert np.abs(tracked.positions[k] - pts).max() < 1e-9

    def test_all_depths_invalid_masks_everything(self):
        rng = np.random.default_rng(2)
        pts = self.pixel_aligned_points(rng, 10)
        flows, depths, poses = constant_depth_scene(pts, 4)
        depths[1] = np.zeros_like(depths[1])
        tracked = track_points(pts, flows, depths, poses, 3, INTR)
        assert tracked.alive[0].all()
        assert not tracked.alive[1].any()
        assert not tracked.alive[3].any()

    def test_missing_frames_rejected(self):
        rng = np.random.default_rng(3)
        pts = self.pixel_aligned_points(rng, 5)
        flows, depths, poses = constant_depth_scene(pts, 3)
        with pytest.raises(MissingFrameData):
            track_points(pts, flows, depths, poses, 3, INTR)

    def test_known_flow_displacement(self):
        # one point, constant flow moving it 10 px right; next-frame depth valid there
        intr = INTR
        p = np.array([[0.0, 0.0, 10.0]])
        u0, v0 = 400, 150
        depth0 = np.zeros((intr.height, intr.width))
        depth0[v0, u0] = 10.0
        depth1 = np.zeros_like(depth0)
        depth1[v0, u0 + 10] = 10.0
        flow = np.zeros((intr.height, intr.width, 2))
        flow[v0, u0] = [10.0, 0.0]
        tracked = track_points(p, [flow], [depth0, depth1], [RigidTransform.identity()] * 2, 1, intr)
        assert tracked.alive[1].all()
        expected = np.array([(u0 + 10 - intr.cx) / intr.fx * 10.0, 0.0, 10.0])
        assert np.allclose(tracked.positions[1][0], expected, atol=1e-9)

    def test_ego_motion_compensated(self):
        # static point, ego translates forward; tracked set stays at the
        # frame-0 camera coordinates
        intr = INTR
        world = np.array([[1.0, 0.5, 12.0]])
        poses = [RigidTransform(np.eye(3), (0.0, 0.0, 0.4 * t)) for t in range(3)]
        depths, flows = [], []
        cams = []
        for t in range(3):
            cam = poses[t].invert().apply(world)
            cams.append(cam)
            depth = np.zeros((intr.height, intr.width))
            uv = project(cam, intr)
            depth[int(round(uv[0, 1])), int(round(uv[0, 0]))] = cam[0, 2]
            depths.append(depth)
        for t in range(2):
            uv_now = project(cams[t], intr)
            uv_next = project(cams[t + 1], intr)
            flow = np.zeros((intr.height, intr.width, 2))
            flow[int(round(uv_now[0, 1])), int(round(uv_now[0, 0]))] = uv_next[0] - uv_now[0]
            flows.append(flow)
        tracked = track_points(cams[0], flows, depths, poses, 2, intr)
        assert tracked.alive[2].all()
        # quantization-level tolerance: pixels are rounded in this tiny scene
        assert np.abs(tracked.positions[2] - cams[0]).max() < 0.08


def cuboid_corners(dims, yaw=0.0, centre=(0.0, 0.0, 0.0)):
    dx, dy, dz = dims
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    local = signs * np.array([dx, dy, dz]) / 2
    return local @ yaw_matrix(CAMERA, yaw).T + np.asarray(centre, dtype=float)


class TestFitObb:
    def test_axis_aligned_cuboid(self):
        box = fit_obb(cuboid_corners((2.0, 1.0, 4.0)))
        assert np.allclose(box.centre, 0.0, atol=1e-12)
        assert np.allclose(box.dims, [2.0, 1.0, 4.0], atol=1e-9)
        assert box.yaw == pytest.approx(0.0, abs=1e-9)

    def test_rotated_cuboid_recovers_construction(self):
        yaw = math.pi / 6
        box = fit_obb(cuboid_corners((2.0, 1.0, 4.0), yaw=yaw, centre=(1.0, -0.5, 7.0)))
        assert np.allclose(box.centre, [1.0, -0.5, 7.0], atol=1e-12)
        assert np.allclose(box.dims, [2.0, 1.0, 4.0], atol=1e-6)
        assert box.yaw == pytest.approx(yaw, abs=1e-6)

    def test_random_rotations_mod_pi(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            yaw = rng.uniform(-math.pi, math.pi)
            dims = sorted(rng.uniform(0.5, 5.0, 3))
            dims = (dims[0], dims[1], dims[2])  # ensure dx < dz, canonical-form friendly
            box = fit_obb(cuboid_corners(dims, yaw=yaw))
            residual = (box.yaw - yaw + math.pi / 2) % math.pi - math.pi / 2
            assert abs(residual) < 1e-6
            assert np.allclose(box.dims, dims, atol=1e-6)

    def test_centre_is_mean(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(100, 3)) * [2.0, 0.5, 4.0]
        box = fit_obb(pts)
        assert np.allclose(box.centre, pts.mean(axis=0), atol=1e-12)

    def test_principal_direction_matches_power_iteration(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            scales = rng.uniform(0.3, 4.0, 3)
            scales[2] = scales.max() * rng.uniform(1.5, 3.0)  # clear eigengap
            pts = rng.normal(size=(100, 3)) * scales
            e = principal_direction(pts)
            centred = pts - pts.mean(axis=0)
            cov = centred.T @ centred / len(pts)
            v = rng.normal(size=3)
            for _ in range(3000):
                v = cov @ v
                v /= np.linalg.norm(v)
            assert min(np.linalg.norm(e - v), np.linalg.norm(e + v)) < 1e-6

    def test_too_few_points(self):
        with pytest.raises(DegenerateInput):
            fit_obb(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_planar_points_degenerate(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.normal(size=50), np.zeros(50), rng.normal(size=50)])
        with pytest.raises(DegenerateInput):
            fit_obb(pts)

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(80, 3)) * [2.0, 0.7, 3.5] + [0, 0, 10]
        base = fit_obb(pts)
        angle = 0.8
        shift = np.array([2.0, -0.4, 3.0])
        rt = RigidTransform(yaw_matrix(CAMERA, angle), shift)
        moved = fit_obb(rt.apply(pts))
        assert np.allclose(moved.centre, rt.apply(base.centre), atol=1e-9)
        assert np.allclose(moved.dims, base.dims, atol=1e-6)
        residual = (moved.yaw - base.yaw - angle + math.pi / 2) % math.pi - math.pi / 2
        assert abs(residual) < 1e-9


class TestScores:
    def boxes_from_centres(self, centres, dims=(1.0, 1.0, 2.0)):
        return [Obb3(c, dims, 0.0, CAMERA) for c in centres]

    def test_static_zero(self):
        boxes = self.boxes_from_centres([[0, 0, 5]] * 4)
        assert moving_score(boxes) == 0.0

    def test_constant_speed(self):
        centres = [[0.5 * k, 0.0, 5.0] for k in range(4)]
        assert moving_score(self.boxes_from_centres(centres)) == pytest.approx(1.5)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(9)
        centres = rng.normal(size=(4, 3))
        boxes = self.boxes_from_centres(centres)
        assert moving_score(boxes) >= np.linalg.norm(centres[3] - centres[0]) - 1e-12

    def test_inconsistency_identical_dims(self):
        boxes = self.boxes_from_centres([[k, 0, 5] for k in range(4)])
        assert inconsistency_score(boxes) == 0.0

    def test_inconsistency_known_drift(self):
        boxes = [Obb3((0, 0, 5), (2.0, 1.0, 4.0), 0.0, CAMERA)]
        for _ in range(3):
            boxes.append(Obb3((0, 0, 5), (2.0, 1.0, 4.1), 0.0, CAMERA))
        assert inconsistency_score(boxes) == pytest.approx(0.3, abs=1e-12)

    def test_combined_confidence_reference_values(self):
        cfg = ScorerConfig()
        assert combined_confidence(1.5, 0.2, cfg) == pytest.approx(0.57)
        assert combined_confidence(0.0, 0.0, cfg) == 0.0
        assert combined_confidence(0.0, 1.0, cfg) == pytest.approx(-0.15)

    def test_moving_score_invariant_under_global_rigid_motion(self):
        rng = np.random.default_rng(10)
        centres = rng.normal(scale=3.0, size=(4, 3))
        boxes = self.boxes_from_centres(centres)
        base = moving_score(boxes)
        rt = RigidTransform(yaw_matrix(CAMERA, 1.1), np.array([4.0, -1.0, 2.5]))
        moved = [Obb3(rt.apply(b.centre), b.dims, b.yaw, CAMERA) for b in boxes]
        assert moving_score(moved) == pytest.approx(base, abs=1e-12)


class TestSelectAnchor:
    def test_largest_volume_wins(self):
        anchors = default_anchors()
        scores = [0.10, -1.0, 0.09]  # pedestrian, cyclist, vehicle
        chosen = select_anchor(scores, anchors, 0.08)
        assert chosen is not None and chosen[0].name == "vehicle"
        assert chosen[1] == pytest.approx(0.09)

    def test_none_survive(self):
        anchors = default_anchors()
        assert select_anchor([0.05, 0.02, -3.0], anchors, 0.08) is None

    def test_single_survivor(self):
        anchors = default_anchors()
        chosen = select_anchor([-1.0, 0.5, 0.01], anchors, 0.08)
        assert chosen[0].name == "cyclist"

    def test_threshold_boundary_survives(self):
        anchors = default_anchors()
        chosen = select_anchor([0.08, -1.0, -1.0], anchors, 0.08)
        assert chosen[0].name == "pedestrian"

    def test_exact_volume_tie_prefers_earlier(self):
        a = Anchor("first", (1.0, 1.0, 1.0))
        b = Anchor("second", (1.0, 1.0, 1.0))
        chosen = select_anchor([0.5, 0.9], [a, b], 0.08)
        assert chosen[0].name == "first"


class TestGeneratePseudoLabels:
    def _window(self, frames, cfg, k):
        from lidarpgt.pipeline import FrameWindow

        return FrameWindow(
            cloud=frames[0].cloud,
            depths=[f.depth for f in frames[: k + 1]],
            flows=[f.flow for f in frames[:k]],
            poses=[f.pose for f in frames[: k + 1]],
            intrinsics=cfg.intrinsics,
            lidar_to_cam=cfg.lidar_to_cam,
        )

    def test_ground_only_scene_is_all_u_minus_with_zero_targets(self):
        from lidarpgt.bev import GridSpec
        from lidarpgt.pipeline import generate_pseudo_labels
        from lidarpgt.proposals import heuristic_grid
        from lidarpgt.sampling import SamplerConfig
        from lidarpgt.simulate import EgoMotion, SimConfig, make_scene

        cfg = SimConfig(
            n_frames=5,
            objects=[],
            intrinsics=INTR,
            ego=EgoMotion(velocity=(0.0, 0.1)),
            ground_extent=(-8.0, 8.0, 4.0, 30.0),
            ground_density=25.0,
        )
        frames = make_scene(cfg, seed=11)
        spec = GridSpec()
        grid = heuristic_grid(frames[0].cloud, spec)
        result = generate_pseudo_labels(
            self._window(frames, cfg, 3), grid, spec,
            sampler_cfg=SamplerConfig(sample_count=40, seed=0),
        )
        assert result.u_plus == []
        assert len(result.u_minus) == 40
        assert all(target == 0.0 for _, target in result.u_minus)

    def test_single_moving_vehicle_gets_vehicle_label(self):
        from lidarpgt.bev import GridSpec
        from lidarpgt.geometry import rotated_iou_bev
        from lidarpgt.pipeline import generate_pseudo_labels
        from lidarpgt.proposals import heuristic_grid
        from lidarpgt.sampling import SamplerConfig
        from lidarpgt.simulate import EgoMotion, SimConfig, SimObject, make_scene

        cfg = SimConfig(
            n_frames=5,
            objects=[SimObject("vehicle", (2.0, 14.0), yaw=0.5, velocity=(0.3, 0.8))],
            intrinsics=CameraIntrinsics(700.0, 700.0, 621.0, 187.0, 1242, 416),
            ground_extent=(-10.0, 10.0, 4.0, 40.0),
            ego=EgoMotion(velocity=(0.0, 0.1)),
        )
        frames = make_scene(cfg, seed=12)
        spec = GridSpec()
        grid = heuristic_grid(frames[0].cloud, spec)
        result = generate_pseudo_labels(
            self._window(frames, cfg, 3), grid, spec,
            sampler_cfg=SamplerConfig(sample_count=120, seed=1),
        )
        gt = frames[0].gt_boxes[0].box
        vehicle_labels = [l for l in result.u_plus if l.anchor == "vehicle"]
        assert vehicle_labels
        assert max(rotated_iou_bev(l.box, gt) for l in vehicle_labels) >= 0.7
        # partition covers exactly the sampled pixels
        pixels = {l.pixel for l in result.u_plus} | {p for p, _ in result.u_minus}
        assert len(pixels) == 120
        assert all(0.0 <= l.confidence <= 1.0 for l in result.u_plus)
