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
    canonical_yaw,
    kitti_lidar_to_camera,
    project,
    yaw_matrix,
)
from lidarpgt.pipeline import (
    Anchor,
    _crop_rows,
    _cylinder_mask,
    _fit,
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


class TestCropRows:
    """The bucket crop index keeps exactly the rows a full-cloud scan keeps."""

    def check(self, cloud_cam, centres, anchors=None):
        anchors = anchors or default_anchors()
        crops = _crop_rows(cloud_cam, centres, anchors)
        assert len(crops) == len(centres)
        for centre, per_anchor in zip(centres, crops):
            assert len(per_anchor) == len(anchors)
            for anchor, rows in zip(anchors, per_anchor):
                full = np.flatnonzero(_cylinder_mask(cloud_cam, centre, anchor))
                assert rows.dtype == full.dtype
                assert np.array_equal(rows, full)
        return crops

    @pytest.mark.parametrize("sizes", [None, (0.5, 3.0), (2.0, 5.0)])
    def test_points_on_and_one_ulp_around_the_radius(self, sizes):
        # random anchor sizes vary the low bits of the slab half-width, which
        # decide whether rounding cx +- r_max moves the slab edge inwards
        rng = np.random.default_rng(7)
        anchors = None if sizes is None else [Anchor(str(i), rng.uniform(*sizes, 3)) for i in range(3)]
        centres, pts = [], []
        for cx in [0.0, 0.3, -7.25, 123.456, -1e3 / 3, *rng.uniform(-3, 3, 20), *rng.uniform(-60, 60, 20)]:
            centre = np.array([cx, 0.5, 10.0])
            centres.append(centre)
            for anchor in anchors or default_anchors():
                for side in (-1.0, 1.0):
                    edge = cx + side * anchor.crop_radius()
                    for x in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
                        pts.append((x, 0.5, 10.0))
                        pts.append((x, rng.uniform(-0.5, 1.5), 10.0 + rng.uniform(-1e-6, 1e-6)))
        cloud_cam = np.array(pts)[rng.permutation(len(pts))]
        crops = self.check(cloud_cam, centres, anchors)
        # the boundary is exercised: some edge points are in, some are out
        assert all(0 < len(per_anchor[-1]) < len(pts) for per_anchor in crops)

    def test_duplicate_x_values_keep_cloud_order(self):
        rng = np.random.default_rng(8)
        cloud_cam = rng.uniform((-6, -1, 4), (6, 2, 20), size=(3000, 3))
        cloud_cam[:, 0] = np.round(cloud_cam[:, 0], 1)
        centres = [np.array([x, 0.5, z]) for x, z in rng.uniform((-6, 4), (6, 20), size=(40, 2))]
        centres.append(np.array([0.2, 0.5, 12.0]))  # centre x equal to many points' x
        crops = self.check(cloud_cam, centres)
        assert any(len(rows) > 10 for per_anchor in crops for rows in per_anchor)

    def test_centres_outside_the_cloud_x_span(self):
        rng = np.random.default_rng(9)
        cloud_cam = rng.uniform((-5, -1, 4), (5, 2, 20), size=(500, 3))
        r_max = max(a.crop_radius() for a in default_anchors())
        xs = [-50.0, 50.0, -5.0 - r_max, 5.0 + r_max, cloud_cam[:, 0].min() - 1.0, cloud_cam[:, 0].max() + 1.0]
        self.check(cloud_cam, [np.array([x, 0.5, 10.0]) for x in xs])

    def test_empty_cloud(self):
        crops = self.check(np.zeros((0, 3)), [np.array([0.0, 0.5, 10.0]), np.array([3.0, 0.0, 5.0])])
        assert all(len(rows) == 0 for per_anchor in crops for rows in per_anchor)

    def test_points_on_bucket_boundaries(self):
        # the bucket side as _crop_rows derives it; two far points fix the extent
        anchors = default_anchors()
        r_max = max(a.crop_radius() for a in anchors)
        extent = 40.0
        width = r_max + 1e-9 * (1.0 + extent + r_max)
        rng = np.random.default_rng(10)
        pts = [(extent, 0.5, extent), (-extent, 0.5, -extent)]
        edges = [i * width for i in range(-6, 7)]
        for x in edges:
            for z in edges:
                for dx in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
                    for dz in (np.nextafter(z, -np.inf), z, np.nextafter(z, np.inf)):
                        pts.append((dx, rng.uniform(-0.5, 1.5), dz))
        cloud_cam = np.array(pts)[rng.permutation(len(pts))]
        centres = [np.array([x, 0.5, z]) for x in edges[::2] for z in edges[1::3]]
        # centres whose crop edge falls on a bucket edge, or one ulp beside it
        for a in anchors:
            for edge in edges[4:9]:
                for cx in (edge + a.crop_radius(), edge - a.crop_radius()):
                    for c in (np.nextafter(cx, -np.inf), cx, np.nextafter(cx, np.inf)):
                        centres.append(np.array([c, 0.5, edge]))
                        centres.append(np.array([edge, 0.5, c]))
        crops = self.check(cloud_cam, centres, anchors)
        assert all(len(per_anchor[-1]) > 0 for per_anchor in crops)

    def test_negative_coordinates(self):
        rng = np.random.default_rng(11)
        cloud_cam = rng.uniform((-30, -1, -30), (-0.5, 2, -0.5), size=(3000, 3))
        centres = [np.array([x, 0.5, z]) for x, z in rng.uniform((-31, -31), (0.5, 0.5), size=(60, 2))]
        crops = self.check(cloud_cam, centres)
        assert any(len(rows) > 10 for per_anchor in crops for rows in per_anchor)

    def test_centres_outside_the_cloud_z_span(self):
        rng = np.random.default_rng(12)
        cloud_cam = rng.uniform((-5, -1, 4), (5, 2, 20), size=(500, 3))
        r_max = max(a.crop_radius() for a in default_anchors())
        zs = [-50.0, 80.0, 4.0 - r_max, 20.0 + r_max, cloud_cam[:, 2].min() - 1.0, cloud_cam[:, 2].max() + 1.0,
              cloud_cam[:, 2].min() - 3 * r_max, cloud_cam[:, 2].max() + 3 * r_max, -1e200, 1e200]
        self.check(cloud_cam, [np.array([x, 0.5, z]) for z in zs for x in (-1e200, -6.0, 0.0, 6.0, 60.0)])

    def test_cloud_in_a_single_bucket(self):
        rng = np.random.default_rng(13)
        cloud_cam = rng.uniform((0.1, -1, 10.1), (0.3, 2, 10.3), size=(400, 3))
        xs = [-5.0, -2.5, -1.0, 0.2, 1.0, 2.5, 5.0]
        crops = self.check(cloud_cam, [np.array([x, 0.5, z]) for x in xs for z in (5.0, 8.0, 10.2, 12.0, 15.0)])
        assert any(len(per_anchor[0]) > 0 for per_anchor in crops)
        assert any(len(per_anchor[-1]) == 0 for per_anchor in crops)


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


def reference_sample_flow(flow, valid, u, v):
    """The tracker's flow lookup as it was written before the shared window kernel."""
    h, w = valid.shape
    c0 = np.floor(u).astype(int)
    r0 = np.floor(v).astype(int)
    fu = u - c0
    fv = v - r0
    cand_r = np.stack([r0, r0, r0 + 1, r0 + 1], axis=1)
    cand_c = np.stack([c0, c0 + 1, c0, c0 + 1], axis=1)
    in_img = (cand_r >= 0) & (cand_r < h) & (cand_c >= 0) & (cand_c < w)
    rr = np.clip(cand_r, 0, h - 1)
    cc = np.clip(cand_c, 0, w - 1)
    usable = in_img & valid[rr, cc]
    out = np.zeros((len(u), 2))
    ok = usable.any(axis=1)
    all_four = usable.all(axis=1)
    if all_four.any():
        idx = np.flatnonzero(all_four)
        w00 = (1 - fu[idx]) * (1 - fv[idx])
        w01 = fu[idx] * (1 - fv[idx])
        w10 = (1 - fu[idx]) * fv[idx]
        w11 = fu[idx] * fv[idx]
        out[idx] = (
            flow[rr[idx, 0], cc[idx, 0]] * w00[:, None]
            + flow[rr[idx, 1], cc[idx, 1]] * w01[:, None]
            + flow[rr[idx, 2], cc[idx, 2]] * w10[:, None]
            + flow[rr[idx, 3], cc[idx, 3]] * w11[:, None]
        )
    partial = ok & ~all_four
    if partial.any():
        idx = np.flatnonzero(partial)
        d2 = (cand_r[idx] - v[idx, None]) ** 2 + (cand_c[idx] - u[idx, None]) ** 2
        d2[~usable[idx]] = np.inf
        pick = np.argmin(d2, axis=1)
        out[idx] = flow[rr[idx, pick], cc[idx, pick]]
    return out, ok


def reference_scan_depth_window(depth, u, v, rows, cols, radius):
    h, w = depth.shape
    n = len(u)
    span = np.arange(-radius, radius + 1)
    size = len(span)
    win_r = np.broadcast_to(rows[:, None, None] + span[None, :, None], (n, size, size))
    win_c = np.broadcast_to(cols[:, None, None] + span[None, None, :], (n, size, size))
    in_img = (win_r >= 0) & (win_r < h) & (win_c >= 0) & (win_c < w)
    rr = np.clip(win_r, 0, h - 1)
    ww = np.clip(win_c, 0, w - 1)
    usable = in_img & (depth[rr, ww] > 0)
    d2 = (win_r - v[:, None, None]) ** 2 + (win_c - u[:, None, None]) ** 2
    d2 = np.where(usable, d2, np.inf).reshape(n, -1)
    pick = np.argmin(d2, axis=1)
    ar = np.arange(n)
    return rr.reshape(n, -1)[ar, pick], ww.reshape(n, -1)[ar, pick], d2[ar, pick]


def reference_nearest_valid_depth(depth, u, v, radius=7):
    """The tracker's depth snap as it was written before the shared window kernel."""
    rows = np.floor(v + 0.5).astype(int)
    cols = np.floor(u + 0.5).astype(int)
    best_r, best_c, best_d2 = reference_scan_depth_window(depth, u, v, rows, cols, 1)
    unresolved = ~(best_d2 < 2.25)
    if unresolved.any():
        idx = np.flatnonzero(unresolved)
        fr, fc, fd2 = reference_scan_depth_window(depth, u[idx], v[idx], rows[idx], cols[idx], radius)
        best_r[idx], best_c[idx], best_d2[idx] = fr, fc, fd2
    return best_r, best_c, depth[best_r, best_c], np.isfinite(best_d2)


class TestTrackerWindowSearch:
    """Flow lookup and depth snap equal the earlier per-caller searches bit for bit."""

    @pytest.fixture(scope="class")
    def scene(self):
        from lidarpgt.simulate import EgoMotion, SimConfig, SimObject, make_scene

        cfg = SimConfig(
            n_frames=2,
            objects=[SimObject("vehicle", (2.0, 14.0), yaw=0.5, velocity=(0.3, 0.8))],
            intrinsics=INTR,
            ground_extent=(-10.0, 10.0, 4.0, 40.0),
            ego=EgoMotion(velocity=(0.0, 0.1)),
        )
        frames = make_scene(cfg, seed=12)
        cam = cfg.lidar_to_cam.apply(frames[0].cloud.xyz)
        cam = cam[cam[:, 2] > 0]
        u = INTR.fx * cam[:, 0] / cam[:, 2] + INTR.cx
        v = INTR.fy * cam[:, 1] / cam[:, 2] + INTR.cy
        # the scene's points, those points advanced by the flow, and points
        # off the image, on half-pixel ties and at and beyond the borders
        h, w = INTR.height, INTR.width
        pixel = np.clip(np.floor(v).astype(int), 0, h - 1), np.clip(np.floor(u).astype(int), 0, w - 1)
        flow = frames[0].flow[pixel]
        rng = np.random.default_rng(4)
        ties_r = rng.integers(0, h, 400) + rng.choice([0.0, 0.5], 400)
        ties_c = rng.integers(0, w, 400) + rng.choice([0.0, 0.5], 400)
        near = np.array([-40.0, -7.5, -1.5, -1.0, -0.5, -0.25, 0.0, 0.5])
        edge_c, edge_r = np.meshgrid(np.r_[near, w - 1 - near], np.r_[near, h - 1 - near])
        edge_rows = np.r_[edge_r.ravel(), rng.uniform(-10, h + 10, 300), rng.uniform(0, h, 300)]
        edge_cols = np.r_[edge_c.ravel(), rng.uniform(0, w, 300), rng.uniform(-10, w + 10, 300)]
        u = np.concatenate([u, u + flow[:, 0], ties_c, edge_cols])
        v = np.concatenate([v, v + flow[:, 1], ties_r, edge_rows])
        return frames, u, v

    def valid_masks(self, depth):
        """The scene's own mask, a thinned one with empty windows and a
        checkerboard, on which a column-major scan breaks ties differently."""
        rng = np.random.default_rng(9)
        rows, cols = np.indices(depth.shape)
        return {
            "scene": depth > 0,
            "thinned": (depth > 0) & (rng.random(depth.shape) < 0.01),
            "checkerboard": (rows + cols) % 2 == 1,
        }

    def test_flow_lookup_equals_reference(self, scene):
        from lidarpgt.pipeline import _sample_flow

        frames, u, v = scene
        flow = frames[0].flow
        for name, valid in self.valid_masks(frames[0].depth).items():
            out, ok = _sample_flow(flow, valid, u, v)
            ref_out, ref_ok = reference_sample_flow(flow, valid, u, v)
            assert np.array_equal(ok, ref_ok), name
            assert np.array_equal(out[ok], ref_out[ok]), name
            assert ok.any() and not ok.all(), name
        # the scene's mask exercises both the bilinear and the nearest branch
        valid = frames[0].depth > 0
        c0, r0 = np.floor(u).astype(int), np.floor(v).astype(int)
        inside = (r0 >= 0) & (r0 < valid.shape[0] - 1) & (c0 >= 0) & (c0 < valid.shape[1] - 1)
        four = np.zeros_like(inside)
        r, c = r0[inside], c0[inside]
        four[inside] = valid[r, c] & valid[r, c + 1] & valid[r + 1, c] & valid[r + 1, c + 1]
        assert four.any() and (ok & ~four).any()

    def test_depth_snap_equals_reference(self, scene):
        from lidarpgt.pipeline import _nearest_valid_depth

        frames, u, v = scene
        for name, valid in self.valid_masks(frames[1].depth).items():
            depth = np.where(valid, np.abs(frames[1].depth) + 1.0, 0.0)
            got = _nearest_valid_depth(depth, valid, u, v)
            ref = reference_nearest_valid_depth(depth, u, v)
            for field, a, b in zip(("rows", "cols", "depths", "ok"), got, ref):
                assert np.array_equal(a, b), (name, field)
            rows, cols, _, ok = got
            d2 = (rows - v) ** 2 + (cols - u) ** 2
            # some points resolve in the 3x3 pre-pass, some only in the full window
            assert (ok & (d2 < 2.25)).any() and (ok & (d2 >= 2.25)).any(), name
            assert (~ok).any() or name == "checkerboard", name


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


def reference_fit_obb(points) -> Obb3:
    """The box fit written out with np.mean and axis-0 extents, as the oracle."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 3:
        raise DegenerateInput(f"box fitting needs >= 3 points, got {len(pts)}")
    centre = pts.mean(axis=0)
    centred = pts - centre
    cov = centred.T @ centred / len(pts)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] <= 1e-10 * max(vals[2], 1e-10):
        raise DegenerateInput("point covariance is rank-deficient")
    e = vecs[:, 2]
    yaw = canonical_yaw(math.atan2(e[2], e[0]))
    local = centred @ yaw_matrix(CAMERA, yaw)
    dims = local.max(axis=0) - local.min(axis=0)
    if dims[0] > dims[2]:
        dims = dims[[2, 1, 0]]
        yaw = canonical_yaw(yaw + 0.5 * math.pi)
    return Obb3(centre, dims, yaw, CAMERA)


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

    def _vehicle_scene(self):
        from lidarpgt.simulate import EgoMotion, SimConfig, SimObject, make_scene

        cfg = SimConfig(
            n_frames=5,
            objects=[SimObject("vehicle", (2.0, 14.0), yaw=0.5, velocity=(0.3, 0.8))],
            intrinsics=CameraIntrinsics(700.0, 700.0, 621.0, 187.0, 1242, 416),
            ground_extent=(-10.0, 10.0, 4.0, 40.0),
            ego=EgoMotion(velocity=(0.0, 0.1)),
        )
        return cfg, make_scene(cfg, seed=12)

    def test_single_moving_vehicle_gets_vehicle_label(self):
        from lidarpgt.bev import GridSpec
        from lidarpgt.geometry import rotated_iou_bev
        from lidarpgt.pipeline import generate_pseudo_labels
        from lidarpgt.proposals import heuristic_grid
        from lidarpgt.sampling import SamplerConfig

        cfg, frames = self._vehicle_scene()
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

    def test_union_tracking_equals_per_crop_tracking(self):
        cfg, frames = self._vehicle_scene()
        window = self._window(frames, cfg, 3)
        cloud_cam = cfg.lidar_to_cam.apply(window.cloud.xyz)
        vehicle = cfg.lidar_to_cam.apply(frames[0].gt_boxes[0].box.centre)
        crops = []
        for dx, dz, radius in [(0, 0, 2.5), (0.5, -0.5, 1.0), (6, 3, 2.0), (-1, 0, 4.0), (0, 8, 0.3)]:
            dist = np.hypot(cloud_cam[:, 0] - vehicle[0] - dx, cloud_cam[:, 2] - vehicle[2] - dz)
            crops.append(np.flatnonzero(dist < radius))
        union = np.unique(np.concatenate(crops))
        inputs = (window.flows, window.depths, window.poses, 3, window.intrinsics)
        together = track_points(cloud_cam[union], *inputs)
        # the union mixes surviving and dying tracks
        assert together.alive[3].any() and not together.alive[3].all()
        for rows in crops:
            assert len(rows) >= 3
            alone = track_points(cloud_cam[rows], *inputs)
            at = np.searchsorted(union, rows)
            assert np.array_equal(alone.positions, together.positions[:, at])
            assert np.array_equal(alone.alive, together.alive[:, at])
            for k in range(4):
                assert np.array_equal(alone.point_set(k), together.positions[k, at][together.alive[k, at]])

    def test_fit_kernel_equals_fit_obb_on_every_fitted_set(self, monkeypatch):
        import lidarpgt.pipeline as pipeline
        from lidarpgt.bev import GridSpec
        from lidarpgt.proposals import heuristic_grid
        from lidarpgt.sampling import SamplerConfig

        cfg, frames = self._vehicle_scene()
        spec = GridSpec()
        fitted = []

        def recording(pts):
            fitted.append(pts.copy())
            return _fit(pts)

        monkeypatch.setattr(pipeline, "_fit", recording)
        pipeline.generate_pseudo_labels(
            self._window(frames, cfg, 3), heuristic_grid(frames[0].cloud, spec), spec,
            sampler_cfg=SamplerConfig(sample_count=120, seed=1),
        )
        monkeypatch.undo()
        swapped = degenerate = 0
        for pts in fitted:
            fit = _fit(pts)
            try:
                expected = reference_fit_obb(pts)
            except DegenerateInput:
                assert fit is None
                with pytest.raises(DegenerateInput):
                    fit_obb(pts)
                degenerate += 1
                continue
            for box in (fit, fit_obb(pts)):
                assert np.array_equal(box.centre, expected.centre)
                assert np.array_equal(box.dims, expected.dims)
                assert box.yaw == expected.yaw
            e = principal_direction(pts)
            swapped += fit.yaw != canonical_yaw(math.atan2(e[2], e[0]))
        assert len(fitted) - degenerate > 500 and degenerate > 0 and swapped > 0

    @pytest.mark.parametrize(
        "pts",
        [
            np.zeros((0, 3)),
            np.array([[1.0, 2.0, 3.0]]),
            np.array([[1.0, 2.0, 3.0], [2.0, 2.5, 5.0]]),
            np.array([[0.0, 0.0, 5.0], [1.0, 0.5, 6.0], [2.0, 1.0, 7.0], [3.0, 1.5, 8.0]]),  # collinear
            np.tile([[0.3, 1.1, 9.0]], (6, 1)),  # coincident
            np.column_stack([np.arange(5.0), np.full(5, 0.7), np.arange(5.0) ** 2]),  # planar
        ],
    )
    def test_fit_kernel_degenerate_exactly_where_fit_obb_raises(self, pts):
        assert _fit(pts) is None
        with pytest.raises(DegenerateInput):
            fit_obb(pts)

    def test_tracks_once_per_frame(self, monkeypatch):
        import lidarpgt.pipeline as pipeline
        from lidarpgt.bev import GridSpec
        from lidarpgt.proposals import heuristic_grid
        from lidarpgt.sampling import SamplerConfig

        cfg, frames = self._vehicle_scene()
        spec = GridSpec()
        calls = []

        def counting(points, *args):
            calls.append(len(points))
            return track_points(points, *args)

        monkeypatch.setattr(pipeline, "track_points", counting)
        result = pipeline.generate_pseudo_labels(
            self._window(frames, cfg, 3), heuristic_grid(frames[0].cloud, spec), spec,
            sampler_cfg=SamplerConfig(sample_count=120, seed=1),
        )
        assert len(calls) == 1
        assert calls[0] > 0 and result.u_plus

    @pytest.mark.parametrize("short", ["depths", "flows", "poses"])
    def test_short_window_rejected_without_usable_crops(self, short):
        from dataclasses import replace

        from lidarpgt.bev import GridSpec
        from lidarpgt.pipeline import generate_pseudo_labels
        from lidarpgt.proposals import heuristic_grid
        from lidarpgt.sampling import SamplerConfig

        cfg, frames = self._vehicle_scene()
        window = self._window(frames, cfg, 3)
        window = replace(window, cloud=PointCloud(np.zeros((0, 4)), LIDAR))
        setattr(window, short, getattr(window, short)[:-1])
        spec = GridSpec()
        with pytest.raises(MissingFrameData):
            generate_pseudo_labels(
                window, heuristic_grid(window.cloud, spec), spec,
                sampler_cfg=SamplerConfig(sample_count=10, seed=0),
            )
