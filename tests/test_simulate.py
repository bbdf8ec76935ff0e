import dataclasses
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from lidarpgt import simulate
from lidarpgt.dataset import load_sequence
from lidarpgt.errors import ConfigInvalid
from lidarpgt.geometry import CAMERA, LIDAR, CameraIntrinsics, backproject, project, yaw_matrix
from lidarpgt.simulate import (
    _OCCLUSION_MARGIN,
    _OCCLUSION_SPLAT_RADIUS,
    MAX_FRAME_POINTS,
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


def reference_splat_min(buffer, radius):
    """A sliding-window minimum of padded copies: the splat's reference."""
    out = buffer
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, constant_values=np.inf)
        out = sliding_window_view(padded, 2 * radius + 1, axis=axis).min(axis=-1)
    return out


def reference_render(xyz_cam, intrinsics):
    """The render's reference: a z-buffer over the whole image, a per-point
    cull, and each pixel's first nearest point found by np.unique."""
    h, w = intrinsics.height, intrinsics.width
    depth = np.zeros((h, w))
    owner = np.full((h, w), -1, dtype=int)
    idx = np.flatnonzero(xyz_cam[:, 2] > 0)
    if not len(idx):
        return depth, owner
    uv = project(xyz_cam[idx], intrinsics)
    cols = np.floor(uv[:, 0] + 0.5).astype(int)
    rows = np.floor(uv[:, 1] + 0.5).astype(int)
    in_img = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    idx, rows, cols = idx[in_img], rows[in_img], cols[in_img]
    z = xyz_cam[idx, 2]
    flat = rows * w + cols

    zbuf = np.full(h * w, np.inf)
    np.minimum.at(zbuf, flat, z)
    near = reference_splat_min(zbuf.reshape(h, w), _OCCLUSION_SPLAT_RADIUS).reshape(-1)
    visible = z <= near[flat] + _OCCLUSION_MARGIN
    idx, flat, z = idx[visible], flat[visible], z[visible]

    nearest = np.flatnonzero(z == zbuf[flat])
    winners = nearest[np.unique(flat[nearest], return_index=True)[1]]
    depth.reshape(-1)[flat[winners]] = z[winners]
    owner.reshape(-1)[flat[winners]] = idx[winners]
    return depth, owner


def assert_frames_equal(a, b):
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert np.array_equal(a.depth, b.depth) and a.depth.dtype == b.depth.dtype
    assert np.array_equal(a.flow, b.flow) and a.flow.dtype == b.flow.dtype
    assert np.array_equal(a.pose.rotation, b.pose.rotation)
    assert np.array_equal(a.pose.translation, b.pose.translation)
    assert len(a.gt_boxes) == len(b.gt_boxes)
    for ga, gb in zip(a.gt_boxes, b.gt_boxes):
        assert (ga.cls, ga.is_moving, ga.box.yaw, ga.box.frame) == (gb.cls, gb.is_moving, gb.box.yaw, gb.box.frame)
        assert np.array_equal(ga.box.centre, gb.box.centre)
        assert np.array_equal(ga.box.dims, gb.box.dims)


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


class TestPointLimit:
    """A scene whose frames would hold more than MAX_FRAME_POINTS is refused
    before any point is drawn, naming the density to lower."""

    @pytest.mark.parametrize(
        "objects, ground_density, key",
        [
            ([], 1e9, "ground_density"),
            ([SimObject("pedestrian", (0.0, 9.0)), SimObject("vehicle", (0.0, 12.0), density=1e9)], 20.0,
             "objects[1].density"),
            ([], 1e308, "ground_density"),  # the count overflows a float
        ],
    )
    def test_refused_without_allocating(self, objects, ground_density, key):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid, match=re.escape(f"{key}: ") + ".*MAX_FRAME_POINTS"):
                small_config(objects, ground_density=ground_density)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_counts_round_as_make_scene_draws(self):
        # 2e6 m² of ground: a density whose product rounds to the limit passes,
        # one whose product rounds one point past it does not
        extent = (0.0, 1000.0, 0.0, 2000.0)
        small_config([], ground_extent=extent, ground_density=1.00000024)
        with pytest.raises(ConfigInvalid, match="ground_density"):
            small_config([], ground_extent=extent, ground_density=1.00000026)

    def test_limit_fits_the_int32_owner_map(self):
        # the render's owner map holds point indices below the limit as int32
        assert MAX_FRAME_POINTS < 2**31
        depth, owner = _render_depth_with_owner(np.array([[0.0, 0.0, 5.0]]), INTR)
        assert (depth.dtype, owner.dtype) == (np.float32, np.int32)

    def test_objects_count_towards_the_frame(self):
        vehicle = SimObject("vehicle", (0.0, 12.0))
        n_vehicle = len(next(make_scene(small_config([vehicle], ground_density=0.0), seed=1)).cloud)
        area = 16.0 * 26.0  # small_config's ground extent
        small_config([vehicle], ground_density=(MAX_FRAME_POINTS - n_vehicle) / area)
        with pytest.raises(ConfigInvalid, match="ground_density"):
            small_config([vehicle], ground_density=(MAX_FRAME_POINTS - n_vehicle + 1) / area)


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
        (back,) = backproject(np.array([[float(c), float(r)]]), np.array([depth[r, c]]), INTR)
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

    @pytest.mark.parametrize(
        "shape, radius",
        [
            ((6, 9), 1),
            ((5, 7), 4),
            ((3, 3), 3),
            ((1, 20), 2),
            ((4, 2), 6),
            ((5, 7), 0),
            ((2, 3), 5),  # a window wider than both dimensions
            ((9, 40), 7),
        ],
    )
    def test_splat_min_equals_brute_force_window_min(self, shape, radius):
        rng = np.random.default_rng(shape[0] * 31 + shape[1] + radius)
        buf = rng.random(shape)
        buf[rng.random(shape) < 0.6] = np.inf
        h, w = shape
        for buf in (buf, np.full(shape, np.inf)):
            want = np.array(
                [
                    [
                        buf[max(0, r - radius) : r + radius + 1, max(0, c - radius) : c + radius + 1].min()
                        for c in range(w)
                    ]
                    for r in range(h)
                ]
            )
            assert np.array_equal(_splat_min(buf, radius), want)
            assert np.array_equal(reference_splat_min(buf, radius), want)

    def test_splat_min_equals_reference_on_a_full_frame(self):
        rng = np.random.default_rng(11)
        buf = np.full((448, 1600), np.inf)
        finite = rng.random(buf.shape) < 0.1
        buf[finite] = rng.uniform(2.0, 60.0, finite.sum())
        assert np.array_equal(
            _splat_min(buf, _OCCLUSION_SPLAT_RADIUS), reference_splat_min(buf, _OCCLUSION_SPLAT_RADIUS)
        )


def at_pixels(rows, cols, z, intr=INTR):
    """Camera-frame points at depths `z` that project onto the centres of the given pixels."""
    rows, cols, z = np.broadcast_arrays(np.asarray(rows, float), np.asarray(cols, float), np.asarray(z, float))
    return np.column_stack([(cols - intr.cx) * z / intr.fx, (rows - intr.cy) * z / intr.fy, z])


class TestRenderEqualsReference:
    """The bounding-box render gives the reference's depth and owner images exactly."""

    @staticmethod
    def check(pts_cam):
        depth, owner = _render_depth_with_owner(pts_cam, INTR)
        want_depth, want_owner = reference_render(pts_cam, INTR)
        assert np.array_equal(depth, want_depth)
        assert np.array_equal(owner, want_owner)
        return depth, owner

    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds_with_depth_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = 4000
        # few pixels and few depths: many points share a pixel, many tie at its nearest depth;
        # some fall off the image or behind the camera
        rows = rng.integers(-20, INTR.height + 20, n)
        cols = rng.integers(-20, INTR.width + 20, n) // 8 * 8
        z = rng.choice([3.0, 4.0, 4.0, 9.0, 11.0, 25.0, -2.0], n)
        pts = at_pixels(rows, cols, z)
        pts[z < 0] = [0.3, 0.1, -2.0]
        pts[: n // 4, :2] += rng.uniform(-0.002, 0.002, (n // 4, 2)) * pts[: n // 4, 2:]
        depth, owner = self.check(pts)
        assert (owner >= 0).sum() > 100

    @pytest.mark.parametrize(
        "edge", ["row 0", "row h-1", "column 0", "column w-1", "all four"]
    )
    def test_points_on_the_image_edges(self, edge):
        rng = np.random.default_rng(3)
        h, w = INTR.height, INTR.width
        along_row = rng.integers(0, w, 300)
        along_col = rng.integers(0, h, 300)
        sides = {
            "row 0": (np.zeros(300), along_row),
            "row h-1": (np.full(300, h - 1), along_row),
            "column 0": (along_col, np.zeros(300)),
            "column w-1": (along_col, np.full(300, w - 1)),
        }
        picked = sides.values() if edge == "all four" else [sides[edge]]
        rows = np.concatenate([r for r, _ in picked])
        cols = np.concatenate([c for _, c in picked])
        z = rng.choice([5.0, 5.0, 6.0, 20.0], len(rows))
        depth, owner = self.check(at_pixels(rows, cols, z))
        assert (owner >= 0).any()

    def test_single_in_image_point(self):
        off = at_pixels([-3, 10, INTR.height + 2], [5, INTR.width, 40], 7.0)
        pts = np.vstack([off, at_pixels(200, 333, 12.5), [[0.0, 0.0, -4.0]]])
        depth, owner = self.check(pts)
        assert depth[200, 333] == 12.5 and owner[200, 333] == 3
        assert (owner >= 0).sum() == 1

    def test_all_points_off_image(self):
        h, w = INTR.height, INTR.width
        pts = np.vstack(
            [
                at_pixels([-1, -50, h, h + 30, 5, 5], [10, 10, 10, 10, -1, w], 8.0),
                [[0.0, 0.0, -3.0], [1.0, 2.0, 0.0]],
            ]
        )
        depth, owner = self.check(pts)
        assert not depth.any() and (owner == -1).all()

    def test_scene_equals_one_built_with_the_references(self, monkeypatch):
        objects = [
            SimObject("vehicle", (1.0, 12.0), yaw=0.3, velocity=(0.3, 0.1), yaw_rate=0.05),
            SimObject("pedestrian", (-3.0, 9.0), velocity=(0.1, 0.2)),
            SimObject("cyclist", (4.0, 20.0), yaw=-0.4, velocity=(-0.2, -0.3)),
        ]
        cfg = small_config(objects, ego=EgoMotion(heading=0.1, velocity=(0.2, 0.4), yaw_rate=0.06))
        frames = list(make_scene(cfg, seed=13))
        monkeypatch.setattr(simulate, "_splat_min", reference_splat_min)
        monkeypatch.setattr(simulate, "_render_depth_with_owner", reference_render)
        for a, b in zip(frames, make_scene(cfg, seed=13), strict=True):
            # the reference renders float64 depth; compare at the stored float32 width
            b.depth = b.depth.astype(np.float32)
            assert_frames_equal(a, b)


def world_points(frame, cfg):
    """A frame's cloud back in the world frame."""
    return frame.pose.apply(simulate.LIDAR_TO_CAM.apply(frame.cloud.xyz))


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
            assert np.allclose(frame.pose.apply(simulate.LIDAR_TO_CAM.apply(box.centre)), centre, atol=1e-9)
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


    def test_frames_hold_the_rasters_as_stored(self, tmp_path):
        cfg = small_config([SimObject("vehicle", (1.0, 12.0), velocity=(0.3, 0.1), yaw_rate=0.05)])
        frames = list(make_scene(cfg, seed=8))
        write_scene(frames, cfg, tmp_path / "seq", seed=8)
        seq = load_sequence(tmp_path / "seq")
        for t, frame in enumerate(frames):
            assert frame.depth.dtype == frame.flow.dtype == np.float32
            for stored, held in ((seq.read_depth(t), frame.depth), (seq.read_flow(t), frame.flow)):
                assert stored.dtype == held.dtype and np.array_equal(stored, held)
        assert frames[0].flow.any()


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
        assert len(first.gt_boxes) == 2
        assert_frames_equal(first, listed)

    def test_a_yielded_frame_is_not_held_while_the_next_is_built(self, monkeypatch):
        frames = make_scene(self.config(3), seed=7)
        first = next(frames)
        held = [weakref.ref(first.depth), weakref.ref(first.flow)]
        del first
        render = simulate._render_depth_with_owner

        def checked(*args):
            assert all(ref() is None for ref in held)
            return render(*args)

        monkeypatch.setattr(simulate, "_render_depth_with_owner", checked)
        next(frames)

    def test_write_scene_holds_no_frame_it_wrote(self, tmp_path):
        cfg = self.config(3)
        built = list(make_scene(cfg, seed=7))
        held = []

        def fresh_frames():
            for frame in built:
                # held only by write_scene once handed over
                assert all(ref() is None for ref in held)
                copy = dataclasses.replace(frame, depth=frame.depth.copy(), flow=frame.flow.copy())
                held[:] = [weakref.ref(copy.depth), weakref.ref(copy.flow)]
                yield copy
                del copy

        write_scene(fresh_frames(), cfg, tmp_path / "seq", seed=7)

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
