import math

import numpy as np
import pytest

from lidarpgt.errors import NonPositiveDepth
from lidarpgt.geometry import (
    AABB2,
    CAMERA,
    LIDAR,
    CameraIntrinsics,
    Obb3,
    PointCloud,
    RigidTransform,
    backproject,
    canonical_yaw,
    iou_2d,
    kitti_lidar_to_camera,
    polygon_area,
    project,
    rotated_iou_bev,
    transform_obb,
    yaw_matrix,
)


def rot_y(angle):
    return RigidTransform(yaw_matrix(CAMERA, angle), np.zeros(3))


def random_transform(rng):
    angle = rng.uniform(-math.pi, math.pi)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    return RigidTransform(rot, rng.normal(scale=3.0, size=3))


class TestRigidTransform:
    def test_compose_identity(self):
        rng = np.random.default_rng(0)
        t = random_transform(rng)
        out = t.compose(RigidTransform.identity())
        assert np.allclose(out.rotation, t.rotation, atol=1e-12)
        assert np.allclose(out.translation, t.translation, atol=1e-12)

    def test_inverse_law(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = random_transform(rng)
            eye = t.invert().compose(t)
            assert np.abs(eye.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(eye.translation).max() < 1e-9

    def test_rotation_group_same_axis(self):
        a = rot_y(math.radians(30))
        b = rot_y(math.radians(60))
        assert np.allclose(a.compose(b).rotation, rot_y(math.radians(90)).rotation, atol=1e-12)

    def test_compose_application_order(self):
        rng = np.random.default_rng(2)
        a, b = random_transform(rng), random_transform(rng)
        p = rng.normal(size=3)
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(3)
        t = random_transform(rng)
        for _ in range(50):
            t = t.compose(random_transform(rng))
        assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @pytest.mark.parametrize("where", [(0, 0), (1, 2), "translation"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, where, value):
        rot, tra = np.eye(3), np.zeros(3)
        if where == "translation":
            tra[1] = value
        else:
            rot[where] = value
        with pytest.raises(ValueError):
            RigidTransform(rot, tra)


class TestProjection:
    def setup_method(self):
        self.k = CameraIntrinsics(700.0, 700.0, 620.0, 187.0, 1242, 375)

    @pytest.mark.parametrize(
        "values",
        [
            (math.nan, 700.0, 620.0, 187.0),
            (700.0, math.inf, 620.0, 187.0),
            (700.0, 700.0, math.nan, 187.0),
            (700.0, 700.0, 620.0, math.nan),
            (0.0, 700.0, 620.0, 187.0),
        ],
    )
    def test_intrinsics_reject_non_finite_or_non_positive(self, values):
        with pytest.raises(ValueError):
            CameraIntrinsics(*values, 1242, 375)

    def test_optical_axis(self):
        uv = project(np.array([[0.0, 0.0, 5.0]]), self.k)
        assert np.allclose(uv, [[620.0, 187.0]])

    def test_unit_geometry(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 200, 200)
        assert np.allclose(project(np.array([[1.0, 0.0, 1.0]]), k), [[150.0, 50.0]])

    def test_direct_arithmetic(self):
        # fx*x/z + cx = 700*0.5/2 + 620, fy*y/z + cy = 700*(-0.25)/2 + 187
        uv = project(np.array([[0.5, -0.25, 2.0]]), self.k)
        assert np.allclose(uv, [[795.0, 99.5]], atol=1e-12)

    def test_rejects_non_positive_depth(self):
        with pytest.raises(NonPositiveDepth):
            project(np.array([[0.0, 0.0, 0.0]]), self.k)
        with pytest.raises(NonPositiveDepth):
            project(np.array([[1.0, 1.0, -2.0]]), self.k)

    def test_backproject_optical_axis(self):
        p = backproject(np.array([[620.0, 187.0]]), np.array([3.5]), self.k)
        assert np.allclose(p, [[0.0, 0.0, 3.5]])

    def test_backproject_direct(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 200, 200)
        assert np.allclose(backproject(np.array([[150.0, 50.0]]), np.array([2.0]), k), [[2.0, 0.0, 2.0]])

    def test_backproject_rejects_bad_depth(self):
        with pytest.raises(NonPositiveDepth):
            backproject(np.array([[10.0, 10.0]]), np.array([0.0]), self.k)

    def test_mutual_inverse(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack(
            [rng.uniform(-5, 5, 100), rng.uniform(-3, 3, 100), rng.uniform(0.5, 40, 100)]
        )
        uv = project(pts, self.k)
        back = backproject(uv, pts[:, 2], self.k)
        assert np.abs(back - pts).max() < 1e-9
        again = project(back, self.k)
        assert np.abs(again - uv).max() < 1e-9


class TestObb3:
    def test_yaw_canonicalized(self):
        box = Obb3((0, 0, 0), (1, 1, 1), math.pi * 0.75, CAMERA)
        assert -math.pi / 2 < box.yaw <= math.pi / 2
        assert box.yaw == pytest.approx(-math.pi * 0.25)

    def test_boundary_maps_to_positive_half(self):
        assert canonical_yaw(-math.pi / 2) == pytest.approx(math.pi / 2)
        assert canonical_yaw(math.pi / 2) == pytest.approx(math.pi / 2)

    def test_rejects_non_positive_dims(self):
        with pytest.raises(ValueError):
            Obb3((0, 0, 0), (1.0, 0.0, 1.0), 0.0, CAMERA)

    def test_corners_axis_aligned(self):
        box = Obb3((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), 0.0, CAMERA)
        corners = box.corners()
        assert corners.shape == (8, 3)
        assert np.allclose(corners.min(axis=0), [0.0, 0.0, 0.0])
        assert np.allclose(corners.max(axis=0), [2.0, 4.0, 6.0])

    def test_footprint_area_matches_dims(self):
        rng = np.random.default_rng(5)
        for frame in (CAMERA, LIDAR):
            for _ in range(20):
                dims = rng.uniform(0.2, 5.0, 3)
                box = Obb3(rng.normal(size=3), dims, rng.uniform(-2, 2), frame)
                planar = dims[0] * (dims[2] if frame == CAMERA else dims[1])
                assert polygon_area(box.footprint()) == pytest.approx(planar)


class TestRotatedIouBev:
    def test_identical(self):
        box = Obb3((1.0, 0.0, 8.0), (2.0, 1.5, 4.0), 0.4, CAMERA)
        assert rotated_iou_bev(box, box) == 1.0

    def test_disjoint(self):
        a = Obb3((0, 0, 0), (1, 1, 1), 0.0, LIDAR)
        b = Obb3((10.0, 0, 0), (1, 1, 1), 0.0, LIDAR)
        assert rotated_iou_bev(a, b) == 0.0

    def test_half_offset_squares(self):
        a = Obb3((0, 0, 0), (1, 1, 1), 0.0, LIDAR)
        b = Obb3((0.5, 0, 0), (1, 1, 1), 0.0, LIDAR)
        assert rotated_iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rotated_square_45deg(self):
        a = Obb3((0, 0, 0), (1, 1, 1), 0.0, CAMERA)
        b = Obb3((0, 0, 0), (1, 1, 1), math.pi / 4, CAMERA)
        # octagon intersection: area 2*(sqrt(2)-1), union 2 - that
        inter = 2 * (math.sqrt(2) - 1)
        assert rotated_iou_bev(a, b) == pytest.approx(inter / (2 - inter), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = Obb3(rng.normal(scale=2, size=3), rng.uniform(0.3, 4, 3), rng.uniform(-2, 2), LIDAR)
            b = Obb3(
                a.centre + rng.normal(scale=1.0, size=3),
                rng.uniform(0.3, 4, 3),
                rng.uniform(-2, 2),
                LIDAR,
            )
            assert rotated_iou_bev(a, b) == pytest.approx(rotated_iou_bev(b, a), abs=1e-12)

    def test_axis_aligned_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ca, cb = rng.normal(scale=1.5, size=(2, 3))
            da, db = rng.uniform(0.3, 3.0, size=(2, 3))
            a = Obb3(ca, da, 0.0, LIDAR)
            b = Obb3(cb, db, 0.0, LIDAR)
            expected = iou_2d(
                AABB2(ca[:2] - da[:2] / 2, ca[:2] + da[:2] / 2),
                AABB2(cb[:2] - db[:2] / 2, cb[:2] + db[:2] / 2),
            )
            assert rotated_iou_bev(a, b) == pytest.approx(expected, abs=1e-9)

    def test_invariant_under_common_planar_motion(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = Obb3(rng.normal(scale=2, size=3), rng.uniform(0.3, 4, 3), rng.uniform(-2, 2), LIDAR)
            b = Obb3(
                a.centre + rng.normal(scale=1.0, size=3),
                rng.uniform(0.3, 4, 3),
                rng.uniform(-2, 2),
                LIDAR,
            )
            base = rotated_iou_bev(a, b)
            angle = rng.uniform(-math.pi, math.pi)
            shift = rng.normal(scale=5.0, size=3)
            shift[2] = 0.0
            rt = RigidTransform(yaw_matrix(LIDAR, angle), shift)
            a2 = transform_obb(a, rt, LIDAR)
            b2 = transform_obb(b, rt, LIDAR)
            assert rotated_iou_bev(a2, b2) == pytest.approx(base, abs=1e-6)

    def test_frame_mismatch_rejected(self):
        a = Obb3((0, 0, 0), (1, 1, 1), 0.0, LIDAR)
        b = Obb3((0, 0, 0), (1, 1, 1), 0.0, CAMERA)
        with pytest.raises(ValueError):
            rotated_iou_bev(a, b)


class TestIou2d:
    def test_identical(self):
        a = AABB2((0, 0), (2, 2))
        assert iou_2d(a, a) == 1.0

    def test_disjoint(self):
        assert iou_2d(AABB2((0, 0), (1, 1)), AABB2((5, 5), (6, 6))) == 0.0

    def test_known_overlap(self):
        a = AABB2((0, 0), (2, 2))
        b = AABB2((1, 1), (3, 3))
        assert iou_2d(a, b) == pytest.approx(1.0 / 7.0)


class TestTransformObb:
    def test_camera_lidar_round_trip(self):
        rng = np.random.default_rng(9)
        s = kitti_lidar_to_camera()
        for _ in range(50):
            box = Obb3(
                rng.normal(scale=3, size=3) + [0, 0, 10],
                rng.uniform(0.3, 4, 3),
                rng.uniform(-2, 2),
                CAMERA,
            )
            lidar_box = transform_obb(box, s.invert(), LIDAR)
            back = transform_obb(lidar_box, s, CAMERA)
            assert np.allclose(back.centre, box.centre, atol=1e-9)
            assert np.allclose(back.dims, box.dims, atol=1e-9)
            assert back.yaw == pytest.approx(box.yaw, abs=1e-9)

    def test_corners_map_consistently(self):
        """Every (source, target) frame pair; distinct extents pin which source
        extent lands on which target axis."""
        cases = [
            (CAMERA, LIDAR, kitti_lidar_to_camera().invert()),
            (LIDAR, CAMERA, kitti_lidar_to_camera()),
            (CAMERA, CAMERA, RigidTransform(yaw_matrix(CAMERA, 0.4), (2.0, -1.0, 3.0))),
            (LIDAR, LIDAR, RigidTransform(yaw_matrix(LIDAR, -1.1), (-3.0, 2.0, 0.5))),
        ]
        for source, target, rt in cases:
            box = Obb3((1.0, 0.5, 9.0), (1.8, 1.6, 4.5), 0.7, source)
            moved = transform_obb(box, rt, target)
            assert moved.frame == target
            mapped = rt.apply(box.corners())
            got = moved.corners()
            # corner order may differ; compare as sets via sorted lexicographic order
            mapped = mapped[np.lexsort(mapped.T)]
            got = got[np.lexsort(got.T)]
            assert np.abs(mapped - got).max() < 1e-9, (source, target)

    def test_rejects_tilting_transform(self):
        tilt = RigidTransform(
            np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float), np.zeros(3)
        )
        box = Obb3((0, 0, 5), (1, 1, 1), 0.0, CAMERA)
        with pytest.raises(ValueError):
            transform_obb(box, tilt, CAMERA)


class TestPointCloud:
    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, 0.0, 1.5]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.nan, 0.0, 0.0, 0.5]]))

    def test_empty_is_fine(self):
        cloud = PointCloud(np.zeros((0, 4)))
        assert len(cloud) == 0
