import json
import math
import re

import numpy as np
import pytest

from lidarpgt.bev import BoxGrid, GridSpec
from lidarpgt.dataset import (
    FRAME_FILES,
    Calibration,
    LabelRecord,
    load_sequence,
    read_box_grid,
    read_calib,
    read_cloud,
    read_depth,
    read_flow,
    read_labels,
    read_poses,
    read_raster,
    write_box_grid,
    write_calib,
    write_cloud,
    write_labels,
    write_poses,
    write_raster,
)
from lidarpgt.errors import MalformedFile, MalformedLine, MissingFrameData, ShapeMismatch
from lidarpgt.geometry import (
    AABB2,
    CAMERA,
    LIDAR,
    MIN_VERTICAL_COSINE,
    CameraIntrinsics,
    Obb3,
    PointCloud,
    RigidTransform,
    kitti_lidar_to_camera,
    transform_obb,
)

# KITTI's lidar-to-camera extrinsics of its 2011-09-26 drives, |R[1,2]| = 0.9998902
KITTI_LIDAR_TO_CAM = (
    "7.533745e-03 -9.999714e-01 -6.166020e-04 -4.069766e-03 1.480249e-02 7.280733e-04 "
    "-9.998902e-01 -7.631618e-02 9.998621e-01 7.523790e-03 1.480755e-02 -2.717806e-01"
)


def turned(axis, angle: float) -> RigidTransform:
    """A rotation by `angle` radians about the unit vector `axis` (Rodrigues)."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return RigidTransform(np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * k @ k, np.zeros(3))


class TestCloudIo:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"")
        assert len(read_cloud(path)) == 0

    def test_single_point(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(np.array([1, 2, 3, 0.5], dtype="<f4").tobytes())
        cloud = read_cloud(path)
        assert np.allclose(cloud.points, [[1, 2, 3, 0.5]])

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = np.column_stack(
            [rng.normal(scale=20, size=(500, 3)).astype(np.float32), rng.random(500, dtype=np.float32)]
        ).astype(np.float32)
        cloud = PointCloud(pts.astype(float))
        path = tmp_path / "a.bin"
        write_cloud(path, cloud)
        again = read_cloud(path)
        assert np.array_equal(again.points.astype(np.float32), pts)
        write_cloud(tmp_path / "b.bin", again)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(MalformedFile):
            read_cloud(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 2, 3])
    def test_non_finite_value_names_the_file(self, tmp_path, value, column):
        pts = np.ones((4, 4), dtype="<f4")
        pts[2, column] = value
        path = tmp_path / "000003.bin"
        path.write_bytes(pts.tobytes())
        # checked before intensities are clipped to [0, 1]
        with pytest.raises(MalformedFile, match=re.escape(f"{path}: non-finite")):
            read_cloud(path)


class TestPoseIo:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        poses = read_poses(path)
        assert len(poses) == 1
        assert np.allclose(poses[0].rotation, np.eye(3)) and np.allclose(poses[0].translation, 0.0)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        poses = []
        for _ in range(10):
            angle = rng.uniform(-3, 3)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
            poses.append(RigidTransform(rot, rng.normal(size=3)))
        path = tmp_path / "poses.txt"
        write_poses(path, poses)
        again = read_poses(path)
        for a, b in zip(poses, again):
            assert np.array_equal(a.rotation, b.rotation) and np.array_equal(a.translation, b.translation)

    def test_mild_drift_repaired_with_warning(self, tmp_path):
        rot = np.eye(3)
        rot[0, 1] = 1e-5
        vals = np.hstack([rot, np.zeros((3, 1))]).reshape(-1)
        path = tmp_path / "poses.txt"
        path.write_text(" ".join(f"{v:.17g}" for v in vals) + "\n")
        with pytest.warns(UserWarning):
            poses = read_poses(path)
        r = poses[0].rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9

    def test_heavy_drift_rejected(self, tmp_path):
        rot = np.eye(3)
        rot[0, 1] = 0.01
        vals = np.hstack([rot, np.zeros((3, 1))]).reshape(-1)
        path = tmp_path / "poses.txt"
        path.write_text(" ".join(f"{v:.17g}" for v in vals) + "\n")
        with pytest.raises(MalformedLine):
            read_poses(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0\n")
        with pytest.raises(MalformedLine):
            read_poses(path)

    @pytest.mark.parametrize(
        "line",
        [
            "nan 0 0 0 0 1 0 0 0 0 1 0",
            "1 0 0 0 0 1 0 0 0 0 nan 0",
            "1 0 0 inf 0 1 0 0 0 0 1 0",
            "1 0 0 0 0 1 0 -inf 0 0 1 0",
            "1 0 0 0 0 1 0 0 0 0 1 nope",
        ],
    )
    def test_non_finite_or_invalid_value_rejected(self, tmp_path, line):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n" + line + "\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:2:")):
            read_poses(path)


class TestCalibIo:
    def test_round_trip(self, tmp_path):
        calib = Calibration(
            kitti_lidar_to_camera(),
            CameraIntrinsics(700.0, 701.5, 620.25, 187.0, 1242, 375),
        )
        path = tmp_path / "calib.txt"
        write_calib(path, calib)
        again = read_calib(path)
        assert np.array_equal(again.lidar_to_cam.rotation, calib.lidar_to_cam.rotation)
        assert np.array_equal(again.lidar_to_cam.translation, calib.lidar_to_cam.translation)
        assert again.intrinsics == calib.intrinsics

    def test_missing_key(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("intrinsics: 700 700 620 187 1242 375\n")
        with pytest.raises(MalformedLine):
            read_calib(path)

    def test_repeated_key_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(
            "intrinsics: 700 700 620 187 1242 375\nlidar_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0\n"
            "intrinsics: 900 900 400 150 800 320\n"
        )
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:1 and {path}:3: both give 'intrinsics'")):
            read_calib(path)

    def test_kitti_calibration_loads(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(f"intrinsics: 721.5377 721.5377 609.5593 172.854 1242 375\nlidar_to_cam: {KITTI_LIDAR_TO_CAM}\n")
        assert read_calib(path).lidar_to_cam.rotation[1, 2] == -0.9998902

    @pytest.mark.parametrize("degrees, loads", [(1.0, True), (-1.0, True), (2.5, True), (3.0, False), (5.0, False)])
    def test_tilted_vertical_axis(self, tmp_path, degrees, loads):
        """The KITTI axis permutation tilted about the camera's x axis loads up
        to the tilt transform_obb keeps upright, about 2.56 degrees."""
        path = tmp_path / "calib.txt"
        lidar_to_cam = turned((1.0, 0.0, 0.0), math.radians(degrees)).compose(kitti_lidar_to_camera())
        write_calib(path, Calibration(lidar_to_cam, CameraIntrinsics(500.0, 500.0, 400.0, 150.0, 800, 320)))
        if loads:
            assert np.array_equal(read_calib(path).lidar_to_cam.rotation, lidar_to_cam.rotation)
        else:
            with pytest.raises(MalformedLine, match=re.escape(f"{path}:2: lidar_to_cam tilts the vertical axis")):
                read_calib(path)

    def test_tilt_limit_is_the_one_transform_obb_keeps(self, tmp_path):
        """Near the limit, a calibration loads exactly when transform_obb moves
        boxes both ways between its lidar and camera frames."""
        rng = np.random.default_rng(5)
        path = tmp_path / "calib.txt"
        limit = math.acos(MIN_VERTICAL_COSINE)
        intrinsics = CameraIntrinsics(500.0, 500.0, 400.0, 150.0, 800, 320)
        outcomes = []
        for _ in range(300):
            # a turn about a horizontal camera axis tilts the vertical axis by its angle
            heading = rng.uniform(-math.pi, math.pi)
            tilt = limit * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -3.0))
            lidar_to_cam = (
                turned((math.cos(heading), 0.0, math.sin(heading)), tilt)
                .compose(turned((0.0, 1.0, 0.0), rng.uniform(-math.pi, math.pi)))
                .compose(kitti_lidar_to_camera())
            )
            write_calib(path, Calibration(lidar_to_cam, intrinsics))
            try:
                read = read_calib(path).lidar_to_cam
            except MalformedLine:
                read = lidar_to_cam
                loads = False
            else:
                loads = True
            for box, rt, frame in (
                (Obb3((10.0, 1.0, -0.5), (1.8, 4.5, 1.5), rng.uniform(-2.0, 2.0), LIDAR), read, CAMERA),
                (Obb3((1.0, 1.5, 10.0), (1.8, 1.5, 4.5), rng.uniform(-2.0, 2.0), CAMERA), read.invert(), LIDAR),
            ):
                try:
                    transform_obb(box, rt, frame)
                except ValueError:
                    assert not loads
                else:
                    assert loads
            outcomes.append(loads)
        assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize(
        "intrinsics, lidar_to_cam",
        [
            ("700 700 620 187 1242 375", "nan -1 0 0 0 0 -1 0 1 0 0 0"),
            ("700 700 620 187 1242 375", "0 -1 0 inf 0 0 -1 0 1 0 0 0"),
            ("700 700 620 187 1242 375", "0 -1 0 0 0 0 -1 0 1 0 0 nan"),
            ("700 700 620 187 1242 375", "0 -2 0 0 0 0 -1 0 1 0 0 0"),
            ("nan 700 620 187 1242 375", "0 -1 0 0 0 0 -1 0 1 0 0 0"),
            ("700 700 620 187 inf 375", "0 -1 0 0 0 0 -1 0 1 0 0 0"),
            ("-700 700 620 187 1242 375", "0 -1 0 0 0 0 -1 0 1 0 0 0"),
            ("700 700 620 187 1242 nope", "0 -1 0 0 0 0 -1 0 1 0 0 0"),
            # an image over MAX_IMAGE_PIXELS, too large to allocate
            ("500 500 800 187 200000 200000", "0 -1 0 0 0 0 -1 0 1 0 0 0"),
        ],
    )
    def test_non_finite_or_invalid_value_rejected(self, tmp_path, intrinsics, lidar_to_cam):
        path = tmp_path / "calib.txt"
        path.write_text(f"intrinsics: {intrinsics}\nlidar_to_cam: {lidar_to_cam}\n")
        with pytest.raises(MalformedLine, match=re.escape(str(path))):
            read_calib(path)


class TestLabelIo:
    def make_record(self, rng):
        h = rng.uniform(1.0, 2.0)
        box = Obb3(
            (rng.uniform(-10, 10), rng.uniform(-1, 2), rng.uniform(5, 40)),
            (rng.uniform(0.4, 2.0), h, rng.uniform(0.3, 5.0)),
            rng.uniform(-1.5, 1.5),
            CAMERA,
        )
        return LabelRecord(
            cls="Car",
            box=box,
            bbox2d=AABB2((10.0, 20.0), (110.0, 95.0)),
            truncation=0.0,
            occlusion=1,
            alpha=-10.0,
            score=float(rng.random()),
        )

    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(2)
        records = [self.make_record(rng) for _ in range(20)]
        path = tmp_path / "labels.txt"
        write_labels(path, records)
        again = read_labels(path)
        assert len(again) == len(records)
        for a, b in zip(records, again):
            assert a.cls == b.cls
            assert np.abs(a.box.centre - b.box.centre).max() < 1e-6
            assert np.abs(a.box.dims - b.box.dims).max() < 1e-6
            assert abs(a.rotation_y - b.rotation_y) < 1e-6
            assert abs(a.score - b.score) < 1e-6

    def test_yaw_zero_is_rotation_y_zero(self, tmp_path):
        box = Obb3((1.0, 0.5, 10.0), (1.8, 1.5, 4.0), 0.0, CAMERA)
        path = tmp_path / "labels.txt"
        write_labels(path, [LabelRecord(cls="Car", box=box)])
        line = path.read_text().split()
        assert float(line[14]) == 0.0

    def test_location_is_bottom_centre(self, tmp_path):
        box = Obb3((2.0, 0.0, 12.0), (1.8, 1.5, 4.0), 0.0, CAMERA)
        path = tmp_path / "labels.txt"
        write_labels(path, [LabelRecord(cls="Car", box=box)])
        fields = path.read_text().split()
        # location y = centre y + h/2 (camera y points down)
        assert float(fields[12]) == pytest.approx(0.75)
        again = read_labels(path)[0]
        assert np.allclose(again.box.centre, box.centre, atol=1e-6)

    def test_dontcare_skipped(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "DontCare -1 -1 -10 0 0 0 0 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "Car 0 0 -10 0 0 10 10 1.5 1.8 4.0 1.0 1.0 10.0 0.0\n"
        )
        records = read_labels(path)
        assert len(records) == 1 and records[0].cls == "Car"

    def test_unknown_class_preserved(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("UnicycleHerd 0 0 -10 0 0 10 10 1.5 1.8 4.0 1.0 1.0 10.0 0.0\n")
        out = tmp_path / "out.txt"
        write_labels(out, read_labels(path))
        assert read_labels(out)[0].cls == "UnicycleHerd"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("Car 1 2 3\n")
        with pytest.raises(MalformedLine):
            read_labels(path)

    @pytest.mark.parametrize(
        "line",
        [
            "Car 0 0 -10 0 0 10 10 1.5 1.8 4.0 1.0 1.0 10.0 0.0 nan",  # detection score
            "Car 0 0 -10 0 0 10 10 1.5 1.8 4.0 1.0 1.0 10.0 0.0 inf",
            "Car 0 0 -10 0 0 10 10 nan 1.8 4.0 1.0 1.0 10.0 0.0",  # dims
            "Car 0 0 -10 0 0 10 10 1.5 -1.8 4.0 1.0 1.0 10.0 0.0",
            "Car 0 0 -10 0 0 10 10 1.5 1.8 4.0 1.0 nan 10.0 0.0",  # location
            "Car 0 0 -10 10 0 0 10 1.5 1.8 4.0 1.0 1.0 10.0 0.0",  # 2D box left > right
        ],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "000004.txt"
        path.write_text("Car 0 0 -10 0 0 10 10 1.5 1.8 4.0 1.0 1.0 10.0 0.0 0.5\n" + line + "\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:2:")):
            read_labels(path)

    def test_large_rotation_y_preserved(self, tmp_path):
        # beyond the canonical yaw range, the raw value still round-trips
        path = tmp_path / "labels.txt"
        path.write_text("Car 0 0 -10 0 0 10 10 1.5 1.8 4.0 1.0 1.0 10.0 2.0\n")
        rec = read_labels(path)[0]
        assert rec.rotation_y == pytest.approx(2.0)
        assert -math.pi / 2 < rec.box.yaw <= math.pi / 2
        out = tmp_path / "out.txt"
        write_labels(out, [rec])
        assert read_labels(out)[0].rotation_y == pytest.approx(2.0, abs=1e-6)


class TestRasterIo:
    def test_depth_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        depth = (rng.random((30, 40)) * 50).astype(np.float32).astype(float)
        path = tmp_path / "d.bin"
        write_raster(path, depth)
        again = read_depth(path)  # the stored float32 values, which callers may edit
        assert again.dtype == np.float32 and again.flags.writeable
        assert np.array_equal(again, depth)

    def test_flow_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        flow = rng.normal(size=(20, 25, 2)).astype(np.float32).astype(float)
        path = tmp_path / "f.bin"
        write_raster(path, flow)
        again = read_flow(path)
        assert again.dtype == np.float32 and again.flags.writeable
        assert np.array_equal(again, flow)

    def test_cloud_and_box_grid_read_as_float64(self, tmp_path):
        spec = GridSpec(height=16, width=16, stride=4)
        data = np.zeros((spec.out_rows, spec.out_cols, 8))
        data[1, 2] = (0.1, -0.2, 0.3, 1.7, 1.5, 4.1, 0.25, 0.9)
        write_box_grid(tmp_path / "g.bin", BoxGrid(data))
        write_cloud(tmp_path / "c.bin", PointCloud(np.full((5, 4), 0.3)))
        grid = read_box_grid(tmp_path / "g.bin", spec)
        assert grid.data.dtype == np.float64
        assert np.array_equal(grid.data, data.astype(np.float32))
        assert read_cloud(tmp_path / "c.bin").points.dtype == np.float64

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(MalformedFile):
            read_raster(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "d.bin"
        write_raster(path, np.zeros((4, 4)))
        path.write_bytes(b"\x00" * 12)  # truncate payload
        with pytest.raises(MalformedFile):
            read_depth(path)

    def test_box_grid_round_trip_and_shape_check(self, tmp_path):
        spec = GridSpec(height=32, width=32, stride=4)
        rng = np.random.default_rng(5)
        grid = BoxGrid(rng.random((8, 8, 8)).astype(np.float32).astype(float))
        path = tmp_path / "grid.bin"
        write_box_grid(path, grid)
        again = read_box_grid(path, spec)
        assert np.array_equal(
            again.data.astype(np.float32), grid.data.astype(np.float32)
        )
        with pytest.raises(ShapeMismatch):
            read_box_grid(path, GridSpec(height=64, width=64, stride=4))

    @pytest.mark.parametrize(
        "axis, offset",
        [(0, 1e38), (0, 37.5 + 1e-3), (1, -36.0 - 1e-3), (2, 4.0 + 1e-3), (2, -1e38)],
    )
    def test_box_grid_offset_beyond_grid_span_rejected(self, tmp_path, axis, offset):
        spec = GridSpec()  # spans 37.5 m (x), 36 m (y), 4 m (z)
        data = np.zeros((spec.out_rows, spec.out_cols, 8))
        data[3, 7, axis] = offset
        data[5, 1, axis] = offset
        path = tmp_path / "grid.bin"
        write_box_grid(path, BoxGrid(data))
        with pytest.raises(MalformedFile, match=re.escape(f"{path}: box offset at cell (3, 7)")):
            read_box_grid(path, spec)

    def test_box_grid_offset_up_to_grid_span_accepted(self, tmp_path):
        spec = GridSpec(x_range=(0.0, 4.0), y_range=(-2.0, 2.0), z_range=(-1.0, 1.0), height=8, width=8, stride=4)
        data = np.zeros((2, 2, 8))
        data[0, 0, 0:3] = (4.0, -4.0, 2.0)
        data[1, 1, 0:3] = (-4.0, 4.0, -2.0)
        path = tmp_path / "grid.bin"
        write_box_grid(path, BoxGrid(data))
        assert np.array_equal(read_box_grid(path, spec).data, data)

    @pytest.mark.parametrize(
        "channel, value, field",
        [(7, 1.5, "confidence"), (7, -0.1, "confidence"), (3, -1.0, "box size"), (5, -1.0, "box size")],
    )
    def test_box_grid_bad_code_rejected(self, tmp_path, channel, value, field):
        spec = GridSpec()
        data = np.zeros((spec.out_rows, spec.out_cols, 8))
        data[3, 7, channel] = value
        data[5, 1, channel] = value
        path = tmp_path / "grid.bin"
        write_box_grid(path, BoxGrid(data))
        with pytest.raises(MalformedFile, match=re.escape(f"{path}: {field} at cell (3, 7)")):
            read_box_grid(path, spec)

    @pytest.mark.parametrize("channel, value", [(7, 0.0), (7, 1.0), (3, 0.0), (5, 0.0)])
    def test_box_grid_code_at_its_bounds_accepted(self, tmp_path, channel, value):
        spec = GridSpec(height=32, width=32, stride=4)
        data = np.random.default_rng(6).random((8, 8, 8)).astype(np.float32).astype(float)
        data[2, 5, channel] = value
        path = tmp_path / "grid.bin"
        write_box_grid(path, BoxGrid(data))
        assert np.array_equal(read_box_grid(path, spec).data, data)

    def test_heuristic_box_grid_round_trip(self, tmp_path):
        from lidarpgt.proposals import heuristic_grid

        spec = GridSpec()
        rng = np.random.default_rng(10)
        lo = (spec.x_range[0], spec.y_range[0], spec.z_range[0])
        hi = (spec.x_range[1], spec.y_range[1], spec.z_range[1])
        xyz = rng.uniform(lo, hi, size=(20000, 3))
        grid = heuristic_grid(PointCloud(np.column_stack([xyz, rng.random(len(xyz))])), spec)
        path = tmp_path / "grid.bin"
        write_box_grid(path, grid)
        again = read_box_grid(path, spec)
        assert np.array_equal(again.data, grid.data.astype(np.float32))

    @pytest.mark.parametrize(
        "sidecar, field",
        [
            ({"cols": 4, "channels": 1}, "rows"),
            ({"rows": "4", "cols": 4, "channels": 1}, "rows"),
            ({"rows": 4, "cols": 4.0, "channels": 1}, "cols"),
            ({"rows": 4, "cols": 4, "channels": 0}, "channels"),
            ({"rows": 4, "cols": True, "channels": 1}, "cols"),
            ({"rows": 4, "cols": 4, "channels": None}, "channels"),
            ({"rows": 4, "cols": 4, "channels": 1, "order": "row-major"}, "dtype"),
            ({"rows": 4, "cols": 4, "channels": 1, "dtype": "<f8", "order": "row-major"}, "dtype"),
            ({"rows": 4, "cols": 4, "channels": 1, "dtype": "<f4"}, "order"),
            ({"rows": 4, "cols": 4, "channels": 1, "dtype": "<f4", "order": "column-major"}, "order"),
            ([4, 4, 1], "object"),
            ("not json", "Expecting value"),
        ],
    )
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar, field):
        path = tmp_path / "d.bin"
        write_raster(path, np.zeros((4, 4)))
        sidecar_path = tmp_path / "d.bin.json"
        sidecar_path.write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
        with pytest.raises(MalformedFile, match=f"{re.escape(str(sidecar_path))}.*{field}"):
            read_raster(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 2), (8, 8, 8)])
    def test_non_finite_value_rejected(self, tmp_path, value, shape):
        data = np.full(shape, 0.5)
        data[1, 2] = value
        path = tmp_path / "r.bin"
        write_raster(path, data)
        with pytest.raises(MalformedFile, match=re.escape(f"{path}: non-finite")):
            read_raster(path)

    def test_old_sidecar_with_sentinel_loads(self, tmp_path):
        path, sidecar = tmp_path / "r.bin", tmp_path / "r.bin.json"
        write_raster(path, np.ones((3, 3)))
        meta = json.loads(sidecar.read_text())
        assert sorted(meta) == ["channels", "cols", "dtype", "order", "rows"]
        # earlier versions also wrote the invalid-value sentinel, which no reader used
        sidecar.write_text(json.dumps(dict(meta, sentinel=-1.0)) + "\n")
        assert np.array_equal(read_raster(path), np.ones((3, 3)))


class TestSequenceIndex:
    def _make_sequence(self, root, n=3):
        (root / "velodyne").mkdir(parents=True)
        for t in range(n):
            write_cloud(root / "velodyne" / f"{t:06d}.bin", PointCloud(np.zeros((0, 4))))
        write_poses(root / "poses.txt", [RigidTransform.identity()] * n)
        write_calib(
            root / "calib.txt",
            Calibration(kitti_lidar_to_camera(), CameraIntrinsics(500.0, 500.0, 400.0, 150.0, 800, 320)),
        )

    def test_loads_contiguous_sequence(self, tmp_path):
        self._make_sequence(tmp_path / "seq")
        seq = load_sequence(tmp_path / "seq")
        assert seq.n_frames == 3
        assert seq.calibration.intrinsics.width == 800
        for kind, (directory, suffix) in FRAME_FILES.items():
            assert seq.path(kind, 2) == tmp_path / "seq" / directory / f"000002{suffix}"

    def test_rejects_gap_in_frame_indices(self, tmp_path):
        self._make_sequence(tmp_path / "seq")
        (tmp_path / "seq" / "velodyne" / "000001.bin").rename(
            tmp_path / "seq" / "velodyne" / "000005.bin"
        )
        with pytest.raises(MalformedFile):
            load_sequence(tmp_path / "seq")

    def test_rejects_two_files_for_one_frame(self, tmp_path):
        velo = tmp_path / "seq" / "velodyne"
        self._make_sequence(tmp_path / "seq")
        (velo / "2.bin").write_bytes((velo / "000002.bin").read_bytes())
        message = f"{velo / '000002.bin'} and {velo / '2.bin'}: both are frame 2"
        with pytest.raises(MalformedFile, match=re.escape(message)):
            load_sequence(tmp_path / "seq")

    def test_rejects_missing_poses(self, tmp_path):
        self._make_sequence(tmp_path / "seq")
        write_poses(tmp_path / "seq" / "poses.txt", [RigidTransform.identity()])
        with pytest.raises(MalformedFile):
            load_sequence(tmp_path / "seq")

    @pytest.mark.parametrize("shape", [(160, 1600), (800, 320), (320, 799), (321, 800)])
    def test_rasters_must_cover_the_calibrated_image(self, tmp_path, shape):
        root = tmp_path / "seq"
        self._make_sequence(root)
        (root / "depth").mkdir()
        (root / "flow").mkdir()
        for t in range(3):
            rows, cols = (320, 800) if t == 0 else shape
            write_raster(root / "depth" / f"{t:06d}.bin", np.ones((rows, cols)))
            write_raster(root / "flow" / f"{t:06d}.bin", np.zeros((rows, cols, 2)))
        seq = load_sequence(root)
        assert seq.read_depth(0).shape == (320, 800)
        assert seq.read_flow(0).shape == (320, 800, 2)
        with pytest.raises(MalformedFile, match=re.escape(f"{seq.path('depth', 1)}: raster is")):
            seq.read_depth(1)
        with pytest.raises(MalformedFile, match=re.escape(f"{seq.path('flow', 2)}: raster is")):
            seq.read_flow(2)

    @pytest.mark.parametrize("reader", ["read_cloud", "read_depth", "read_flow", "read_labels"])
    @pytest.mark.parametrize("t", [3, 99, -1])
    def test_frame_outside_the_sequence(self, tmp_path, reader, t):
        self._make_sequence(tmp_path / "seq")
        seq = load_sequence(tmp_path / "seq")
        message = f"{tmp_path / 'seq'}: frame {t} outside sequence of 3 frames"
        with pytest.raises(MissingFrameData, match=re.escape(message)):
            getattr(seq, reader)(t)
