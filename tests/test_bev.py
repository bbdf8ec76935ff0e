import numpy as np
import pytest

from lidarpgt.bev import (
    BoxCode,
    BoxGrid,
    GridSpec,
    decode_box,
    encode_box,
    pillar_centre,
    rasterize,
)
from lidarpgt.errors import OutOfGrid, OutOfVolume
from lidarpgt.geometry import LIDAR, Obb3, PointCloud


def make_cloud(xyz, intensity=0.5):
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    inten = np.full(len(xyz), intensity) if np.isscalar(intensity) else np.asarray(intensity)
    return PointCloud(np.column_stack([xyz, inten]), LIDAR)


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.out_rows == 152 and spec.out_cols == 152
        assert spec.x_res == pytest.approx(37.5 / 608)
        assert spec.cell_y == pytest.approx(36.0 / 608 * 4)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            GridSpec(height=610)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            GridSpec(x_range=(5.0, 5.0))


class TestRasterize:
    def test_empty_cloud(self):
        img = rasterize(make_cloud(np.zeros((0, 3))), GridSpec())
        assert img.shape == (608, 608, 3)
        assert not img.any()

    def test_single_point(self):
        spec = GridSpec()
        centre = [
            0.5 * (spec.x_range[0] + spec.x_range[1]),
            0.5 * (spec.y_range[0] + spec.y_range[1]),
            0.5 * (spec.z_range[0] + spec.z_range[1]),
        ]
        img = rasterize(make_cloud([centre], intensity=0.5), spec)
        nonzero = np.argwhere(img.any(axis=2))
        assert len(nonzero) == 1
        r, c = nonzero[0]
        assert img[r, c, 1] == pytest.approx(0.5)
        assert img[r, c, 0] == pytest.approx(0.5)  # mid height

    def test_out_of_volume_ignored(self):
        spec = GridSpec()
        img = rasterize(make_cloud([[100.0, 0.0, 0.0], [5.0, 50.0, 0.0]]), spec)
        assert not img.any()

    def test_max_bound_excluded(self):
        spec = GridSpec()
        img = rasterize(make_cloud([[spec.x_range[1], 0.0, 0.0]]), spec)
        assert not img.any()

    def test_density_monotonic(self):
        spec = GridSpec()
        p1 = [10.0, 0.0, 0.0]
        p2 = [20.0, 5.0, 0.0]
        dense = make_cloud([p1] * 100 + [p2])
        img = rasterize(dense, spec)
        r1 = int((p1[0] - spec.x_range[0]) / spec.x_res)
        c1 = int((p1[1] - spec.y_range[0]) / spec.y_res)
        r2 = int((p2[0] - spec.x_range[0]) / spec.x_res)
        c2 = int((p2[1] - spec.y_range[0]) / spec.y_res)
        assert img[r1, c1, 2] > img[r2, c2, 2]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        xyz = np.column_stack(
            [rng.uniform(3, 39, 500), rng.uniform(-17, 17, 500), rng.uniform(-2.5, 1.0, 500)]
        )
        inten = rng.uniform(0, 1, 500)
        spec = GridSpec()
        img1 = rasterize(make_cloud(xyz, inten), spec)
        perm = rng.permutation(500)
        img2 = rasterize(make_cloud(xyz[perm], inten[perm]), spec)
        assert np.array_equal(img1, img2)

    def test_every_point_in_its_pillar(self):
        rng = np.random.default_rng(1)
        spec = GridSpec()
        xyz = np.column_stack(
            [rng.uniform(2.5, 40, 300), rng.uniform(-18, 18, 300), rng.uniform(-2.73, 1.27, 300)]
        )
        img = rasterize(make_cloud(xyz), spec)
        from lidarpgt.bev import in_volume_mask

        for p in xyz[in_volume_mask(xyz, spec)]:
            r = int(np.floor((p[0] - spec.x_range[0]) / spec.x_res))
            c = int(np.floor((p[1] - spec.y_range[0]) / spec.y_res))
            assert img[r, c].any()

    def test_values_bounded(self):
        rng = np.random.default_rng(2)
        xyz = np.column_stack(
            [rng.uniform(2.5, 40, 2000), rng.uniform(-18, 18, 2000), rng.uniform(-2.73, 1.27, 2000)]
        )
        img = rasterize(make_cloud(xyz, rng.uniform(0, 1, 2000)), GridSpec())
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestPillarCentre:
    def test_corner_pixel(self):
        spec = GridSpec()
        centre = pillar_centre((0, 0), spec)
        assert centre[0] == pytest.approx(spec.x_range[0] + spec.cell_x / 2)
        assert centre[1] == pytest.approx(spec.y_range[0] + spec.cell_y / 2)
        assert centre[2] == pytest.approx(0.5 * (spec.z_range[0] + spec.z_range[1]))

    def test_centre_pixel_near_volume_centre(self):
        spec = GridSpec()
        centre = pillar_centre((spec.out_rows // 2, spec.out_cols // 2), spec)
        vol_centre = [21.25, 0.0, -0.73]
        assert abs(centre[0] - vol_centre[0]) <= spec.cell_x
        assert abs(centre[1] - vol_centre[1]) <= spec.cell_y

    def test_out_of_grid(self):
        with pytest.raises(OutOfGrid):
            pillar_centre((152, 0), GridSpec())
        with pytest.raises(OutOfGrid):
            pillar_centre((0, -1), GridSpec())


class TestEncodeDecode:
    def test_zero_delta(self):
        spec = GridSpec()
        code = BoxCode(np.zeros(3), (1.0, 1.0, 1.0), 0.3, 0.5)
        box = decode_box((10, 20), code, spec)
        assert np.allclose(box.centre, pillar_centre((10, 20), spec))

    def test_delta_shifts_centre(self):
        spec = GridSpec()
        base = decode_box((3, 4), BoxCode(np.zeros(3), np.ones(3), 0.0, 0.0), spec).centre
        shifted = decode_box((3, 4), BoxCode((1.0, 0.0, 0.0), np.ones(3), 0.0, 0.0), spec).centre
        assert np.allclose(shifted - base, [1.0, 0.0, 0.0])

    def test_round_trip_random_boxes(self):
        spec = GridSpec()
        rng = np.random.default_rng(3)
        for _ in range(1000):
            centre = [
                rng.uniform(*spec.x_range),
                rng.uniform(*spec.y_range),
                rng.uniform(*spec.z_range),
            ]
            box = Obb3(centre, rng.uniform(0.2, 5, 3), rng.uniform(-1.5, 1.5), LIDAR)
            pixel, code = encode_box(box, spec, confidence=0.7)
            out = decode_box(pixel, code, spec)
            assert np.abs(out.centre - box.centre).max() < 1e-9
            assert np.abs(out.dims - box.dims).max() < 1e-9
            assert out.yaw == pytest.approx(box.yaw, abs=1e-12)

    def test_encode_out_of_volume(self):
        with pytest.raises(OutOfVolume):
            encode_box(Obb3((100.0, 0.0, 0.0), (1, 1, 1), 0.0, LIDAR), GridSpec())


class TestBoxGrid:
    def test_code_round_trip(self):
        grid = BoxGrid.zeros(GridSpec())
        code = BoxCode((0.1, -0.2, 0.3), (1.0, 2.0, 3.0), 0.5, 0.9)
        grid.set_code((5, 7), code)
        assert np.allclose(grid.data[5, 7], code.as_array())

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            BoxCode(np.zeros(3), np.zeros(3), 0.0, 1.5)
