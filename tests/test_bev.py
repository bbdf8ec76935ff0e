import numpy as np
import pytest

from lidarpgt.bev import (
    BoxGrid,
    GridSpec,
    encode_box,
    grid_centres,
    in_volume_mask,
    pillar_centre,
    rasterize,
)
from lidarpgt.errors import OutOfGrid, OutOfVolume
from lidarpgt.geometry import LIDAR, Obb3, PointCloud
from lidarpgt.proposals import heuristic_grid


def make_cloud(xyz, intensity=0.5):
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    inten = np.full(len(xyz), intensity) if np.isscalar(intensity) else np.asarray(intensity)
    return PointCloud(np.column_stack([xyz, inten]))


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
        # no points, and points all outside the volume: behind, beside, below and above it
        outside = [[1.0, 0.0, 0.0], [10.0, 20.0, 0.0], [10.0, 0.0, -3.0], [10.0, 0.0, 1.27]]
        for xyz in (np.zeros((0, 3)), outside):
            img = rasterize(make_cloud(xyz), GridSpec())
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


def reference_rasterize(cloud, spec):
    """`rasterize` as it was written with a temporary per channel: the oracle
    of the in-place version, which must match it bit for bit."""
    from lidarpgt.bev import _cell_index, in_volume_mask

    image = np.zeros((spec.height, spec.width, 3))
    keep = in_volume_mask(cloud.xyz, spec)
    if not keep.any():
        return image
    xyz, intensity = cloud.xyz[keep], cloud.intensity[keep]
    rows, cols = _cell_index(xyz, spec, 1)
    flat = rows * spec.width + cols
    top_z = np.full(spec.height * spec.width, -np.inf)
    top_i = np.full(spec.height * spec.width, -np.inf)
    count = np.zeros(spec.height * spec.width)
    np.maximum.at(top_z, flat, xyz[:, 2])
    np.maximum.at(top_i, flat, intensity)
    np.add.at(count, flat, 1.0)
    occupied = count > 0
    z0, z1 = spec.z_range
    ch0 = np.where(occupied, (top_z - z0) / (z1 - z0), 0.0)
    ch1 = np.where(occupied, top_i, 0.0)
    ch2 = np.minimum(1.0, np.log1p(count) / np.log1p(64))
    for k, ch in enumerate((ch0, ch1, ch2)):
        image[:, :, k] = ch.reshape(spec.height, spec.width)
    return image


class TestRasterizeEqualsReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        # a height range of 4.1 m, whose division no multiplication reproduces
        spec = GridSpec(z_range=(-3.0, 1.1), height=96, width=80, stride=4) if seed % 2 else GridSpec()
        n = int(rng.integers(1, 20000))
        # in and around the volume, with some pillars holding many points
        xyz = np.column_stack([rng.uniform(0, 45, n), rng.uniform(-20, 20, n), rng.uniform(-3.5, 2.0, n)])
        xyz[: n // 4] = xyz[rng.integers(0, 8, n // 4)]
        cloud = make_cloud(xyz, rng.uniform(0.0, 1.0, n))
        image = rasterize(cloud, spec)
        assert image.tobytes() == reference_rasterize(cloud, spec).tobytes()
        assert image[:, :, 0].any() and (image[:, :, 2] == 1.0).any()

    def test_points_at_and_past_the_volume_bounds(self):
        spec = GridSpec()
        (x0, x1), (y0, y1), (z0, z1) = spec.x_range, spec.y_range, spec.z_range
        xs = [x0, np.nextafter(x0, -np.inf), np.nextafter(x1, -np.inf), x1, 0.5 * (x0 + x1)]
        ys = [y0, np.nextafter(y0, -np.inf), np.nextafter(y1, -np.inf), y1, 0.0]
        zs = [z0, np.nextafter(z0, -np.inf), np.nextafter(z1, -np.inf), z1, 0.0]
        xyz = np.array(np.meshgrid(xs, ys, zs)).reshape(3, -1).T
        cloud = make_cloud(xyz, np.linspace(0.0, 1.0, len(xyz)))
        image = rasterize(cloud, spec)
        assert image.tobytes() == reference_rasterize(cloud, spec).tobytes()
        assert image.any()
        outside = make_cloud(xyz[~in_volume_mask(xyz, spec)])
        assert rasterize(outside, spec).tobytes() == np.zeros((spec.height, spec.width, 3)).tobytes()


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


# On this grid a point one ulp below the x and y max bounds divides out onto
# the top edge of both the raster and the box grid, and the clamp folds it back.
EDGE = GridSpec(x_range=(-18.0, 18.0), y_range=(-18.0, 18.0))
EDGE_XYZ = np.array([np.nextafter(18.0, -np.inf), np.nextafter(18.0, -np.inf), 0.0])


class TestVolumeEdge:
    def test_point_rounds_onto_the_top_edge(self):
        for value, res, size in ((EDGE_XYZ[0], EDGE.x_res, EDGE.height), (EDGE_XYZ[1], EDGE.y_res, EDGE.width)):
            assert np.floor((value + 18.0) / res) == size
            assert np.floor((value + 18.0) / (res * EDGE.stride)) == size // EDGE.stride

    def test_rasterize_last_pixel(self):
        image = rasterize(make_cloud(EDGE_XYZ), EDGE)
        assert np.argwhere(image[:, :, 2] > 0).tolist() == [[EDGE.height - 1, EDGE.width - 1]]

    def test_heuristic_grid_last_cell(self):
        grid = heuristic_grid(make_cloud(EDGE_XYZ), EDGE)
        assert np.argwhere(grid.confidence > 0).tolist() == [[EDGE.out_rows - 1, EDGE.out_cols - 1]]

    def test_encode_box_last_cell(self):
        pixel, _ = encode_box(Obb3(EDGE_XYZ, (1.0, 1.0, 1.0), 0.0, LIDAR), EDGE)
        assert pixel == (EDGE.out_rows - 1, EDGE.out_cols - 1)


def decoded(grid, spec, pixel):
    """The centre, sizes and yaw that `grid_centres` and the code channels give a grid pixel."""
    centre = grid_centres(grid, spec).reshape(spec.out_rows, spec.out_cols, 3)[pixel]
    return centre, grid.data[pixel][3:6], grid.data[pixel][6]


class TestEncodeDecode:
    def test_zero_delta(self):
        spec = GridSpec()
        grid = BoxGrid.zeros(spec)
        grid.set_code((10, 20), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.3, 0.5])
        centre, _, _ = decoded(grid, spec, (10, 20))
        assert np.allclose(centre, pillar_centre((10, 20), spec))

    def test_delta_shifts_centre(self):
        spec = GridSpec()
        grid = BoxGrid.zeros(spec)
        grid.set_code((3, 4), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        base, _, _ = decoded(grid, spec, (3, 4))
        grid.set_code((3, 4), [1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        shifted, _, _ = decoded(grid, spec, (3, 4))
        assert np.allclose(shifted - base, [1.0, 0.0, 0.0])

    def test_round_trip_random_boxes(self):
        spec = GridSpec()
        grid = BoxGrid.zeros(spec)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            centre = [
                rng.uniform(*spec.x_range),
                rng.uniform(*spec.y_range),
                rng.uniform(*spec.z_range),
            ]
            box = Obb3(centre, rng.uniform(0.2, 5, 3), rng.uniform(-1.5, 1.5), LIDAR)
            pixel, code = encode_box(box, spec, confidence=0.7)
            grid.set_code(pixel, code)
            out_centre, out_dims, out_yaw = decoded(grid, spec, pixel)
            assert np.abs(out_centre - box.centre).max() < 1e-9
            assert np.abs(out_dims - box.dims).max() < 1e-9
            assert out_yaw == pytest.approx(box.yaw, abs=1e-12)
            assert grid.confidence[pixel] == 0.7

    def test_encode_out_of_volume(self):
        with pytest.raises(OutOfVolume):
            encode_box(Obb3((100.0, 0.0, 0.0), (1, 1, 1), 0.0, LIDAR), GridSpec())


class TestBoxGrid:
    def test_code_round_trip(self):
        grid = BoxGrid.zeros(GridSpec())
        code = [0.1, -0.2, 0.3, 1.0, 2.0, 3.0, 0.5, 0.9]
        grid.set_code((5, 7), code)
        assert grid.data[5, 7].tolist() == code
        assert np.count_nonzero(grid.data) == 8

    def test_confidence_validation(self):
        grid = BoxGrid.zeros(GridSpec())
        with pytest.raises(ValueError):
            grid.set_code((5, 7), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.5])
        assert not grid.data.any()

    @pytest.mark.parametrize(
        "code",
        [
            [0.0, 0.0, 0.0, 1.0, -0.5, 1.0, 0.0, 0.5],  # a negative size
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5],  # 7 values
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.0],  # 9 values
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, float("nan")],
            [float("nan"), 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.5],  # a NaN offset
            [0.0, float("inf"), 0.0, 1.0, 1.0, 1.0, 0.0, 0.5],  # an infinite offset
            [0.0, 0.0, 0.0, 1.0, float("nan"), 1.0, 0.0, 0.5],  # a NaN size
            [0.0, 0.0, 0.0, 1.0, 1.0, float("inf"), 0.0, 0.5],  # an infinite size
            [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, float("-inf"), 0.5],  # an infinite yaw
        ],
    )
    def test_rejects_malformed_code(self, code):
        grid = BoxGrid.zeros(GridSpec())
        with pytest.raises(ValueError, match="a box code is 8 "):
            grid.set_code((5, 7), code)
        assert not grid.data.any()
