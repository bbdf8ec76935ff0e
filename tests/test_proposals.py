import numpy as np
import pytest

from lidarpgt.bev import GridSpec
from lidarpgt.dataset import write_box_grid
from lidarpgt.errors import ShapeMismatch
from lidarpgt.geometry import PointCloud
from lidarpgt.proposals import grid_from_file, heuristic_grid

SPEC = GridSpec()


def make_cloud(xyz):
    xyz = np.atleast_2d(np.asarray(xyz, dtype=float))
    return PointCloud(np.column_stack([xyz, np.full(len(xyz), 0.5)]))


class TestHeuristicGrid:
    def test_empty_cloud(self):
        # no points, points all outside the volume, and ground points only
        outside = [[1.0, 0.0, 0.0], [10.0, 20.0, 0.0], [10.0, 0.0, -3.0], [10.0, 0.0, 1.27]]
        ground = [[10.0, 0.0, SPEC.z_range[0]], [20.0, -5.0, SPEC.z_range[0] + 0.29]]
        for xyz in (np.zeros((0, 3)), outside, ground):
            grid = heuristic_grid(make_cloud(xyz), SPEC)
            assert not grid.data.any()

    def test_ground_removed(self):
        ground_z = SPEC.z_range[0] + 0.1
        grid = heuristic_grid(make_cloud([[10.0, 0.0, ground_z]] * 50), SPEC)
        assert not grid.data.any()

    def test_cluster_gets_max_confidence(self):
        rng = np.random.default_rng(0)
        cluster = np.column_stack(
            [rng.normal(10.0, 0.05, 80), rng.normal(0.0, 0.05, 80), rng.normal(-1.0, 0.2, 80)]
        )
        lone = np.array([[30.0, 8.0, -1.0]])
        grid = heuristic_grid(make_cloud(np.vstack([cluster, lone])), SPEC)
        r = int((10.0 - SPEC.x_range[0]) / SPEC.cell_x)
        c = int((0.0 - SPEC.y_range[0]) / SPEC.cell_y)
        assert grid.confidence[r, c] == 1.0
        assert grid.confidence.max() == 1.0

    def test_confidence_in_unit_interval(self):
        rng = np.random.default_rng(1)
        xyz = np.column_stack(
            [rng.uniform(2.5, 40, 3000), rng.uniform(-18, 18, 3000), rng.uniform(-2.0, 1.2, 3000)]
        )
        grid = heuristic_grid(make_cloud(xyz), SPEC)
        assert grid.confidence.min() >= 0.0 and grid.confidence.max() <= 1.0

    def test_delta_is_centroid_offset(self):
        pt = np.array([[10.1, 0.2, -0.8]])
        grid = heuristic_grid(make_cloud(pt), SPEC)
        r = int((10.1 - SPEC.x_range[0]) / SPEC.cell_x)
        c = int((0.2 - SPEC.y_range[0]) / SPEC.cell_y)
        from lidarpgt.bev import pillar_centre

        code = grid.data[r, c]
        assert np.allclose(pillar_centre((r, c), SPEC) + code[0:3], pt[0], atol=1e-12)
        assert np.allclose(code[3:6], [0.1, 0.1, 0.1])  # clamped floor

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        xyz = np.column_stack(
            [rng.uniform(2.5, 40, 500), rng.uniform(-18, 18, 500), rng.uniform(-2.0, 1.2, 500)]
        )
        a = heuristic_grid(make_cloud(xyz), SPEC)
        b = heuristic_grid(make_cloud(xyz[rng.permutation(500)]), SPEC)
        assert np.array_equal(a.data, b.data)


class TestGridFromFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = GridSpec(height=16, width=16, stride=4)
        from lidarpgt.bev import BoxGrid

        grid = BoxGrid(rng.random((4, 4, 8)).astype(np.float32).astype(float))
        path = tmp_path / "g.bin"
        write_box_grid(path, grid)
        again = grid_from_file(path, spec)
        assert np.array_equal(again.data, grid.data)

    def test_shape_mismatch(self, tmp_path):
        from lidarpgt.bev import BoxGrid

        grid = BoxGrid(np.zeros((4, 4, 8)))
        path = tmp_path / "g.bin"
        write_box_grid(path, grid)
        with pytest.raises(ShapeMismatch):
            grid_from_file(path, GridSpec(height=32, width=32, stride=4))
