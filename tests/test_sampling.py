import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpgt.bev import BoxGrid, GridSpec
from lidarpgt.errors import OutOfGrid
from lidarpgt.sampling import SamplerConfig, grid_centres, sample_pixels, smooth_confidence, smoothed_confidences

SMALL = GridSpec(x_range=(0.0, 20.0), y_range=(-10.0, 10.0), z_range=(-2.0, 2.0), height=80, width=80, stride=4)


def grid_with_confidence(spec, conf):
    grid = BoxGrid.zeros(spec)
    grid.data[:, :, 7] = conf
    return grid


class TestSamplePixels:
    def test_all_low_backfills_entirely(self):
        grid = grid_with_confidence(SMALL, 0.0)
        pixels = sample_pixels(grid, SMALL, SamplerConfig(seed=0))
        assert len(pixels) == 60
        assert len(set(pixels)) == 60

    def test_small_high_set_fully_taken(self):
        conf = np.zeros((20, 20))
        high = [(0, 0), (3, 7), (10, 10), (15, 2), (19, 19)]
        for r, c in high:
            conf[r, c] = 0.9
        grid = grid_with_confidence(SMALL, conf)
        pixels = sample_pixels(grid, SMALL, SamplerConfig(seed=1))
        assert len(pixels) == 60
        assert set(high).issubset(set(pixels))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        conf = rng.random((20, 20))
        grid = grid_with_confidence(SMALL, conf)
        a = sample_pixels(grid, SMALL, SamplerConfig(seed=42))
        b = sample_pixels(grid, SMALL, SamplerConfig(seed=42))
        assert a == b

    def test_seed_changes_selection_not_partition(self):
        rng = np.random.default_rng(3)
        conf = rng.random((20, 20))
        grid = grid_with_confidence(SMALL, conf)
        cfg = SamplerConfig(confidence_threshold=0.5, sample_count=20)
        a = sample_pixels(grid, SMALL, SamplerConfig(0.5, 20, seed=0))
        b = sample_pixels(grid, SMALL, SamplerConfig(0.5, 20, seed=99))
        assert a != b
        for pixels in (a, b):
            n_high = sum(1 for p in pixels if conf[p] > 0.5)
            assert n_high == 10

    def test_strict_threshold_boundary(self):
        conf = np.full((20, 20), 0.08)
        grid = grid_with_confidence(SMALL, conf)
        pixels = sample_pixels(grid, SMALL, SamplerConfig(confidence_threshold=0.08, seed=0))
        # equal-to-threshold pixels are low side; everything backfills from low
        assert len(pixels) == 60

    def test_small_grid_returns_everything(self):
        spec = GridSpec(x_range=(0, 4), y_range=(-2, 2), z_range=(-1, 1), height=8, width=8, stride=4)
        grid = BoxGrid.zeros(spec)
        pixels = sample_pixels(grid, spec, SamplerConfig(sample_count=60, seed=0))
        assert sorted(pixels) == [(r, c) for r in range(2) for c in range(2)]

    def test_rejects_odd_sample_count(self):
        with pytest.raises(ValueError):
            SamplerConfig(sample_count=61)


class TestSmoothConfidence:
    def test_uniform_grid(self):
        grid = grid_with_confidence(SMALL, 0.37)
        assert smooth_confidence(grid, SMALL, (5, 5)) == pytest.approx(0.37)

    def test_single_hot_pixel(self):
        conf = np.zeros((20, 20))
        conf[10, 10] = 0.9
        grid = grid_with_confidence(SMALL, conf)
        # zero offsets: 3D-nearest equals grid-nearest, 8 zero neighbours
        assert smooth_confidence(grid, SMALL, (10, 10)) == pytest.approx(0.1)

    def test_matches_brute_force_with_random_offsets(self):
        rng = np.random.default_rng(4)
        grid = BoxGrid.zeros(SMALL)
        grid.data[:, :, 0:3] = rng.normal(scale=0.4, size=(20, 20, 3))
        grid.data[:, :, 7] = rng.random((20, 20))
        centres = grid_centres(grid, SMALL).reshape(20, 20, 3)

        def brute(pixel):
            r0, c0 = pixel
            own = centres[r0, c0]
            entries = []
            for r in range(20):
                for c in range(20):
                    if (r, c) == pixel:
                        continue
                    d = float(np.sum((centres[r, c] - own) ** 2))
                    entries.append((d, r, c))
            entries.sort()
            vals = [grid.data[r0, c0, 7]] + [grid.data[r, c, 7] for _, r, c in entries[:8]]
            return sum(vals) / 9.0

        for pixel in [(0, 0), (19, 19), (7, 12), (10, 3), (4, 18)]:
            assert smooth_confidence(grid, SMALL, pixel) == pytest.approx(brute(pixel), abs=1e-12)

    def test_bounded_by_participants(self):
        rng = np.random.default_rng(5)
        grid = BoxGrid.zeros(SMALL)
        grid.data[:, :, 7] = rng.random((20, 20))
        for pixel in [(0, 5), (13, 13)]:
            val = smooth_confidence(grid, SMALL, pixel)
            assert grid.data[:, :, 7].min() <= val <= grid.data[:, :, 7].max()

    def test_tiny_grid_averages_what_exists(self):
        spec = GridSpec(x_range=(0, 4), y_range=(-2, 2), z_range=(-1, 1), height=8, width=8, stride=4)
        grid = BoxGrid.zeros(spec)
        grid.data[:, :, 7] = [[0.8, 0.4], [0.0, 0.2]]
        # only 3 other boxes exist
        assert smooth_confidence(grid, spec, (0, 0)) == pytest.approx((0.8 + 0.4 + 0.0 + 0.2) / 4)


def lexsort_smooth(grid, spec, pixel):
    """Reference smoothing: a full lexsort of every box by (distance, row, col)."""
    centres = grid_centres(grid, spec)
    r, c = pixel
    conf = grid.confidence.reshape(-1)
    own_flat = r * spec.out_cols + c
    d2 = np.sum((centres - centres[own_flat]) ** 2, axis=1)
    rows = np.arange(len(d2)) // spec.out_cols
    cols = np.arange(len(d2)) % spec.out_cols
    d2[own_flat] = np.inf
    order = np.lexsort((cols, rows, d2))
    n_other = min(8, len(d2) - 1)
    return float((conf[own_flat] + conf[order[:n_other]].sum()) / (1 + n_other))


# cell_x = 1.5 m, cell_y = 1.0 m: zero-offset neighbours tie in pairs
OBLONG = GridSpec(x_range=(0.0, 30.0), y_range=(-10.0, 10.0), z_range=(-2.0, 2.0), height=80, width=80, stride=4)
TINY = GridSpec(x_range=(0, 4), y_range=(-2, 2), z_range=(-1, 1), height=8, width=8, stride=4)
ONE_CELL = GridSpec(x_range=(0, 1), y_range=(0, 1), z_range=(-1, 1), height=4, width=4, stride=4)
ONE_ROW = GridSpec(x_range=(0, 1), y_range=(0, 20), z_range=(-1, 1), height=4, width=80, stride=4)
# 20 rows of 2 columns, cell_y = 1 m; cell_x = 1 m, then 0.3 m, where the
# root of a two-row distance, added to a centre's x, can round short of the
# row's x
TWO_COLUMNS = GridSpec(x_range=(0, 20), y_range=(0, 2), z_range=(-1, 1), height=80, width=8, stride=4)
TWO_COLUMNS_DECIMAL = GridSpec(x_range=(0, 6), y_range=(0, 2), z_range=(-1, 1), height=80, width=8, stride=4)


def _tie_grid(spec, offset_scale):
    rng = np.random.default_rng(6)
    grid = BoxGrid.zeros(spec)
    grid.data[:, :, 0:3] = rng.normal(scale=offset_scale, size=(spec.out_rows, spec.out_cols, 3))
    grid.data[:, :, 7] = rng.random((spec.out_rows, spec.out_cols))
    return grid


def _stray_grid(spec):
    """Random offsets, plus cells moved across the grid next to another cell's
    centre (a far box is then some pixel's nearest) and one moved a whole
    span away: offsets read_box_grid accepts."""
    grid = _tie_grid(spec, 0.4)
    centres = grid_centres(grid, spec).reshape(spec.out_rows, spec.out_cols, 3)
    for stray, host in [((0, 0), (10, 10)), ((19, 19), (3, 15)), ((0, 19), (19, 0))]:
        grid.data[stray][0:3] += centres[host] - centres[stray] + 0.01
    span = np.array([hi - lo for lo, hi in (spec.x_range, spec.y_range, spec.z_range)])
    grid.data[5, 5, 0:3] = span
    assert (np.abs(grid.data[:, :, 0:3]) <= span).all()
    return grid


def _duplicate_grid(spec):
    """Both cells of each row decode to the same centre (d2 == 0 ties), and
    the 8th nearest lies exactly two rows away, on the slab's edge."""
    grid = _tie_grid(spec, 0.0)
    grid.data[:, 0, 1] = 0.5 * spec.cell_y
    grid.data[:, 1, 1] = -0.5 * spec.cell_y
    return grid


@pytest.mark.parametrize(
    "spec, make_grid",
    [
        (OBLONG, lambda spec: _tie_grid(spec, 0.0)),
        (SMALL, lambda spec: _tie_grid(spec, 0.0)),
        (SMALL, lambda spec: _tie_grid(spec, 0.4)),
        (TINY, lambda spec: _tie_grid(spec, 0.0)),
        (SMALL, _stray_grid),
        (TWO_COLUMNS, _duplicate_grid),
        (TWO_COLUMNS_DECIMAL, _duplicate_grid),
        (ONE_CELL, lambda spec: _tie_grid(spec, 0.4)),
        (ONE_ROW, lambda spec: _tie_grid(spec, 0.4)),
    ],
    ids=[
        "paired-ties", "lattice-ties", "random-offsets", "fewer-than-8", "stray",
        "duplicate-centres", "duplicate-centres-decimal", "one-cell", "one-row",
    ],
)
def test_smoothing_equals_full_sort_on_every_pixel(spec, make_grid):
    grid = make_grid(spec)
    pixels = [(r, c) for r in range(spec.out_rows) for c in range(spec.out_cols)]
    expected = [lexsort_smooth(grid, spec, pixel) for pixel in pixels]
    assert [smooth_confidence(grid, spec, pixel) for pixel in pixels] == expected
    assert smoothed_confidences(grid, spec, pixels) == expected


# offsets and confidences drawn from small sets (ties, duplicate centres) or
# from whole ranges (a cell moved across the grid)
OFFSETS = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0]), st.floats(-10.0, 10.0))
CONFIDENCES = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_smoothing_equals_full_sort(data):
    rows, cols = data.draw(st.integers(1, 9), label="rows"), data.draw(st.integers(1, 9), label="cols")
    cell_x, cell_y = data.draw(st.sampled_from([0.1, 0.3, 1.0, 1.5]), label="cell x"), 1.0
    spec = GridSpec(
        x_range=(0.0, rows * cell_x), y_range=(-cols * cell_y, 0.0), z_range=(-1.0, 1.0),
        height=4 * rows, width=4 * cols, stride=4,
    )
    grid = BoxGrid.zeros(spec)
    offsets = data.draw(st.lists(OFFSETS, min_size=rows * cols * 3, max_size=rows * cols * 3), label="offsets")
    grid.data[:, :, 0:3] = np.reshape(offsets, (rows, cols, 3)) * cell_x
    grid.data[:, :, 7] = np.reshape(
        data.draw(st.lists(CONFIDENCES, min_size=rows * cols, max_size=rows * cols), label="confidences"),
        (rows, cols),
    )
    pixel = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    pixels = data.draw(st.lists(pixel, min_size=1, max_size=12), label="pixels")
    assert smoothed_confidences(grid, spec, pixels) == [lexsort_smooth(grid, spec, p) for p in pixels]


@pytest.mark.parametrize("bad", [(20, 0), (0, 20), (-1, 3), (4, -1)])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_out_of_grid_pixel_anywhere_in_a_batch_is_named(bad, at):
    grid = _tie_grid(SMALL, 0.4)
    pixels = [(0, 0), (19, 19)]
    pixels.insert(at, bad)
    with pytest.raises(OutOfGrid, match=re.escape(f"pixel {bad} outside 20x20 grid")):
        smoothed_confidences(grid, SMALL, pixels)
    with pytest.raises(OutOfGrid, match=re.escape(f"pixel {bad} outside 20x20 grid")):
        smooth_confidence(grid, SMALL, bad)
