import math
import re

import numpy as np
import pytest

from lidarpgt.bev import BoxGrid, GridSpec, encode_box, pillar_centre
from lidarpgt.errors import OutOfGrid, ShapeMismatch
from lidarpgt.geometry import LIDAR, Obb3
from lidarpgt.loss import (
    LossConfig,
    balanced_l1,
    balanced_l1_grad,
    frame_loss,
    frame_loss_terms,
    wrap_angle_residual,
)
from lidarpgt.pipeline import PseudoLabel

SPEC = GridSpec(x_range=(0.0, 20.0), y_range=(-10.0, 10.0), z_range=(-2.0, 2.0), height=80, width=80, stride=4)


class TestBalancedL1:
    def test_zero(self):
        assert balanced_l1(0.0) == 0.0

    def test_branch_continuity(self):
        cfg = LossConfig()
        a, g, b = cfg.alpha, cfg.gamma, cfg.b
        inner = (a / b) * (b + 1.0) * math.log(b + 1.0) - a
        outer = g * 1.0 + cfg.c_const
        assert abs(inner - outer) < 1e-9

    def test_value_at_half(self):
        # independent high-precision evaluation in extended precision
        a = np.longdouble(0.5)
        g = np.longdouble(1.5)
        b = np.expm1(g / a)
        x = np.longdouble(0.5)
        expected = (a / b) * (b * x + 1) * np.log(b * x + 1) - a * x
        assert balanced_l1(0.5) == pytest.approx(float(expected), abs=1e-12)

    def test_even_function(self):
        xs = np.linspace(-4, 4, 401)
        vals = balanced_l1(xs)
        assert np.allclose(vals, balanced_l1(-xs))

    def test_monotone_and_continuous(self):
        xs = np.linspace(0, 5, 5001)
        vals = balanced_l1(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.abs(np.diff(vals)).max() < 0.01  # no jumps on a dense grid

    def test_gradient_matches_finite_differences(self):
        h = 1e-7
        for x in (-2.5, -0.7, -0.2, 0.3, 0.9, 1.4, 3.0):
            fd = (balanced_l1(x + h) - balanced_l1(x - h)) / (2 * h)
            assert balanced_l1_grad(x) == pytest.approx(fd, rel=1e-5)

    def test_alternative_parameters_still_continuous(self):
        cfg = LossConfig(alpha=0.75, gamma=2.0)
        left = balanced_l1(1.0 - 1e-12, cfg)
        right = balanced_l1(1.0 + 1e-12, cfg)
        assert abs(left - right) < 1e-9

    @pytest.mark.parametrize(
        "alpha, gamma", [(0.001, 1.0), (1.0, 1e-310), (1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)]
    )
    def test_parameters_beyond_float_range_rejected(self, alpha, gamma):
        # gamma / alpha = 1000 overflows b = expm1(gamma / alpha); 1e-310 makes C NaN
        with pytest.raises(ValueError):
            LossConfig(alpha=alpha, gamma=gamma)


class TestWrapAngle:
    def test_small_difference_unchanged(self):
        assert wrap_angle_residual(0.3) == pytest.approx(0.3)

    def test_pi_symmetry(self):
        assert wrap_angle_residual(math.pi) == pytest.approx(0.0, abs=1e-12)
        assert abs(wrap_angle_residual(math.pi / 2 + 0.1)) == pytest.approx(math.pi / 2 - 0.1)


def make_label(pixel, spec, dims=(1.8, 1.6, 4.2), yaw=0.2, conf=0.7, offset=(0.0, 0.0, 0.0)):
    centre = pillar_centre(pixel, spec) + np.asarray(offset)
    return PseudoLabel(pixel, Obb3(centre, dims, yaw, LIDAR), conf, "vehicle")


class TestFrameLoss:
    def test_zero_on_perfect_predictions(self):
        grid = BoxGrid.zeros(SPEC)
        labels = []
        for pixel in [(2, 3), (10, 11), (19, 0)]:
            label = make_label(pixel, SPEC, offset=(0.05, -0.08, 0.3), conf=0.6)
            _, code = encode_box(label.box, SPEC, confidence=label.confidence)
            grid.set_code(pixel, code)
            labels.append(label)
        minus = [((5, 5), 0.0), ((7, 7), 0.25)]
        grid.data[7, 7, 7] = 0.25
        assert frame_loss(grid, labels, minus, SPEC) == pytest.approx(0.0, abs=1e-18)

    def test_u_minus_only(self):
        grid = BoxGrid.zeros(SPEC)
        grid.data[4, 4, 7] = 0.5
        loss = frame_loss(grid, [], [((4, 4), 0.1), ((6, 6), 0.2)], SPEC)
        assert loss == pytest.approx(0.4**2 + 0.2**2)

    def test_single_pixel_residuals_compose(self):
        grid = BoxGrid.zeros(SPEC)
        label = make_label((8, 8), SPEC, dims=(2.0, 1.5, 4.0), yaw=0.1, conf=0.9)
        # prediction: delta zero (centre residual = -offset... here centre = pillar),
        # dims (1,1,1), yaw 0.4, confidence 0.2
        grid.data[8, 8, 3:6] = [1.0, 1.0, 1.0]
        grid.data[8, 8, 6] = 0.4
        grid.data[8, 8, 7] = 0.2
        expected = (
            float(np.sum(balanced_l1(np.zeros(3))))
            + float(np.sum(balanced_l1(np.array([1.0, 1.0, 1.0]) - np.array([2.0, 1.5, 4.0]))))
            + float(balanced_l1(wrap_angle_residual(0.4 - 0.1)))
            + (0.2 - 0.9) ** 2
        )
        assert frame_loss(grid, [label], [], SPEC) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_and_zero_iff_zero_residuals(self):
        rng = np.random.default_rng(0)
        grid = BoxGrid.zeros(SPEC)
        grid.data[:] = rng.normal(scale=0.3, size=grid.data.shape)
        grid.data[:, :, 3:6] = np.abs(grid.data[:, :, 3:6]) + 0.2
        grid.data[:, :, 7] = rng.random((20, 20))
        labels = [make_label((3, 3), SPEC), make_label((12, 17), SPEC)]
        minus = [((0, 0), 0.3)]
        assert frame_loss(grid, labels, minus, SPEC) > 0.0

    def test_pixel_out_of_range(self):
        grid = BoxGrid.zeros(SPEC)
        label = make_label((2, 2), SPEC)
        bad = PseudoLabel((25, 2), label.box, label.confidence, label.anchor)
        with pytest.raises(OutOfGrid, match=r"pixel \(25, 2\) outside 20x20 grid"):
            frame_loss(grid, [bad], [], SPEC)

    @pytest.mark.parametrize("pixel", [(20, 3), (3, 20), (-1, 3), (3, -1)])
    def test_u_minus_pixel_out_of_grid(self, pixel):
        with pytest.raises(OutOfGrid, match=re.escape(f"pixel {pixel} outside 20x20 grid")):
            frame_loss(BoxGrid.zeros(SPEC), [], [(pixel, 0.5)], SPEC)

    def test_grid_shape_must_match_spec(self):
        grid = BoxGrid(np.zeros((SPEC.out_rows + 1, SPEC.out_cols, 8)))
        with pytest.raises(ShapeMismatch):
            frame_loss(grid, [], [((0, 0), 0.5)], SPEC)

    def test_gradient_check_against_analytic(self):
        rng = np.random.default_rng(1)
        grid = BoxGrid.zeros(SPEC)
        pixel = (6, 9)
        grid.data[pixel][0:3] = [0.4, -0.3, 0.2]
        grid.data[pixel][3:6] = [2.2, 1.4, 3.9]
        grid.data[pixel][6] = 0.35
        grid.data[pixel][7] = 0.55
        label = make_label(pixel, SPEC, dims=(1.9, 1.7, 4.4), yaw=0.05, conf=0.8, offset=(0.12, 0.2, -0.1))
        minus = [((2, 2), 0.4)]
        grid.data[2, 2, 7] = 0.15
        cfg = LossConfig()

        def loss():
            return frame_loss(grid, [label], minus, SPEC, cfg)

        h = 1e-6
        pred_centre = pillar_centre(pixel, SPEC) + grid.data[pixel][0:3]
        analytic = {}
        for ch in range(3):
            analytic[ch] = balanced_l1_grad(pred_centre[ch] - label.box.centre[ch], cfg)
        for ch in range(3, 6):
            analytic[ch] = balanced_l1_grad(grid.data[pixel][ch] - label.box.dims[ch - 3], cfg)
        analytic[6] = balanced_l1_grad(wrap_angle_residual(grid.data[pixel][6] - label.box.yaw), cfg)
        analytic[7] = 2.0 * (grid.data[pixel][7] - label.confidence)
        for ch, expected in analytic.items():
            orig = grid.data[pixel][ch]
            grid.data[pixel][ch] = orig + h
            up = loss()
            grid.data[pixel][ch] = orig - h
            down = loss()
            grid.data[pixel][ch] = orig
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(expected, rel=1e-4), f"channel {ch}"
        # confidence-only pixel
        orig = grid.data[2, 2, 7]
        grid.data[2, 2, 7] = orig + h
        up = loss()
        grid.data[2, 2, 7] = orig - h
        down = loss()
        grid.data[2, 2, 7] = orig
        assert (up - down) / (2 * h) == pytest.approx(2.0 * (orig - 0.4), rel=1e-4)

    def test_breakdown_sums_to_total(self):
        grid = BoxGrid.zeros(SPEC)
        label = make_label((5, 5), SPEC, conf=0.2)
        grid.data[5, 5, 3:6] = 0.5
        terms = frame_loss_terms(grid, [label], [((1, 1), 0.9)], SPEC)
        assert terms.total == pytest.approx(
            terms.centre + terms.dims + terms.yaw + terms.confidence_pos + terms.confidence_neg
        )
