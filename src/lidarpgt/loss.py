"""Per-frame training loss comparing a predicted box grid to pseudo labels.

Full targets (U+) penalize the centre, dims and yaw residuals with a balanced
L1 and the confidence with a squared difference; confidence-only targets (U-)
contribute just the squared confidence term. The squared (rather than
absolute) confidence penalty keeps the term smooth at zero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bev import BoxGrid, GridSpec, pillar_centre
from .errors import PixelOutOfRange


@dataclass(frozen=True)
class LossConfig:
    """Balanced-L1 shape parameters (log inner branch, linear outer branch)."""

    alpha: float = 0.5
    gamma: float = 1.5

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0):
            raise ValueError("alpha and gamma must be positive")
        try:
            finite = math.isfinite(self.c_const)
        except (OverflowError, ZeroDivisionError):  # b = expm1(gamma / alpha) is inf or 0
            finite = False
        if not finite:
            raise ValueError(
                f"gamma / alpha = {self.gamma / self.alpha:g} gives balanced-L1 constants "
                "beyond the float range"
            )

    @property
    def b(self) -> float:
        return math.expm1(self.gamma / self.alpha)

    @property
    def c_const(self) -> float:
        b = self.b
        return (self.alpha / b) * (b + 1.0) * math.log(b + 1.0) - self.alpha - self.gamma


def balanced_l1(x, cfg: LossConfig = LossConfig()):
    """Balanced L1 of a scalar or array, elementwise.

    |x| < 1: (a/b)(b|x|+1)ln(b|x|+1) - a|x|; otherwise g|x| + C, with C chosen
    so the branches meet at |x| = 1.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    a, g, b = cfg.alpha, cfg.gamma, cfg.b
    inner = (a / b) * (b * ax + 1.0) * np.log(b * ax + 1.0) - a * ax
    outer = g * ax + cfg.c_const
    out = np.where(ax < 1.0, inner, outer)
    return float(out) if out.ndim == 0 else out


def balanced_l1_grad(x, cfg: LossConfig = LossConfig()):
    """Derivative of balanced_l1; continuous because a*ln(b+1) = g."""
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr)
    a, g, b = cfg.alpha, cfg.gamma, cfg.b
    inner = a * np.log(b * ax + 1.0)
    out = np.sign(arr) * np.where(ax < 1.0, inner, g)
    return float(out) if out.ndim == 0 else out


def wrap_angle_residual(delta) -> float:
    """Map an angle difference into [-pi/2, pi/2) under the boxes' pi-symmetry."""
    return (float(delta) + 0.5 * math.pi) % math.pi - 0.5 * math.pi


@dataclass
class LossBreakdown:
    centre: float = 0.0
    dims: float = 0.0
    yaw: float = 0.0
    confidence_pos: float = 0.0
    confidence_neg: float = 0.0

    @property
    def total(self) -> float:
        return self.centre + self.dims + self.yaw + self.confidence_pos + self.confidence_neg


def _checked_code(grid: BoxGrid, pixel) -> list[float]:
    r, c = pixel
    if not (0 <= r < grid.rows and 0 <= c < grid.cols):
        raise PixelOutOfRange(f"pixel {(r, c)} outside {grid.rows}x{grid.cols} grid")
    return grid.data[r, c].tolist()


def frame_loss_terms(
    grid: BoxGrid, u_plus, u_minus, spec: GridSpec, cfg: LossConfig = LossConfig()
) -> LossBreakdown:
    """Per-term loss over full (U+) and confidence-only (U-) targets.

    Predicted centres are decoded (pillar centre + offset) in lidar space
    before comparison. Accumulation runs in pixel-sorted order so the result
    does not depend on how the targets were produced.
    """
    out = LossBreakdown()
    for label in sorted(u_plus, key=lambda l: l.pixel):
        code = _checked_code(grid, label.pixel)
        predicted_centre = pillar_centre(label.pixel, spec) + code[0:3]
        out.centre += float(np.sum(balanced_l1(predicted_centre - label.box.centre, cfg)))
        out.dims += float(np.sum(balanced_l1(code[3:6] - label.box.dims, cfg)))
        out.yaw += float(balanced_l1(wrap_angle_residual(code[6] - label.box.yaw), cfg))
        out.confidence_pos += (code[7] - label.confidence) ** 2
    for pixel, target in sorted(u_minus, key=lambda p: p[0]):
        out.confidence_neg += (_checked_code(grid, pixel)[7] - target) ** 2
    return out


def frame_loss(
    grid: BoxGrid, u_plus, u_minus, spec: GridSpec, cfg: LossConfig = LossConfig()
) -> float:
    return frame_loss_terms(grid, u_plus, u_minus, spec, cfg).total
