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

from .bev import CONFIDENCE, SIZE, YAW, BoxGrid, GridSpec, check_pixel, grid_centres, require_grid_shape


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


def frame_loss_terms(
    grid: BoxGrid, u_plus, u_minus, spec: GridSpec, cfg: LossConfig = LossConfig()
) -> LossBreakdown:
    """Per-term loss over full (U+) and confidence-only (U-) targets.

    Predicted centres are decoded by `grid_centres` (pillar centre + offset,
    lidar frame). Accumulation runs in pixel-sorted order so the result does
    not depend on how the targets were produced.
    """
    require_grid_shape(grid, spec)
    centres = grid_centres(grid, spec).reshape(spec.out_rows, spec.out_cols, 3)
    out = LossBreakdown()
    for label in sorted(u_plus, key=lambda l: l.pixel):
        r, c = check_pixel(label.pixel, spec)
        code = grid.data[r, c]
        out.centre += float(np.sum(balanced_l1(centres[r, c] - label.box.centre, cfg)))
        out.dims += float(np.sum(balanced_l1(code[SIZE] - label.box.dims, cfg)))
        out.yaw += float(balanced_l1(wrap_angle_residual(code[YAW] - label.box.yaw), cfg))
        out.confidence_pos += (float(code[CONFIDENCE]) - label.confidence) ** 2
    for pixel, target in sorted(u_minus, key=lambda p: p[0]):
        r, c = check_pixel(pixel, spec)
        out.confidence_neg += (float(grid.confidence[r, c]) - target) ** 2
    return out


def frame_loss(
    grid: BoxGrid, u_plus, u_minus, spec: GridSpec, cfg: LossConfig = LossConfig()
) -> float:
    return frame_loss_terms(grid, u_plus, u_minus, spec, cfg).total
