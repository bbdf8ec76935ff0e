"""BEV rendering with box overlays, written as binary PPM images."""

from __future__ import annotations

import numpy as np

from .bev import GridSpec, pixel_coords
from .geometry import LIDAR

GT_COLOR = (80, 220, 80)
PSEUDO_COLOR = (240, 80, 80)
PROPOSAL_COLOR = (90, 140, 250)


def _draw_line(image, r0, c0, r1, c1, color):
    n = int(max(abs(r1 - r0), abs(c1 - c0))) + 1
    rows = np.round(np.linspace(r0, r1, n)).astype(int)
    cols = np.round(np.linspace(c0, c1, n)).astype(int)
    keep = (rows >= 0) & (rows < image.shape[0]) & (cols >= 0) & (cols < image.shape[1])
    image[rows[keep], cols[keep]] = color


def draw_box_outline(image, box, spec: GridSpec, color):
    """Draw a lidar-frame box's footprint outline onto a BEV image."""
    if box.frame != LIDAR:
        raise ValueError("draw_box_outline expects lidar-frame boxes")
    rows, cols = pixel_coords(box.footprint(), spec, 1)
    for r0, c0, r1, c1 in zip(rows, cols, np.roll(rows, -1), np.roll(cols, -1)):
        _draw_line(image, r0, c0, r1, c1, color)


def render_overlays(raster: np.ndarray, spec: GridSpec, overlays) -> np.ndarray:
    """Render a `rasterize` output as a grayscale image with coloured box outlines.

    `overlays` maps a colour (r, g, b) to a list of lidar-frame boxes.
    """
    value = np.clip(np.maximum(raster[:, :, 0], raster[:, :, 2]) * 255.0, 0, 255).astype(np.uint8)
    image = np.repeat(value[:, :, None], 3, axis=2)
    for color, boxes in overlays:
        for box in boxes:
            draw_box_outline(image, box, spec, color)
    return image


def write_ppm(path, image: np.ndarray):
    """Write an (h, w, 3) uint8 image as a binary PPM."""
    img = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
