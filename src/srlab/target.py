"""Siemens-star (spoke) test targets.

The spoke pattern is binary: bright where cos(cycles * alpha) >= 0, dark
otherwise, with alpha = atan2(x, y) measured from the star center (x =
across-track/column offset, y = along-track/row offset; alpha = 0 on the
+y axis).  Outside the spoke annulus the image sits at the mean level so
the background equals the star's mean signal.

Rasterization is by area-average supersampling: each HR cell averages
the binary pattern over supersample^2 sub-points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import math
import sys

import numpy as np

from .grid import MAX_PIXELS

__all__ = ["StarSpec", "generate_spoke_target", "pattern_angle"]


@dataclass(frozen=True)
class StarSpec:
    """Spoke target geometry and radiometry.

    cycles is the number of bright/dark periods around the full circle
    (144 by default).  Radii and center are in HR pixels.  supersample is
    the number of anti-aliasing sub-points per HR pixel per axis.
    """

    cycles: int = 144
    outer_radius: float = 104.0
    inner_radius: float = 8.0
    dark_level: float = 0.0
    bright_level: float = 600.0
    center: tuple[float, float] = (128.0, 128.0)
    supersample: int = 4

    def __post_init__(self):
        for name in ("outer_radius", "inner_radius", "dark_level", "bright_level"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("center must be finite")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        if self.cycles > sys.float_info.max:  # the pattern takes cycles * alpha
            raise ValueError(f"cycles must be <= {sys.float_info.max!r}, the float range")
        if self.inner_radius < 0 or self.inner_radius >= self.outer_radius:
            raise ValueError("need 0 <= inner_radius < outer_radius")
        if self.dark_level >= self.bright_level:
            raise ValueError("dark_level must be < bright_level")
        if self.supersample < 1:
            raise ValueError("supersample must be >= 1")
        # generate_spoke_target evaluates supersample^2 sub-points per cell
        # of the star's box
        top, bottom, left, right = _box(self.center, self.outer_radius, (math.inf, math.inf))
        box = (bottom - top) * (right - left)
        if self.supersample ** 2 * box > MAX_PIXELS:
            raise ValueError(f"supersample {self.supersample}: the star's {box}-cell "
                             f"box at supersample^2 sub-points per cell is more than "
                             f"{MAX_PIXELS} sub-points")
        # a cell sums supersample^2 sub-point levels, the mean level among them
        bound = (abs(self.dark_level) + abs(self.bright_level)) * self.supersample ** 2
        if not math.isfinite(bound):
            raise ValueError(f"dark_level {self.dark_level!r} and bright_level "
                             f"{self.bright_level!r} overflow when summed over "
                             f"supersample^2 sub-points")

    @property
    def mean_level(self) -> float:
        return 0.5 * (self.dark_level + self.bright_level)


def _box(center, radius: float, size) -> tuple[int, int, int, int]:
    """(top, bottom, left, right): the rows [top, bottom) and columns [left,
    right) within one pixel of a circle, on a grid of size (height, width)."""
    (r0, c0), (height, width) = center, size
    return (max(0, math.floor(r0 - radius - 1)), min(height, math.ceil(r0 + radius + 2)),
            max(0, math.floor(c0 - radius - 1)), min(width, math.ceil(c0 + radius + 2)))


def pattern_angle(x, y):
    """Spoke angle atan2(x, y) normalized to [0, 2*pi)."""
    a = np.arctan2(x, y)
    a = np.where(a < 0, a + 2.0 * np.pi, a)
    # a tiny negative input can wrap to exactly 2*pi
    return np.where(a >= 2.0 * np.pi, 0.0, a)


def generate_spoke_target(spec: StarSpec, size: tuple[int, int]) -> np.ndarray:
    """Rasterize a spoke target onto an HR grid of the given (height, width).

    Each cell is the mean of the continuous pattern over supersample^2
    sub-points covering the cell.  Sub-points are evaluated only over the
    star's bounding box (outer radius + 1 px); every cell outside it
    holds the mean of supersample^2 mean-level sub-points, summed in the
    same order.  Deterministic: identical spec gives bit-identical
    output.

    Raises if the star would be clipped by the grid.
    """
    height, width = int(size[0]), int(size[1])
    r0, c0 = spec.center
    rad = spec.outer_radius
    if r0 - rad < 0 or r0 + rad > height - 1 or c0 - rad < 0 or c0 + rad > width - 1:
        raise ValueError(
            f"star of radius {rad} at {spec.center} clipped by grid {height}x{width}")

    s = spec.supersample
    offsets = (np.arange(s) + 0.5) / s - 0.5
    top, bottom, left, right = _box(spec.center, rad, (height, width))
    rows = np.arange(top, bottom, dtype=np.float64)
    cols = np.arange(left, right, dtype=np.float64)

    acc = np.zeros((bottom - top, right - left))
    outside = 0.0
    for dy, dx in product(offsets, offsets):
        y = (rows + dy - r0)[:, None]
        x = (cols + dx - c0)[None, :]
        rr = np.hypot(x, y)
        alpha = np.arctan2(x, y)
        spoke = np.where(np.cos(spec.cycles * alpha) >= 0.0,
                         spec.bright_level, spec.dark_level)
        inside = (rr >= spec.inner_radius) & (rr <= spec.outer_radius)
        acc += np.where(inside, spoke, spec.mean_level)
        outside += spec.mean_level
    image = np.full((height, width), outside / (s * s))
    image[top:bottom, left:right] = acc / (s * s)
    return image

