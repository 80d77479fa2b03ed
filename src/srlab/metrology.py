"""Star-image resolution metrology.

Modulation is extracted ring by ring: pixels in a one-pixel-wide annulus
are fit by least squares to the single angular harmonic at the known
cycle count, giving mean level a, amplitude beta and modulation
M = beta/a.  Pixel distances from the star center are computed and
sorted once per (image shape, center), over the largest centered disc
the image holds, and shared by every ring: each annulus is a
binary-search slice of that table.  The modulation curve is intersected
with the noise-equivalent modulation 4*sigma/signal; the crossing
frequency maps to meters through the HR ground sample
(0.5 cycles/px = 1.25 m).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .fourier import sinc_upsample
from .grid import ImageGrid
from .mtf import GEOMETRY, GeometryConstants
from .target import sector_mask

logger = logging.getLogger(__name__)

__all__ = [
    "RingFit",
    "ResolutionReport",
    "RingError",
    "AliasedRingError",
    "EmptyRingError",
    "InsufficientCurveError",
    "ring_modulation",
    "mtf_curve",
    "nem",
    "crossing_frequency",
    "frequency_to_resolution",
    "measure_resolution",
]

# rings below this many samples per cycle are refused as aliased
MIN_SAMPLES_PER_CYCLE = 2.0
# sinc-upsampling factor per axis of the image the rings are fit on
ANALYSIS_OVERSAMPLE = 4
# width of the moving average the NEM crossing runs on, in rings
CROSSING_SMOOTH = 5
# angular sectors the circle is split into for sector measurements
SECTOR_COUNT = 8


class RingError(ValueError):
    """A single ring could not be fit."""


class AliasedRingError(RingError):
    """Ring sampled too sparsely for its cycle count."""


class EmptyRingError(RingError):
    """Ring annulus leaves the image or holds too few samples."""


class InsufficientCurveError(ValueError):
    """Fewer than three rings survived fitting."""


@dataclass(frozen=True)
class RingFit:
    """Single-ring harmonic fit.

    g is the cycle length in pixels (2*pi*r/cycles); f = 1/g is in cycles
    per grid sample of the measured image.  flagged marks modulations
    above 1, which only pathological (for instance unblurred binary)
    inputs produce.
    """

    radius: float
    g: float
    f: float
    a: float
    beta_amp: float
    alpha0: float
    modulation: float
    n_samples: int
    flagged: bool


@dataclass
class ResolutionReport:
    """Measured modulation curve and the resolution it implies.

    curve holds (f, M) pairs sorted by ascending f, with f in cycles per
    HR pixel.  resolution_m is present exactly when f_cross is.
    ladder_limited marks the zero-NEM policy (crossing pinned to the
    finest measured frequency); degenerate_crossing marks a curve that
    starts at or below the NEM.
    """

    curve: list[tuple[float, float]]
    nem: float
    f_cross: float | None
    resolution_m: float | None
    sector: int | None = None
    rings_dropped: int = 0
    ladder_limited: bool = False
    degenerate_crossing: bool = False


@functools.lru_cache(maxsize=4)
def _sorted_disc(shape: tuple[int, int],
                 center: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and center distances of every pixel of the largest
    centered disc the image holds, sorted by distance.

    The disc reaches one pixel past the margin, so it holds every ring
    ring_modulation accepts.  Both arrays are read-only: every caller
    with this (shape, center) shares them.
    """
    h, w = shape
    r0, c0 = center
    y = (np.arange(h, dtype=np.float64) - r0)[:, None]
    x = (np.arange(w, dtype=np.float64) - c0)[None, :]
    rr = np.hypot(x, y).reshape(-1)
    flat = np.flatnonzero(rr < min(r0, h - 1 - r0, c0, w - 1 - c0) + 1.0)
    flat = flat[np.argsort(rr[flat])]
    dist = rr[flat]
    flat.flags.writeable = False
    dist.flags.writeable = False
    return flat, dist


def ring_modulation(image: ImageGrid, center: tuple[float, float], radius: float,
                    cycles: int, mask: np.ndarray | None = None) -> RingFit:
    """Fit the angular harmonic at the known cycle count on one annulus.

    Gathers pixels with center distance in [radius-0.5, radius+0.5),
    optionally restricted by a binary mask of the image's shape, and
    projects intensity onto cos/sin(cycles * alpha).  The annulus is a
    slice of the distance-sorted pixel disc shared by every ring with
    this (shape, center); its pixels are fit in row-major order and
    angles are computed for them only.  Raises AliasedRingError below 2
    samples per cycle and EmptyRingError when the annulus leaves the
    image.
    """
    if radius < 2:
        raise ValueError("radius must be >= 2 pixels")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    h, w = image.shape
    r0, c0 = float(center[0]), float(center[1])
    margin = min(r0, h - 1 - r0, c0, w - 1 - c0)
    if radius + 0.5 > margin + 1e-9:
        raise EmptyRingError(f"empty ring: radius {radius} leaves the image")

    flat, dist = _sorted_disc((h, w), (r0, c0))
    lo, hi = np.searchsorted(dist, (radius - 0.5, radius + 0.5))
    ring = np.sort(flat[lo:hi])
    n_full = ring.size
    if mask is not None:
        if mask.shape != (h, w):
            raise ValueError(f"mask shape {mask.shape} differs from image {(h, w)}")
        ring = ring[mask.reshape(-1)[ring] > 0.5]
    n = ring.size
    if n_full == 0 or n < 8:
        raise EmptyRingError(f"empty ring: {n} samples at radius {radius}")

    coverage = n / n_full
    samples_per_cycle = n / (cycles * coverage)
    if samples_per_cycle < MIN_SAMPLES_PER_CYCLE:
        raise AliasedRingError(
            f"aliased ring: {samples_per_cycle:.2f} samples/cycle at radius {radius}")

    vals = image.data.reshape(-1)[ring]
    rows, cols = np.divmod(ring, w)
    ring_alpha = np.arctan2(cols - c0, rows - r0)
    # exact least squares of mean + single harmonic: a raw projection
    # would pick up the pixel grid's angular-density harmonics (a
    # constant image must fit to zero modulation)
    design = np.column_stack([np.ones(n), np.cos(cycles * ring_alpha),
                              np.sin(cycles * ring_alpha)])
    (a, c, s), *_ = np.linalg.lstsq(design, vals, rcond=None)
    beta = math.hypot(c, s)
    alpha0 = math.atan2(s, c) / cycles
    modulation = beta / a if a > 0 else math.inf
    g = 2.0 * math.pi * radius / cycles
    return RingFit(
        radius=float(radius), g=g, f=1.0 / g, a=float(a), beta_amp=float(beta),
        alpha0=float(alpha0), modulation=float(modulation), n_samples=n,
        flagged=bool(modulation > 1.0),
    )


def mtf_curve(image: ImageGrid, center: tuple[float, float], cycles: int,
              radii, mask=None) -> tuple[list[RingFit], int]:
    """Fit one ring per radius; returns (fits sorted by ascending f, dropped).

    radii must be strictly decreasing (outer to inner, so frequency
    ascends).  Rings refused as aliased or empty are dropped and counted.
    Raises InsufficientCurveError if fewer than three rings survive.
    """
    radii = list(radii)
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    fits: list[RingFit] = []
    dropped = 0
    for r in radii:
        try:
            fits.append(ring_modulation(image, center, r, cycles, mask=mask))
        except RingError:
            dropped += 1
    if dropped:
        logger.warning("dropped %d of %d rings (aliased or empty)", dropped, len(radii))
    if len(fits) < 3:
        raise InsufficientCurveError(
            f"insufficient curve: only {len(fits)} of {len(radii)} rings usable")
    fits.sort(key=lambda rf: rf.f)
    return fits, dropped


def nem(signal: float, noise_sigma: float) -> float:
    """Noise-equivalent modulation 4*sigma/signal."""
    if signal <= 0:
        raise ValueError("signal must be > 0")
    if noise_sigma < 0:
        raise ValueError("noise sigma must be >= 0")
    return 4.0 * noise_sigma / signal


def crossing_frequency(curve, nem_value: float) -> float | None:
    """First frequency where the modulation curve falls to the NEM.

    curve is a sequence of (f, M) sorted by ascending f with at least
    three points.  Scans from the lowest frequency for the first bracket
    where M transitions from above to at-or-below the NEM and linearly
    interpolates inside it.  A curve that never falls below returns
    None; a curve already at or below the NEM at its first point returns
    that first frequency (degenerate bracket).
    """
    pts = [(float(f), float(m)) for f, m in curve]
    if len(pts) < 3:
        raise ValueError("curve needs at least 3 points")
    fs = [f for f, _ in pts]
    if any(b <= a for a, b in zip(fs, fs[1:])):
        raise ValueError("curve must be sorted by strictly ascending frequency")
    if pts[0][1] <= nem_value:
        logger.warning("curve starts at or below NEM; degenerate crossing at f=%g",
                       pts[0][0])
        return pts[0][0]
    for (f0, m0), (f1, m1) in zip(pts, pts[1:]):
        if m0 > nem_value >= m1:
            return f0 + (f1 - f0) * (m0 - nem_value) / (m0 - m1)
    return None


def frequency_to_resolution(f: float, geometry: GeometryConstants = GEOMETRY) -> float:
    """Map cycles per HR pixel to meters via the HR Nyquist anchor.

    0.5 cycles/px corresponds to 1.25 m, so resolution = 1.25 * 0.5 / f.
    """
    if f <= 0:
        raise ValueError("frequency must be > 0")
    return geometry.hr_gsd_m * (geometry.f_nyq_hr / f)


def _smooth(values: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average with reflected ends."""
    pad = width // 2
    padded = np.concatenate([values[pad:0:-1], values, values[-2:-pad - 2:-1]])
    kernel = np.ones(width) / width
    return np.convolve(padded, kernel, mode="valid")


def measure_resolution(image: ImageGrid, center: tuple[float, float], cycles: int,
                       signal: float, noise_sigma: float, outer_radius: float, *,
                       n_rings: int, sector: int | None = None,
                       geometry: GeometryConstants = GEOMETRY) -> ResolutionReport:
    """Full resolution measurement on a star image sampled on the HR grid
    (a target, blurred scene or reconstruction).

    Rings are evaluated on a sinc-upsampled copy of the image
    (ANALYSIS_OVERSAMPLE per axis) so the harmonic fit stays well
    sampled out to the HR Nyquist; the information content is unchanged
    and frequencies are still reported in cycles per HR pixel.  The
    radius ladder holds n_rings radii (Scenario.n_rings), geometric from
    just inside the star's outer radius down to the aliasing / HR-band
    limit.  The NEM comes from the scenario signal and noise values
    (system constants, not re-estimated from the image).

    center and outer_radius are in HR pixels (star geometry metadata).
    sector, when given, restricts the fits to one of SECTOR_COUNT
    angular sectors.  The report's curve holds the raw per-ring fits; the
    NEM intersection runs on a CROSSING_SMOOTH-point moving average of
    it, which averages out the per-ring pixel-geometry jitter.

    With zero noise the NEM is 0 and can never be crossed; the report
    then pins the crossing to the finest measured frequency and sets
    ladder_limited.
    """
    # HR pixels per sample of the upsampled image the rings are fit on
    pitch = 1.0 / ANALYSIS_OVERSAMPLE
    image = ImageGrid(sinc_upsample(image.data, ANALYSIS_OVERSAMPLE))

    # ladder bounds in grid samples: stay inside the star, above the
    # sampling limit, and inside the HR information band f_hr <= 0.5
    r_top = (outer_radius - 3.0) / pitch
    r_alias = cycles * MIN_SAMPLES_PER_CYCLE / (2.0 * math.pi)
    r_band = cycles / (2.0 * math.pi * geometry.f_nyq_hr * pitch)
    r_bottom = max(r_alias, r_band, 2.0)
    if r_top <= r_bottom:
        raise ValueError(f"outer radius {outer_radius} leaves no measurable rings "
                         f"above the aliasing radius {r_bottom * pitch:.1f}")
    radii = np.geomspace(r_top, r_bottom, n_rings)

    center_grid = (center[0] / pitch, center[1] / pitch)
    mask = None
    if sector is not None:
        mask = sector_mask(image.shape, center_grid, sector, SECTOR_COUNT).data

    fits, dropped = mtf_curve(image, center_grid, cycles, radii, mask=mask)
    curve = [(rf.f / pitch, rf.modulation) for rf in fits]
    smoothed = list(zip([f for f, _ in curve],
                        _smooth(np.array([m for _, m in curve]), CROSSING_SMOOTH)))
    nem_value = nem(signal, noise_sigma)

    ladder_limited = False
    degenerate = False
    if nem_value <= 0:
        f_cross = curve[-1][0]
        ladder_limited = True
    else:
        degenerate = bool(smoothed[0][1] <= nem_value)
        f_cross = crossing_frequency(smoothed, nem_value)

    resolution_m = frequency_to_resolution(f_cross, geometry) if f_cross else None
    return ResolutionReport(
        curve=[(float(f), float(m)) for f, m in curve], nem=float(nem_value),
        f_cross=None if f_cross is None else float(f_cross),
        resolution_m=None if resolution_m is None else float(resolution_m),
        sector=sector, rings_dropped=dropped, ladder_limited=ladder_limited,
        degenerate_crossing=degenerate,
    )
