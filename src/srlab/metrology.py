"""Star-image resolution metrology.

Modulation is extracted ring by ring: pixels in a one-pixel-wide annulus
are fit by least squares to the single angular harmonic at the known
cycle count, giving mean level a, amplitude beta and modulation
M = beta/a.  One lookup finds a radius ladder's rings, on the full circle
or in one angular sector, once per (image shape, center, radii, cycles,
sector) and caches them, a ladder's full circle and all its sectors at
once, as a read-only ring table: every ring's pixel indices in row-major
order, the stable order that groups them by ring, each ring's full-circle
count and every constant of the fits (the harmonic's cos/sin columns less
their ring means, those means and each ring's 2x2 normal matrix).  All
rings are then fit in one vectorized pass over the table: the image's
value at every sample, centred per ring, two segment sums per ring and one
batched solve.  measure_resolution computes its upsampled image a band of
rows at a time, each band one contiguous slice of the row-major values,
and never holds it whole.  The modulation curve is intersected with the
noise-equivalent modulation 4*sigma/signal; the crossing frequency maps to
meters through the HR ground sample (0.5 cycles/px = 1.25 m).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .fourier import sinc_columns, sinc_rows
from .grid import MAX_PIXELS, check_image
from .mtf import GEOMETRY
from .target import _box, pattern_angle

logger = logging.getLogger(__name__)

__all__ = [
    "RingFit",
    "ResolutionReport",
    "RingError",
    "AliasedRingError",
    "EmptyRingError",
    "InsufficientCurveError",
    "ring_modulation",
    "nem",
    "crossing_frequency",
    "frequency_to_resolution",
    "measure_resolution",
    "check_ladder_fits",
]

# rings below this many samples per cycle are refused as aliased
MIN_SAMPLES_PER_CYCLE = 2.0
# sinc-upsampling factor per axis of the image the rings are fit on
ANALYSIS_OVERSAMPLE = 4
# width of the moving average the NEM crossing runs on, in rings
CROSSING_SMOOTH = 5
# angular sectors the circle is split into for sector measurements
SECTOR_COUNT = 8
# HR pixels between a star's outer radius and its ladder's outer ring
LADDER_MARGIN = 3.0


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


# rows of the ring table's bounding box binned per hypot call, and
# upsampled per sinc_rows call (about 1 MB at the default 1024 columns)
_TABLE_BAND_ROWS = 64


@dataclass(frozen=True)
class _RingTable:
    """The annulus samples of a radius ladder, on the full circle or in
    one sector, and every constant of their fits (see _ring_table).

    samples holds every ring's flat pixel indices in row-major order,
    and order is the stable permutation that groups them by ring: ring i
    owns samples[order][starts[i]:starts[i] + counts[i]] and holds
    full_counts[i] samples on the full circle.  cos and sin hold
    cos/sin(cycles * alpha) of each sample in ring order less its ring's
    mean, mean_cos and mean_sin those means, and normal each ring's 2x2
    normal matrix of the centred columns (zero for a ring with no
    samples): a fit needs only the image's values.  bands holds (first
    row, end row, end in samples) of each _TABLE_BAND_ROWS-row band.
    """

    samples: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    full_counts: np.ndarray
    order: np.ndarray
    bands: tuple[tuple[int, int, int], ...]
    cos: np.ndarray
    sin: np.ndarray
    mean_cos: np.ndarray
    mean_sin: np.ndarray
    normal: np.ndarray


def _ring_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each ring's sum of its segment of values (0 for a ring with no
    samples)."""
    filled = counts > 0
    sums = np.zeros(counts.size)
    sums[filled] = np.add.reduceat(values, starts[filled])
    return sums


def _centre(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Subtract each ring's mean from its segment of values, in place,
    and return the means (0 for a ring with no samples)."""
    mean = _ring_sums(values, starts, counts)
    filled = counts > 0
    mean[filled] /= counts[filled]
    values -= np.repeat(mean, counts)
    return mean


def _harmonic(samples: np.ndarray, width: int, center: tuple[float, float], cycles: int,
              starts: np.ndarray, counts: np.ndarray):
    """(cos, sin, mean_cos, mean_sin, normal) of _RingTable for the
    ring-grouped flat pixel indices samples of an image width pixels
    wide, with alpha = arctan2(col - c0, row - r0).  samples and each
    temporary go once used, so the peak stays near the result's size."""
    rows, cols = np.divmod(samples, width)
    del samples
    x = cols - center[1]
    del cols
    angle = rows - center[0]
    del rows
    np.arctan2(x, angle, out=angle)
    del x
    angle *= cycles
    cos = np.cos(angle)
    sin = np.sin(angle, out=angle)
    mean_cos, mean_sin = _centre(cos, starts, counts), _centre(sin, starts, counts)
    s_cs = _ring_sums(cos * sin, starts, counts)
    normal = np.stack([_ring_sums(cos * cos, starts, counts), s_cs, s_cs,
                       _ring_sums(sin * sin, starts, counts)], axis=-1).reshape(-1, 2, 2)
    return cos, sin, mean_cos, mean_sin, normal


@functools.lru_cache(maxsize=2 * (SECTOR_COUNT + 1))  # two ladders' circles and sectors
def _ring_table(shape: tuple[int, int], center: tuple[float, float],
                radii: tuple[float, ...], cycles: int, sector: int | None) -> _RingTable:
    """Samples of every ring of a strictly decreasing radius ladder, in
    one sector k (pattern_angle in [k, k+1) * 2*pi/SECTOR_COUNT) or, for
    sector None, on the full circle.

    Ring i holds the pixels with center distance in [radii[i] - 0.5,
    radii[i] + 0.5), so rings under 1 px apart share pixels.  Distances
    are computed over the outer ring's bounding box, a band of rows at a
    time, and each is binned against the ladder's edges, which gives the
    full-circle counts; a sector then keeps the pixels whose offsets it
    holds, and lists no band left empty.  The samples stay in the bands'
    row-major order; a stable sort by ring is the order that groups them.
    Pixel indices are int32 and ring keys the smallest unsigned type, and
    each temporary is dropped once used, so the build peaks near the
    table's own size.  The arrays are read-only: every caller with this
    key shares them.
    """
    h, w = shape
    r0, c0 = center
    span = 2.0 * np.pi / SECTOR_COUNT
    ascending = np.array(radii[::-1], dtype=np.float64)
    lower, upper = ascending - 0.5, ascending + 0.5
    lo_r, hi_r, lo_c, hi_c = _box(center, ascending[-1], shape)
    x = (np.arange(lo_c, hi_c, dtype=np.float64) - c0)[None, :]
    # int32 holds the flat index of any image a file may hold, upsampled
    index = np.int32 if h * w <= np.iinfo(np.int32).max else np.int64
    # small unsigned keys take numpy's linear-time radix sort
    key = np.min_scalar_type(len(radii))
    # per ascending ring: +1 per pixel whose rings start there, -1 past their end
    steps = np.zeros(len(radii) + 1, dtype=np.int64)
    pixels, rings, bands, stop = [], [], [], 0
    for band in range(lo_r, hi_r, _TABLE_BAND_ROWS):
        end = min(band + _TABLE_BAND_ROWS, hi_r)
        y = (np.arange(band, end, dtype=np.float64) - r0)[:, None]
        dist = np.hypot(x, y)
        rows, cols = np.nonzero((dist >= lower[0]) & (dist < upper[-1]))
        dist = dist[rows, cols]
        # rings k with lower[k] <= dist < upper[k] are first <= k < last
        first = np.searchsorted(upper, dist, side="right")
        last = np.searchsorted(lower, dist, side="right")
        steps += np.bincount(first, minlength=steps.size)
        steps -= np.bincount(last, minlength=steps.size)
        if sector is not None:
            # _ring_lookup's radii >= 2 keep the center, whose angle is
            # undefined, out of every ring
            alpha = pattern_angle(x[0, cols], y[rows, 0])
            kept = (alpha >= sector * span) & (alpha < (sector + 1) * span)
            rows, cols, first, last = rows[kept], cols[kept], first[kept], last[kept]
        reps = last - first
        within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        pixels.append(np.repeat(((rows + band) * w + cols + lo_c).astype(index), reps))
        # index into radii
        rings.append((len(radii) - 1 - np.repeat(first, reps) - within).astype(key))
        if pixels[-1].size:
            stop += pixels[-1].size
            bands.append((band, end, stop))
    rings = np.concatenate(rings)
    order = np.argsort(rings, kind="stable").astype(np.int32)
    counts = np.bincount(rings, minlength=len(radii))
    samples = np.concatenate(pixels)
    del rings, pixels
    starts = np.cumsum(counts) - counts
    full_counts = np.cumsum(steps)[-2::-1]  # in radii's order
    table = _RingTable(samples, starts, counts, full_counts, order, tuple(bands),
                       *_harmonic(samples[order], w, center, cycles, starts, counts))
    for array in vars(table).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return table


def _ring_lookup(shape: tuple[int, int], center, radii, cycles: int, sector: int | None):
    """(an EmptyRingError per ring that leaves an image of this shape, the
    other radii, their cached _RingTable or None if none is left) for a
    strictly decreasing ladder, on the full circle or in one sector.  Every
    fit and the plan warm-up reach _ring_table here; a bad argument, a
    sector too, is refused before any table is built or ring set aside."""
    if sector is not None and not 0 <= sector < SECTOR_COUNT:
        raise ValueError(f"sector_index {sector} outside [0, {SECTOR_COUNT})")
    radii = tuple(float(r) for r in radii)
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if any(r < 2 for r in radii):
        raise ValueError("radius must be >= 2 pixels")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    h, w = shape
    r0, c0 = float(center[0]), float(center[1])
    margin = min(r0, h - 1 - r0, c0, w - 1 - c0)
    n_out = sum(1 for r in radii if r + 0.5 > margin + 1e-9)
    outside = [EmptyRingError(f"empty ring: radius {r} leaves the image")
               for r in radii[:n_out]]
    radii = radii[n_out:]
    table = _ring_table((h, w), (r0, c0), radii, cycles, sector) if radii else None
    return outside, radii, table


def _fit_rings(values: np.ndarray, table: _RingTable, radii,
               cycles: int) -> list[RingFit | RingError]:
    """Fit the angular harmonic on every ring of a ring table and its radii
    (from _ring_lookup) in one pass; entry i is ring i's fit or RingError.

    values is a new array of the image's value at each sample of the
    table, which the fit centres in place; the table holds every other
    constant of the fits.  One batched solve fits all rings.  Values and
    columns enter the sums less their ring means, so a large image
    offset stays out of the harmonic's rounding.
    """
    results: list[RingFit | RingError] = []
    n, starts = table.counts, table.starts
    # a sector thins a ring without changing how densely it samples a cycle
    samples_per_cycle = table.full_counts / cycles
    empty = n < 8
    fit = ~empty & ~(samples_per_cycle < MIN_SAMPLES_PER_CYCLE)

    if fit.any():
        # exact least squares of mean + single harmonic: a raw projection
        # would pick up the pixel grid's angular-density harmonics (a
        # constant image must fit to zero modulation).  With every column
        # less its ring mean the mean splits off and the harmonic is a
        # 2x2 solve, well conditioned even on a one-sector arc.
        mean = _centre(values, starts, n)[fit]
        rhs = np.stack([_ring_sums(values * table.cos, starts, n),
                        _ring_sums(values * table.sin, starts, n)], axis=-1)[fit]
        c, s = np.linalg.solve(table.normal[fit], rhs[..., None])[..., 0].T
        a = mean - c * table.mean_cos[fit] - s * table.mean_sin[fit]
        fitted = zip(a.tolist(), c.tolist(), s.tolist())

    for k, radius in enumerate(radii):
        if empty[k]:
            results.append(EmptyRingError(f"empty ring: {n[k]} samples at radius {radius}"))
        elif not fit[k]:
            results.append(AliasedRingError(
                f"aliased ring: {samples_per_cycle[k]:.2f} samples/cycle at radius {radius}"))
        else:
            a, c, s = next(fitted)
            beta = math.hypot(c, s)
            modulation = beta / a if a > 0 else math.inf
            g = 2.0 * math.pi * radius / cycles
            results.append(RingFit(
                radius=radius, g=g, f=1.0 / g, a=a, beta_amp=beta,
                alpha0=math.atan2(s, c) / cycles, modulation=modulation,
                n_samples=int(n[k]), flagged=modulation > 1.0))
    return results


def ring_modulation(image: np.ndarray, center: tuple[float, float], radius: float,
                    cycles: int) -> RingFit:
    """Fit the angular harmonic at the known cycle count on one annulus.

    Gathers pixels with center distance in [radius-0.5, radius+0.5) and
    fits intensity by least squares to a mean plus cos/sin(cycles *
    alpha).  This is measure_resolution's pass on a one-ring ladder.
    Raises AliasedRingError below 2 samples per cycle and EmptyRingError
    when the annulus leaves the image or holds fewer than 8 samples.
    """
    image = check_image(image, "image")
    outside, radii, table = _ring_lookup(image.shape, center, [radius], cycles, None)
    (result,) = outside or _fit_rings(image.reshape(-1)[table.samples[table.order]], table,
                                      radii, cycles)
    if isinstance(result, RingError):
        raise result
    return result


def nem(signal: float, noise_sigma: float) -> float:
    """Noise-equivalent modulation 4*sigma/signal."""
    if not 0 < signal < math.inf:
        raise ValueError(f"signal must be finite and > 0, got {signal!r}")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise sigma must be finite and >= 0, got {noise_sigma!r}")
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


def frequency_to_resolution(f: float) -> float:
    """Map cycles per HR pixel to meters via the HR Nyquist anchor.

    0.5 cycles/px corresponds to 1.25 m, so resolution = 1.25 * 0.5 / f.
    """
    if f <= 0:
        raise ValueError("frequency must be > 0")
    return GEOMETRY.hr_gsd_m * (GEOMETRY.f_nyq_hr / f)


def _smooth(values: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average with reflected ends."""
    pad = width // 2
    padded = np.concatenate([values[pad:0:-1], values, values[-2:-pad - 2:-1]])
    kernel = np.ones(width) / width
    return np.convolve(padded, kernel, mode="valid")


def _ladder(center, cycles: int, outer_radius: float, n_rings: int):
    """measure_resolution's rings on the upsampled image: the star center
    and the strictly decreasing radii, both in samples of that image."""
    # HR pixels per sample of the upsampled image the rings are fit on
    pitch = 1.0 / ANALYSIS_OVERSAMPLE
    # ladder bounds in grid samples: stay inside the star, above the
    # sampling limit, and inside the HR information band f_hr <= 0.5
    r_top = (outer_radius - LADDER_MARGIN) / pitch
    r_alias = cycles * MIN_SAMPLES_PER_CYCLE / (2.0 * math.pi)
    r_band = cycles / (2.0 * math.pi * GEOMETRY.f_nyq_hr * pitch)
    r_bottom = max(r_alias, r_band, 2.0)
    if r_top <= r_bottom:
        raise ValueError(f"outer radius {outer_radius} leaves no measurable rings "
                         f"above the aliasing radius {r_bottom * pitch:.1f}")
    radii = np.geomspace(r_top, r_bottom, n_rings)
    return (center[0] / pitch, center[1] / pitch), radii


def check_ladder_fits(n_rings: int, outer_radius: float) -> None:
    """ValueError if measure_resolution's n_rings-ring ladder for a star
    of this outer radius would hold more than grid.MAX_PIXELS samples,
    found before any ring is built.  A ring of radius r holds about
    2*pi*r samples; each ring is counted at _ladder's outermost radius."""
    per_ring = 2.0 * math.pi * (outer_radius - LADDER_MARGIN) * ANALYSIS_OVERSAMPLE
    if per_ring > 0 and n_rings > MAX_PIXELS / per_ring:
        raise ValueError(f"n_rings {n_rings}: a ladder of rings of up to {per_ring:.0f} "
                         f"samples each would hold more than {MAX_PIXELS} samples")


def _ladder_rings(shape: tuple[int, int], center: tuple[float, float], cycles: int,
                  outer_radius: float, n_rings: int, sector: int | None):
    """_ring_lookup of measure_resolution's ladder (_ladder) for an HR
    image of this shape, on its ANALYSIS_OVERSAMPLE upsample: the
    measurement and the plan warm-up both look the table up here."""
    center_grid, radii = _ladder(center, cycles, outer_radius, n_rings)
    up_shape = (shape[0] * ANALYSIS_OVERSAMPLE, shape[1] * ANALYSIS_OVERSAMPLE)
    return _ring_lookup(up_shape, center_grid, radii, cycles, sector)


def _upsampled_values(image: np.ndarray, table: _RingTable) -> np.ndarray:
    """sinc_upsample(image, ANALYSIS_OVERSAMPLE) at each sample of the ring
    table, in ring order: only the rows the rings read are transformed, one
    band at a time, each into one slice of the row-major values."""
    factor, width = ANALYSIS_OVERSAMPLE, image.shape[1]
    columns = sinc_columns(image, factor)
    values = np.empty(table.samples.size)
    start = 0
    for lo, hi, stop in table.bands:
        band = sinc_rows(columns, width, factor, lo, hi).reshape(-1)
        values[start:stop] = band[table.samples[start:stop] - lo * width * factor]
        start = stop
    del columns
    return values[table.order]


def measure_resolution(image: np.ndarray, center: tuple[float, float], cycles: int,
                       signal: float, noise_sigma: float, outer_radius: float, *,
                       n_rings: int, sector: int | None = None) -> ResolutionReport:
    """Full resolution measurement on a star image sampled on the HR grid
    (a target, blurred scene or reconstruction).

    Rings are evaluated on a sinc-upsampled copy of the image
    (ANALYSIS_OVERSAMPLE per axis, computed only at the ring samples) so
    the harmonic fit stays well sampled out to the HR Nyquist; the
    information content is unchanged and frequencies are still reported
    in cycles per HR pixel.  The
    radius ladder holds n_rings radii (Scenario.n_rings), geometric from
    just inside the star's outer radius down to the aliasing / HR-band
    limit.  The NEM comes from the scenario signal and noise values
    (system constants, not re-estimated from the image).

    center and outer_radius are in HR pixels (star geometry metadata).
    sector, when given, restricts the fits to one of SECTOR_COUNT
    angular sectors.  The report's curve holds the raw per-ring fits by
    ascending f; rings refused as aliased or empty are dropped and
    counted, and fewer than three left raise InsufficientCurveError.  The
    NEM intersection runs on a CROSSING_SMOOTH-point moving average of
    the curve, which averages out the per-ring pixel-geometry jitter.

    With zero noise the NEM is 0 and can never be crossed; the report
    then pins the crossing to the finest measured frequency and sets
    ladder_limited.
    """
    image = check_image(image, "image")
    nem_value = nem(signal, noise_sigma)
    _, radii, table = _ladder_rings(image.shape, center, cycles, outer_radius, n_rings, sector)
    fits = [] if table is None else [
        fit for fit in _fit_rings(_upsampled_values(image, table), table, radii, cycles)
        if isinstance(fit, RingFit)]
    dropped = n_rings - len(fits)
    if dropped:
        logger.warning("dropped %d of %d rings (aliased or empty)", dropped, n_rings)
    if len(fits) < 3:
        raise InsufficientCurveError(
            f"insufficient curve: only {len(fits)} of {n_rings} rings usable")
    # strictly decreasing radii (_ring_lookup): fits by ascending f
    curve = [(rf.f * ANALYSIS_OVERSAMPLE, rf.modulation) for rf in fits]
    smoothed = list(zip([f for f, _ in curve],
                        _smooth(np.array([m for _, m in curve]), CROSSING_SMOOTH)))

    ladder_limited = nem_value <= 0
    degenerate = not ladder_limited and bool(smoothed[0][1] <= nem_value)
    f_cross = curve[-1][0] if ladder_limited else crossing_frequency(smoothed, nem_value)

    resolution_m = frequency_to_resolution(f_cross) if f_cross else None
    return ResolutionReport(
        curve=[(float(f), float(m)) for f, m in curve], nem=float(nem_value),
        f_cross=None if f_cross is None else float(f_cross),
        resolution_m=None if resolution_m is None else float(resolution_m),
        sector=sector, rings_dropped=dropped, ladder_limited=ladder_limited,
        degenerate_crossing=degenerate,
    )
