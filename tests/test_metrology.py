import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab import metrology
from srlab.fourier import sinc_upsample
from srlab.metrology import (ANALYSIS_OVERSAMPLE, SECTOR_COUNT, AliasedRingError,
                             EmptyRingError, InsufficientCurveError, RingError,
                             RingFit, _ladder,
                             _ring_table, crossing_frequency,
                             frequency_to_resolution, measure_resolution,
                             nem, ring_modulation)
from srlab.simulator import simulate_observations
from srlab.solver import super_resolve
from srlab.target import StarSpec, generate_spoke_target, pattern_angle


def angular_field(size, center, func):
    """Image whose value at each pixel is func(alpha)."""
    y = (np.arange(size[0], dtype=float) - center[0])[:, None]
    x = (np.arange(size[1], dtype=float) - center[1])[None, :]
    alpha = np.arctan2(x, y)
    return func(alpha)


def sector_mask(size, center, sector_index, sector_count):
    """Full-grid mask of sector k = sector_index of sector_count: the
    pixels whose offset from the center has its pattern_angle in
    [k, k+1) * 2*pi/sector_count.  The center itself is in none."""
    y = (np.arange(size[0], dtype=np.float64) - center[0])[:, None]
    x = (np.arange(size[1], dtype=np.float64) - center[1])[None, :]
    alpha, span = pattern_angle(x, y), 2.0 * np.pi / sector_count
    return ((alpha >= sector_index * span) & (alpha < (sector_index + 1) * span)
            & ((x != 0.0) | (y != 0.0)))


def curve_fits(image, center, cycles, radii, sector=None):
    """(fits by ascending f, rings dropped) of metrology's ring lookup and
    one-pass ring fit on a strictly decreasing ladder over the whole
    image, on the full circle or one angular sector."""
    outside, kept, table = metrology._ring_lookup(image.shape, center, radii, cycles,
                                                  sector)
    assert all(isinstance(error, EmptyRingError) for error in outside)
    assert len(outside) + len(kept) == len(radii)
    results = [] if table is None else metrology._fit_rings(
        image.reshape(-1)[table.samples[table.order]], table, kept, cycles)
    fits = sorted((fit for fit in results if isinstance(fit, RingFit)),
                  key=lambda rf: rf.f)
    return fits, len(radii) - len(fits)


def measure_on_ladder(monkeypatch, image, star, radii):
    """measure_resolution with its ring ladder replaced by radii, in
    samples of the ANALYSIS_OVERSAMPLE upsample."""
    center = (star.center[0] * ANALYSIS_OVERSAMPLE, star.center[1] * ANALYSIS_OVERSAMPLE)
    monkeypatch.setattr(metrology, "_ladder", lambda *args: (center, np.array(radii)))
    return measure_resolution(image, star.center, star.cycles, 300.0, 0.0,
                              star.outer_radius, n_rings=len(radii))


def test_ring_fit_recovers_synthetic_harmonic():
    center = (256.0, 256.0)
    img = angular_field((512, 512), center,
                        lambda a: 100.0 + 50.0 * np.cos(144 * (a - 0.3)))
    fit = ring_modulation(img, center, 150.0, 144)
    assert fit.a == pytest.approx(100.0, abs=0.5)
    assert fit.beta_amp == pytest.approx(50.0, abs=0.5)
    assert fit.modulation == pytest.approx(0.5, abs=0.01)
    # phase recovered modulo one cycle
    assert math.cos(144 * (fit.alpha0 - 0.3)) == pytest.approx(1.0, abs=1e-3)
    assert not fit.flagged


def test_ring_fit_constant_image():
    img = np.full((128, 128), 250.0)
    fit = ring_modulation(img, (64.0, 64.0), 40.0, 32)
    assert fit.modulation == pytest.approx(0.0, abs=1e-9)


def test_ring_frequency_formula():
    img = np.full((512, 512), 100.0)
    fit = ring_modulation(img, (256.0, 256.0), 100.0, 144)
    assert fit.g == pytest.approx(2 * math.pi * 100 / 144)
    assert fit.f == pytest.approx(144 / (200 * math.pi), abs=1e-4)
    assert fit.f == pytest.approx(0.2292, abs=1e-4)


def test_ring_rejects_aliased():
    img = np.full((128, 128), 100.0)
    # radius 20 with 144 cycles: under 2 samples per cycle
    with pytest.raises(AliasedRingError):
        ring_modulation(img, (64.0, 64.0), 20.0, 144)


def test_ring_rejects_leaving_image():
    img = np.full((64, 64), 100.0)
    with pytest.raises(EmptyRingError):
        ring_modulation(img, (32.0, 32.0), 40.0, 16)


def test_ring_mask_restricts_samples():
    center = (128.0, 128.0)
    img = angular_field((256, 256), center,
                        lambda a: 200.0 + 80.0 * np.cos(32 * a))
    full = ring_modulation(img, center, 80.0, 32)
    (sector,), _ = curve_fits(img, center, 32, [80.0], sector=0)
    assert sector.n_samples < full.n_samples
    assert sector.modulation == pytest.approx(full.modulation, abs=0.05)


def test_mtf_curve_sorted_and_drops(monkeypatch):
    star = StarSpec(cycles=144, outer_radius=104.0, inner_radius=8.0,
                    center=(128.0, 128.0), supersample=2)
    img = generate_spoke_target(star, (256, 256))
    # upsampled samples; the last one is aliased at 144 cycles
    radii = [400.0, 320.0, 240.0, 40.0]
    report = measure_on_ladder(monkeypatch, img, star, radii)
    assert report.rings_dropped == 1
    assert len(report.curve) == 3
    fs = [f for f, _ in report.curve]
    assert fs == sorted(fs)
    assert all(f > 0 for f in fs)


def test_mtf_curve_requires_decreasing_radii(monkeypatch):
    img = np.full((128, 128), 1.0)
    star = StarSpec(cycles=16, outer_radius=40.0, center=(64.0, 64.0))
    with pytest.raises(ValueError, match="decreasing"):
        measure_on_ladder(monkeypatch, img, star, [120.0, 160.0, 80.0])


def test_mtf_curve_insufficient(monkeypatch):
    img = np.full((128, 128), 1.0)
    star = StarSpec(cycles=144, outer_radius=40.0, center=(64.0, 64.0))
    with pytest.raises(InsufficientCurveError):
        measure_on_ladder(monkeypatch, img, star, [30.0, 25.0, 20.0])  # all aliased


def test_ideal_star_high_contrast_at_coarse_frequencies():
    star = StarSpec(cycles=144, outer_radius=104.0, inner_radius=8.0,
                    center=(128.0, 128.0), supersample=4)
    img = generate_spoke_target(star, (256, 256))
    report = measure_resolution(img, star.center, star.cycles, 300.0, 0.0,
                                star.outer_radius, n_rings=40)
    for f, m in report.curve:
        if f <= 0.3:
            assert m >= 0.95


def test_gaussian_blur_curve_matches_prediction():
    star = StarSpec(cycles=72, outer_radius=232.0, inner_radius=6.0,
                    center=(256.0, 256.0), supersample=4)
    ideal = generate_spoke_target(star, (512, 512))
    sigma = 1.0
    fy = np.fft.fftfreq(512)[:, None]
    fx = np.fft.fftfreq(512)[None, :]
    gauss2d = np.exp(-2 * np.pi**2 * sigma**2 * (fx**2 + fy**2))
    blurred = np.fft.ifft2(np.fft.fft2(ideal) * gauss2d).real
    rep_ideal = measure_resolution(ideal, star.center, star.cycles, 300.0,
                                   0.0, star.outer_radius, n_rings=40)
    rep_blur = measure_resolution(blurred, star.center, star.cycles, 300.0,
                                  0.0, star.outer_radius, n_rings=40)
    for (f_i, m_i), (f_b, m_b) in zip(rep_ideal.curve, rep_blur.curve):
        assert f_i == pytest.approx(f_b)
        if 0.05 <= f_i <= 0.35:
            predicted = math.exp(-2 * math.pi**2 * sigma**2 * f_i**2) * m_i
            assert m_b == pytest.approx(predicted, abs=0.05)


def test_nem_values():
    assert nem(300.0, 5.0) == pytest.approx(0.0667, abs=1e-4)
    assert nem(300.0, 0.0) == 0.0
    assert nem(100.0, 10.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        nem(0.0, 5.0)
    with pytest.raises(ValueError):
        nem(300.0, -1.0)


def test_crossing_interpolation():
    curve = [(0.35, 0.10), (0.40, 0.08), (0.45, 0.05)]
    f = crossing_frequency(curve, 0.0667)
    assert f == pytest.approx(0.4222, abs=1e-4)


def test_crossing_none_when_above():
    curve = [(0.1, 0.9), (0.2, 0.8), (0.3, 0.7)]
    assert crossing_frequency(curve, 0.05) is None


def test_crossing_degenerate_below():
    curve = [(0.1, 0.02), (0.2, 0.01), (0.3, 0.005)]
    assert crossing_frequency(curve, 0.05) == pytest.approx(0.1)


def test_crossing_validation():
    with pytest.raises(ValueError):
        crossing_frequency([(0.1, 0.5), (0.2, 0.4)], 0.1)
    with pytest.raises(ValueError):
        crossing_frequency([(0.1, 0.5), (0.1, 0.4), (0.2, 0.3)], 0.1)


@given(st.lists(st.floats(min_value=0.001, max_value=0.5), min_size=2,
                max_size=8, unique=True))
def test_crossing_monotone_in_nem(nems):
    curve = [(0.05 * (i + 1), m) for i, m in
             enumerate([0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.01])]
    results = []
    for level in sorted(nems):
        f = crossing_frequency(curve, level)
        results.append(f if f is not None else math.inf)
    # crossing frequency is non-increasing as the NEM rises
    assert all(b <= a + 1e-12 for a, b in zip(results, results[1:]))


def test_frequency_to_resolution_values():
    assert frequency_to_resolution(0.5) == pytest.approx(1.25)
    assert frequency_to_resolution(0.25) == pytest.approx(2.5)
    assert frequency_to_resolution(0.43) == pytest.approx(1.4535, abs=1e-4)
    with pytest.raises(ValueError):
        frequency_to_resolution(0.0)


def test_measure_noiseless_ladder_limited():
    star = StarSpec(cycles=144, outer_radius=104.0, inner_radius=8.0,
                    center=(128.0, 128.0), supersample=2)
    img = generate_spoke_target(star, (256, 256))
    report = measure_resolution(img, star.center, star.cycles, 300.0, 0.0,
                                star.outer_radius, n_rings=40)
    assert report.nem == 0.0
    assert report.ladder_limited
    assert report.f_cross == pytest.approx(report.curve[-1][0])
    assert report.resolution_m is not None


def test_measure_resolution_fields(star_target, scenario):
    report = measure_resolution(star_target, scenario.star.center,
                                scenario.star.cycles, 300.0, 5.0,
                                scenario.star.outer_radius, n_rings=40)
    fs = [f for f, _ in report.curve]
    assert fs == sorted(fs)
    assert (report.resolution_m is None) == (report.f_cross is None)
    assert report.sector is None


def test_measure_gain_invariance(star_target, scenario):
    base = measure_resolution(star_target, scenario.star.center,
                              scenario.star.cycles, 300.0, 5.0,
                              scenario.star.outer_radius, n_rings=40)
    scaled_img = star_target * 3.0
    scaled = measure_resolution(scaled_img, scenario.star.center,
                                scenario.star.cycles, 900.0, 15.0,
                                scenario.star.outer_radius, n_rings=40)
    for (f0, m0), (f1, m1) in zip(base.curve, scaled.curve):
        assert m1 == pytest.approx(m0, abs=1e-9)
    assert scaled.resolution_m == pytest.approx(base.resolution_m, abs=1e-9)


def test_offset_changes_modulation_as_predicted():
    center = (128.0, 128.0)
    img = angular_field((256, 256), center,
                        lambda a: 200.0 + 80.0 * np.cos(32 * a))
    fit = ring_modulation(img, center, 80.0, 32)
    shifted = ring_modulation(img + 100.0, center, 80.0, 32)
    assert shifted.beta_amp == pytest.approx(fit.beta_amp, rel=1e-9)
    assert shifted.a == pytest.approx(fit.a + 100.0, rel=1e-9)
    assert shifted.modulation == pytest.approx(fit.beta_amp / (fit.a + 100.0),
                                               rel=1e-9)


def test_sector_consistency(star_target, scenario):
    # full-circle modulation lies within the per-sector extremes
    star = scenario.star
    full = measure_resolution(star_target, star.center, star.cycles, 300.0,
                              0.0, star.outer_radius, n_rings=6)
    sector_curves = []
    for k in range(8):
        rep = measure_resolution(star_target, star.center, star.cycles, 300.0,
                                 0.0, star.outer_radius, sector=k, n_rings=6)
        sector_curves.append(dict(rep.curve))
    for f, m in full.curve:
        if f >= 0.48:
            continue  # the 2-samples/cycle boundary ring fits marginally
        values = [c[f] for c in sector_curves if f in c]
        assert len(values) == 8
        # the least-squares fit makes the full-circle value only
        # approximately a blend of the sector fits
        assert min(values) - 0.01 <= m <= max(values) + 0.01


def test_sector_reports_match_the_mask_path(star_target, scenario, nominal_params):
    # measure_resolution upsamples only the sector table's rows; its fits
    # must equal those on the whole upsampled image (the rest of the
    # report is a function of the curve).  That the table holds exactly
    # the full-grid sector mask's samples is tested below
    star = scenario.star
    obs = simulate_observations(star_target, nominal_params, 42)
    image = super_resolve(list(obs), cfg=scenario.solver).image
    upsampled = sinc_upsample(image, ANALYSIS_OVERSAMPLE)
    center, radii = _ladder(star.center, star.cycles, star.outer_radius,
                            scenario.n_rings)
    for k in range(8):
        report = measure_resolution(image, star.center, star.cycles, scenario.nem_signal,
                                    nominal_params.noise_sigma, star.outer_radius,
                                    n_rings=scenario.n_rings, sector=k)
        fits, dropped = curve_fits(upsampled, center, star.cycles, radii, sector=k)
        assert report.curve == [(rf.f * ANALYSIS_OVERSAMPLE, rf.modulation)
                                for rf in fits]
        assert report.rings_dropped == dropped


def _reconstruction(scenario, params):
    target = generate_spoke_target(scenario.star, scenario.grid_size)
    obs = simulate_observations(target, params, 42)
    return super_resolve(list(obs), cfg=scenario.solver).image


@pytest.mark.parametrize("scenario_name", ["scenario", "tiny_scenario"])
def test_full_report_matches_the_upsampled_image(request, scenario_name, nominal_params):
    # measure_resolution upsamples only the ring table's rows, a band at a
    # time; its fits must equal those on the whole upsampled image
    scenario = request.getfixturevalue(scenario_name)
    star = scenario.star
    image = _reconstruction(scenario, nominal_params)
    report = measure_resolution(image, star.center, star.cycles, scenario.nem_signal,
                                nominal_params.noise_sigma, star.outer_radius,
                                n_rings=scenario.n_rings)
    center, radii = _ladder(star.center, star.cycles, star.outer_radius,
                            scenario.n_rings)
    fits, dropped = curve_fits(sinc_upsample(image, ANALYSIS_OVERSAMPLE), center,
                               star.cycles, radii)
    assert report.curve == [(rf.f * ANALYSIS_OVERSAMPLE, rf.modulation) for rf in fits]
    assert report.rings_dropped == dropped


def test_measurement_never_holds_the_full_upsample(scenario, nominal_params):
    # a default measurement peaks below one 1024^2 float64 image
    star = scenario.star
    image = _reconstruction(scenario, nominal_params)

    def measure():
        return measure_resolution(image, star.center, star.cycles, scenario.nem_signal,
                                  nominal_params.noise_sigma, star.outer_radius,
                                  n_rings=scenario.n_rings)
    measure()  # the ring table is built once per process, outside the budget
    tracemalloc.start()
    try:
        measure()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # 4.6 MiB with numpy 2.4


def table_key(shape, center, radii, cycles):
    """The _ring_table key of the full-circle ring lookup of a ladder on an
    image of this shape: the lookup's table is the cache entry of that key."""
    _, kept, table = metrology._ring_lookup(shape, center, radii, cycles, None)
    key = (shape, (float(center[0]), float(center[1])), kept, cycles, None)
    assert _ring_table(*key) is table
    return key


def default_table_key(scenario):
    """The _ring_table key of a default measurement's ladder."""
    star = scenario.star
    center, radii = _ladder(star.center, star.cycles, star.outer_radius,
                            scenario.n_rings)
    shape = tuple(n * ANALYSIS_OVERSAMPLE for n in scenario.grid_size)
    return table_key(shape, center, radii, star.cycles)


def test_ring_table_build_peaks_below_1_6_times_its_size(scenario):
    # the temporaries of a build stay in the heap of every forked worker;
    # one stray temporary the size of the samples would cross the bound
    key = default_table_key(scenario)
    tracemalloc.start()
    try:
        table = _ring_table.__wrapped__(*key)  # a fresh build, outside the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(array.nbytes for array in vars(table).values()
               if isinstance(array, np.ndarray))
    assert peak <= 1.6 * kept


@pytest.mark.parametrize("grid", ["default", "odd"])
def test_sector_tables_hold_exactly_the_masked_annuli(scenario, grid):
    # each ring of a sector table holds the full-grid annulus and sector
    # mask's samples, in row-major order, and the full circle's count
    if grid == "default":
        key = default_table_key(scenario)
    else:
        key = table_key((37, 41), (18.3, 20.6), (17.5, 12.5, 12.2, 6.0, 3.0), 5)
    shape, center, radii, cycles, _ = key
    y = (np.arange(shape[0], dtype=np.float64) - center[0])[:, None]
    x = (np.arange(shape[1], dtype=np.float64) - center[1])[None, :]
    dist = np.hypot(x, y)
    annuli = [(dist >= r - 0.5) & (dist < r + 0.5) for r in radii]
    for sector in (None, *range(SECTOR_COUNT)):
        table = _ring_table(shape, center, radii, cycles, sector)
        grouped = table.samples[table.order]
        mask = True if sector is None else sector_mask(shape, center, sector, SECTOR_COUNT)
        for annulus, start, count, full in zip(annuli, table.starts, table.counts,
                                               table.full_counts):
            assert np.array_equal(grouped[start:start + count],
                                  np.flatnonzero(annulus & mask))
            assert full == np.count_nonzero(annulus)


def test_repeated_sector_measurement_reads_the_cached_table(star_target, scenario):
    star = scenario.star

    def measure():
        return measure_resolution(star_target, star.center, star.cycles, 300.0, 5.0,
                                  star.outer_radius, n_rings=scenario.n_rings, sector=3)
    first = measure()
    before = _ring_table.cache_info()
    assert measure() == first
    after = _ring_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_every_sector_and_the_full_circle_stay_cached(scenario, nominal_params):
    # a loop over one ladder's full circle and all its sectors fits in the
    # ring-table cache: a second pass builds no table, even after a table
    # of another ladder was used between the passes
    star = scenario.star
    image = _reconstruction(scenario, nominal_params)

    def measure_every_sector():
        return [measure_resolution(image, star.center, star.cycles, scenario.nem_signal,
                                   nominal_params.noise_sigma, star.outer_radius,
                                   n_rings=scenario.n_rings, sector=sector)
                for sector in (None, *range(SECTOR_COUNT))]
    first = measure_every_sector()
    ring_modulation(image, star.center, star.outer_radius - 3.0, star.cycles)
    before = _ring_table.cache_info()
    assert measure_every_sector() == first
    after = _ring_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (9, 0)


def test_bad_sector_is_refused_before_any_transform(monkeypatch):
    def no_transform(*args):
        raise AssertionError("the image was transformed")
    monkeypatch.setattr(metrology, "sinc_columns", no_transform)
    image = np.full((64, 64), 100.0)
    # the second star sits so near the corner that every ladder ring
    # leaves the image, and no ring table is looked up
    for center in ((32.0, 32.0), (5.0, 5.0)):
        for sector in (-1, SECTOR_COUNT):
            with pytest.raises(ValueError, match="sector_index"):
                measure_resolution(image, center, 16, 300.0, 1.0, 28.0,
                                   n_rings=10, sector=sector)
    with pytest.raises(InsufficientCurveError, match="only 0 of 10"):
        measure_resolution(image, (5.0, 5.0), 16, 300.0, 1.0, 28.0, n_rings=10, sector=0)


def test_ring_table_row_major_order():
    # samples run in the order measure_resolution streams its bands in:
    # ascending flat index, each band one contiguous slice inside its
    # rows; order is the one permutation that groups them by ring
    shape, radii = (40, 37), (15.0, 14.5, 9.0, 3.0)
    table = _ring_table(shape, (19.5, 18.25), radii, 7, None)
    assert np.all(np.diff(table.samples) >= 0)
    assert not table.order.flags.writeable
    assert table.order.dtype == np.int32
    assert np.array_equal(np.sort(table.order), np.arange(table.samples.size))
    grouped = table.samples[table.order]
    for start, count in zip(table.starts, table.counts):
        assert np.all(np.diff(grouped[start:start + count]) > 0)
    start = 0
    for lo, hi, stop in table.bands:
        rows = table.samples[start:stop] // shape[1]
        assert np.all((rows >= lo) & (rows < hi))
        start = stop
    assert start == table.samples.size


@pytest.mark.parametrize("grid", ["default", "odd"])
@pytest.mark.parametrize("sector", [None, 5])
def test_upsampled_values_are_the_full_upsample_at_the_grouped_samples(
        scenario, nominal_params, grid, sector):
    # the banded upsample equals the whole upsampled image read at the
    # table's samples in ring order, exactly
    if grid == "default":
        star = scenario.star
        image = _reconstruction(scenario, nominal_params)
        center, cycles, outer = star.center, star.cycles, star.outer_radius
        n_rings = scenario.n_rings
    else:
        image = 100.0 + np.random.default_rng(3).normal(size=(37, 41))
        center, cycles, outer, n_rings = (18.3, 20.6), 12, 16.0, 20
    _, _, table = metrology._ladder_rings(image.shape, center, cycles, outer, n_rings,
                                          sector)
    expected = sinc_upsample(image, ANALYSIS_OVERSAMPLE).reshape(-1)
    assert np.array_equal(metrology._upsampled_values(image, table),
                          expected[table.samples[table.order]])


def test_flag_for_modulation_above_one():
    center = (128.0, 128.0)
    img = angular_field((256, 256), center,
                        lambda a: 100.0 + 150.0 * np.cos(32 * a))
    fit = ring_modulation(img, center, 80.0, 32)
    assert fit.modulation > 1.0
    assert fit.flagged


def bbox_ring_modulation(image, center, radius, cycles, mask=None):
    """Reference: the per-ring bounding-box scan ring_modulation replaced."""
    if radius < 2:
        raise ValueError("radius must be >= 2 pixels")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    h, w = image.shape
    r0, c0 = center
    margin = min(r0, h - 1 - r0, c0, w - 1 - c0)
    if radius + 0.5 > margin + 1e-9:
        raise EmptyRingError("leaves the image")
    lo_r = max(0, int(np.floor(r0 - radius - 1)))
    hi_r = min(h, int(np.ceil(r0 + radius + 2)))
    lo_c = max(0, int(np.floor(c0 - radius - 1)))
    hi_c = min(w, int(np.ceil(c0 + radius + 2)))
    y = (np.arange(lo_r, hi_r, dtype=np.float64) - r0)[:, None]
    x = (np.arange(lo_c, hi_c, dtype=np.float64) - c0)[None, :]
    rr = np.hypot(x, y)
    in_ring = (rr >= radius - 0.5) & (rr < radius + 0.5)
    n_full = int(in_ring.sum())
    if mask is not None:
        in_ring = in_ring & (mask[lo_r:hi_r, lo_c:hi_c] > 0.5)
    n = int(in_ring.sum())
    if n_full == 0 or n < 8:
        raise EmptyRingError("empty ring")
    if n / (cycles * n / n_full) < 2.0:
        raise AliasedRingError("aliased")
    vals = image[lo_r:hi_r, lo_c:hi_c][in_ring]
    ring_alpha = np.arctan2(x, y)[in_ring]
    design = np.column_stack([np.ones(n), np.cos(cycles * ring_alpha),
                              np.sin(cycles * ring_alpha)])
    # the ring mean is taken out before lstsq: left in, an offset of 100
    # puts rounding of up to 1.5e-11 relative on a noise-level harmonic
    mean = vals.mean()
    (a, c, s), *_ = np.linalg.lstsq(design, vals - mean, rcond=None)
    a += mean
    beta = math.hypot(c, s)
    return RingFit(radius=float(radius), g=0.0, f=0.0, a=float(a),
                   beta_amp=float(beta), alpha0=math.atan2(s, c) / cycles,
                   modulation=beta / a if a > 0 else math.inf, n_samples=n,
                   flagged=False)


@settings(max_examples=200)
@given(data=st.data(), h=st.integers(16, 48), w=st.integers(16, 48),
       cycles=st.integers(1, 24), mask_kind=st.sampled_from(["none", "sector"]),
       seed=st.integers(0, 2**16))
def test_ring_modulation_matches_bounding_box_scan(data, h, w, cycles, mask_kind, seed):
    r0 = data.draw(st.floats(h / 2 - 4, h / 2 + 4) | st.sampled_from([h / 2, (h - 1) / 2]))
    c0 = data.draw(st.floats(w / 2 - 4, w / 2 + 4) | st.sampled_from([w / 2, (w - 1) / 2]))
    margin = min(r0, h - 1 - r0, c0, w - 1 - c0)
    # near the margin: the last accepted radius and the first refused ones
    radius = data.draw(st.floats(2.0, max(2.0, margin + 1.0))
                       | st.sampled_from([margin - 0.5, margin - 0.5 + 5e-10,
                                          margin - 0.5 + 2e-9]).filter(lambda r: r >= 2))
    image = 100.0 + np.random.default_rng(seed).normal(size=(h, w))
    sector = None if mask_kind == "none" else seed % SECTOR_COUNT
    mask = None if sector is None else sector_mask((h, w), (r0, c0), sector, SECTOR_COUNT)
    # a sector ring is a one-ring ladder on a sector table, which drops
    # the ring that ring_modulation refuses
    try:
        want = bbox_ring_modulation(image, (r0, c0), radius, cycles, mask=mask)
    except ValueError as exc:
        if sector is None:
            with pytest.raises(type(exc)):
                ring_modulation(image, (r0, c0), radius, cycles)
        else:
            assert curve_fits(image, (r0, c0), cycles, [radius], sector) == ([], 1)
        return
    if sector is None:
        got = ring_modulation(image, (r0, c0), radius, cycles)
    else:
        (got,), _ = curve_fits(image, (r0, c0), cycles, [radius], sector)
    assert got.n_samples == want.n_samples
    for name in ("a", "beta_amp", "modulation"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12), name


@settings(max_examples=100)
@given(data=st.data(), h=st.integers(16, 48), w=st.integers(16, 48),
       cycles=st.integers(1, 24), mask_kind=st.sampled_from(["none", "sector"]),
       seed=st.integers(0, 2**16))
def test_mtf_curve_matches_per_ring_reference(data, h, w, cycles, mask_kind, seed):
    r0 = data.draw(st.floats(h / 2 - 4, h / 2 + 4) | st.sampled_from([h / 2, (h - 1) / 2]))
    c0 = data.draw(st.floats(w / 2 - 4, w / 2 + 4) | st.sampled_from([w / 2, (w - 1) / 2]))
    margin = min(r0, h - 1 - r0, c0, w - 1 - c0)
    # from past the margin inward, in steps down to 0.05 px (shared
    # pixels), into the aliased radii of the higher cycle counts
    outer = data.draw(st.floats(2.0, margin + 3.0))
    steps = data.draw(st.lists(st.floats(0.05, 3.0), max_size=12))
    radii = [r for r in outer - np.cumsum([0.0, *steps]) if r >= 2.0]
    image = 100.0 + np.random.default_rng(seed).normal(size=(h, w))
    sector = None if mask_kind == "none" else seed % SECTOR_COUNT
    mask = None if sector is None else sector_mask((h, w), (r0, c0), sector, SECTOR_COUNT)
    want = []
    for r in radii:
        try:
            want.append(bbox_ring_modulation(image, (r0, c0), r, cycles, mask=mask))
        except RingError:
            pass
    fits, dropped = curve_fits(image, (r0, c0), cycles, radii, sector)
    assert dropped == len(radii) - len(want)
    assert [f.radius for f in fits] == [f.radius for f in want]
    for got, ref in zip(fits, want):
        assert got.n_samples == ref.n_samples
        for name in ("a", "beta_amp", "modulation"):
            assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=1e-12), name


def test_sector_ring_at_two_samples_per_cycle_is_kept():
    # 64 samples on the full ring at 32 cycles: exactly at the aliasing
    # limit, which the 9 of them in the sector must not tip over
    image = 100.0 + np.random.default_rng(0).normal(size=(24, 26))
    center = (12.0, 12.25)
    assert ring_modulation(image, center, 10.25, 32).n_samples == 64
    (fit,), _ = curve_fits(image, center, 32, [10.25], sector=0)
    mask = sector_mask(image.shape, center, 0, SECTOR_COUNT)
    assert fit.n_samples == bbox_ring_modulation(image, center, 10.25, 32,
                                                 mask=mask).n_samples == 9


def test_ring_table_is_shared_read_only():
    radii = (9.0, 8.5, 4.25)  # the first two rings share pixels
    table = _ring_table((32, 33), (15.5, 16.25), radii, 5, None)
    assert _ring_table((32, 33), (15.5, 16.25), radii, 5, None) is table
    arrays = {field.name: getattr(table, field.name) for field in dataclasses.fields(table)
              if isinstance(getattr(table, field.name), np.ndarray)}
    assert {"cos", "sin", "mean_cos", "mean_sin", "normal"} <= arrays.keys()
    for name, array in arrays.items():
        assert not array.flags.writeable, name
    with pytest.raises(ValueError):
        table.cos[0] = 0.0
    grouped = table.samples[table.order]
    for start, count in zip(table.starts, table.counts):
        assert np.all(np.diff(grouped[start:start + count]) > 0)
    assert np.unique(table.samples).size < table.samples.size
