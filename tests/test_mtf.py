import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.grid import MAX_PIXELS
from srlab.mtf import (GEOMETRY, GeometryConstants, footprint_mtf, jitter_mtf,
                       mtf_curve_table, optics_mtf, sampling_mtf,
                       smear_mtf, system_otf)
from srlab.simulator import SystemParams

NOMINAL = SystemParams()


def test_geometry_invariants():
    g = GeometryConstants()
    assert g.lr_pixel_pitch_um == 2 * g.hr_sample_pitch_um
    assert g.lr_igfov_m == 2 * g.hr_gsd_m
    assert g.f_nyq_lr == g.f_nyq_hr / 2
    with pytest.raises(ValueError):
        GeometryConstants(lr_pixel_pitch_um=9.0)


def test_optics_family():
    assert optics_mtf(0.0, 0.30) == pytest.approx(1.0)
    assert optics_mtf(0.5, 0.30) == pytest.approx(0.30)
    # sqrt(0.30) at half Nyquist
    assert optics_mtf(0.25, 0.30) == pytest.approx(0.5477, abs=1e-4)
    assert np.all(optics_mtf(np.linspace(0, 0.5, 7), 1.0) == 1.0)
    with pytest.raises(ValueError):
        optics_mtf(0.1, 0.0)
    with pytest.raises(ValueError):
        optics_mtf(0.1, 1.2)


def test_footprint_values():
    assert footprint_mtf(0.0, 2.0) == pytest.approx(1.0)
    assert footprint_mtf(0.5, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert footprint_mtf(0.25, 2.0) == pytest.approx(0.63662, abs=1e-5)


def test_sampling_values():
    assert sampling_mtf(0.0, 2.0) == pytest.approx(1.0)
    assert sampling_mtf(0.25, 2.0) == pytest.approx(0.63662, abs=1e-5)
    assert sampling_mtf(0.5, 1.0) == pytest.approx(0.63662, abs=1e-5)


def test_smear_anchors():
    # one clock phase: 90% at half Nyquist, 64% at Nyquist
    assert smear_mtf(0.25, 0.5, 1) == pytest.approx(0.90032, abs=0.01)
    assert smear_mtf(0.5, 0.5, 1) == pytest.approx(0.63662, abs=0.01)
    # continuous-motion limit
    assert smear_mtf(0.37, 0.5, 10**6) == pytest.approx(1.0, abs=1e-6)
    # doubling phases halves the argument: sinc(pi/4) at f = f_N
    assert smear_mtf(0.5, 0.5, 2) == pytest.approx(0.90032, abs=1e-4)


def test_jitter_values():
    f = np.linspace(0.0, 0.5, 11)
    assert np.all(jitter_mtf(f, 0.0) == 1.0)
    assert jitter_mtf(0.5, 0.1) == pytest.approx(0.95185, abs=0.005)
    assert jitter_mtf(0.5, 0.2) == pytest.approx(0.82085, abs=1e-4)


@pytest.mark.parametrize("func", [
    lambda f: optics_mtf(f, 0.30),
    lambda f: footprint_mtf(f, 2.0),
    lambda f: sampling_mtf(f, 2.0),
    lambda f: smear_mtf(f, 0.5, 1),
    lambda f: jitter_mtf(f, 0.1),
])
def test_component_range_and_monotone(func):
    f = np.linspace(0.0, 0.5, 100)
    vals = np.asarray(func(f))
    assert vals[0] == pytest.approx(1.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # non-increasing up to the first null
    nulls = np.where(vals <= 1e-12)[0]
    stop = nulls[0] if nulls.size else len(vals)
    assert np.all(np.diff(vals[:stop]) <= 1e-12)


def test_system_otf_dc_and_null():
    assert system_otf(NOMINAL, 0.0, 0.0) == pytest.approx(1.0)
    # across-track footprint null at HR Nyquist dominates the product
    assert system_otf(NOMINAL, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_system_otf_monotone_on_axis():
    assert system_otf(NOMINAL, 0.3, 0.0) >= system_otf(NOMINAL, 0.4, 0.0)


def test_system_otf_nonnegative_beyond_nyquist():
    fx = np.linspace(0.0, 2.0, 101)
    vals = system_otf(NOMINAL, fx[None, :], fx[:, None])
    assert np.all(vals >= 0.0)


def test_system_otf_separability_with_separable_factors():
    # optics pinned at 1 and zero jitter leave only separable factors;
    # the product identity then guards the composition wiring
    params = SystemParams(optics_mtf_at_hr_nyq=1.0, jitter_sigma=0.0)
    fx = np.linspace(0.0, 0.5, 7)
    fy = np.linspace(0.0, 0.5, 7)
    full = system_otf(params, fx[None, :], fy[:, None])
    sep = (system_otf(params, fx, 0.0)[None, :] *
           system_otf(params, 0.0, fy)[:, None] / system_otf(params, 0.0, 0.0))
    assert np.allclose(full, sep, atol=1e-12)


def test_chain_params_validation():
    # the MTF chain's knobs are range-checked where SystemParams is built
    with pytest.raises(ValueError, match="optics MTF"):
        SystemParams(optics_mtf_at_hr_nyq=0.0)
    with pytest.raises(ValueError, match="optics MTF"):
        SystemParams(optics_mtf_at_hr_nyq=1.5)
    with pytest.raises(ValueError, match="clock phase"):
        SystemParams(n_phi=0)
    with pytest.raises(ValueError, match="jitter"):
        SystemParams(jitter_sigma=-0.1)


@pytest.mark.parametrize("n_phi", [1.5, float("nan"), float("inf"), 10**400],
                         ids=["fraction", "nan", "inf", "past-float-range"])
def test_clock_phase_count_must_be_whole(n_phi):
    # a ValueError, never an OverflowError, whichever number gives the count
    with pytest.raises(ValueError, match="clock phase count must be a whole number"):
        SystemParams(n_phi=n_phi)


def test_clock_phase_count_is_stored_as_int():
    assert type(SystemParams(n_phi=2.0).n_phi) is int
    assert SystemParams(n_phi=2.0) == SystemParams(n_phi=2)


@pytest.mark.parametrize("n_points", [1, 0, -3])
def test_curve_table_rejects_fewer_than_two_points(n_points):
    with pytest.raises(ValueError, match=f"at least 2 points, got {n_points}"):
        mtf_curve_table(NOMINAL, n_points=n_points)


def test_curve_table_refuses_more_values_than_the_image_budget():
    # 7 columns of this many points; refused before any is allocated
    n_points = MAX_PIXELS // 7 + 1
    with pytest.raises(ValueError, match=f"MTF curve of {n_points} points"):
        mtf_curve_table(NOMINAL, n_points)


def test_smear_is_referenced_to_the_geometry_nyquist():
    # system_otf and the curve table reference the smear to GEOMETRY's HR
    # Nyquist, 0.5 cycles/sample, as smear_mtf's default does
    params = SystemParams(optics_mtf_at_hr_nyq=1.0, jitter_sigma=0.0)
    f = np.linspace(0.0, 0.5, 11)
    want = footprint_mtf(f, GEOMETRY.hr_per_lr) * np.abs(smear_mtf(f, 0.5, 1))
    assert np.allclose(system_otf(params, 0.0, f), want, rtol=1e-12, atol=0.0)
    _, rows = mtf_curve_table(params, 5)
    assert np.array_equal(rows[:, 4], smear_mtf(rows[:, 0], 0.5, 1))
    assert GEOMETRY.f_nyq_hr == 0.5
    assert smear_mtf(0.25) == smear_mtf(0.25, 0.5, 1)


def test_curve_table_shape_and_header():
    header, rows = mtf_curve_table(NOMINAL, n_points=512)
    assert header == ["f_cyc_per_hr_sample", "optics", "footprint", "sampling",
                      "smear", "jitter", "system"]
    assert rows.shape == (512, 7)
    assert rows[0, 0] == 0.0
    assert rows[-1, 0] == pytest.approx(0.5)
    assert np.all(rows[0, 1:] == pytest.approx(1.0))


@given(st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.01, max_value=1.0))
def test_optics_bounds_property(f, m_nyq):
    v = float(optics_mtf(f, m_nyq))
    assert 0.0 < v <= 1.0


@given(st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=0.5))
def test_jitter_bounds_property(f, sigma):
    v = float(jitter_mtf(f, sigma))
    assert 0.0 < v <= 1.0
