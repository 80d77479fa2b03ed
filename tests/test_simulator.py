import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.fourier import (fold, irfft2_rows, rfft2_rows, shift_multiplier_1d,
                           shift_multiplier_2d)
from srlab.mtf import system_otf
from srlab import simulator
from srlab.fourier import gaussian_kernel
from srlab.simulator import (SIGMA_PER_FWHM, Observation, SystemParams,
                             _blurred_spectrum, add_noise, render_blurred_scene,
                             simulate_observations, subarray_observations)
from srlab.seeding import child_seed
from srlab.target import generate_spoke_target


def sample(x, shift, decimation):
    """x sampled at (i*s0 + d0, j*s1 + d1): the simulator's fold path."""
    lr = fold(shift_multiplier_2d(x.shape, shift), rfft2_rows(x), decimation)
    return irfft2_rows(lr, (x.shape[0] // decimation[0], x.shape[1] // decimation[1]))


def spatial_sample(x, shift, decimation):
    """The image-space sampling the simulator ran before it folded spectra:
    an exact roll for integer shifts, the phase ramp for fractional ones,
    then every s-th sample."""
    d0, d1 = shift
    if d0 == int(d0) and d1 == int(d1):
        shifted = np.roll(x, (-int(d0), -int(d1)), axis=(0, 1))
    else:
        ramp = np.outer(shift_multiplier_1d(x.shape[0], d0),
                        shift_multiplier_1d(x.shape[1], d1))
        shifted = np.fft.ifft2(np.fft.fft2(x) * ramp).real
    return shifted[::decimation[0], ::decimation[1]]


def test_system_params_defaults_and_validation():
    p = SystemParams()
    assert p.optics_mtf_at_hr_nyq == 0.30
    assert p.n_phi == 1
    assert p.jitter_sigma == 0.1
    assert p.snr_at_300 == 60.0
    assert p.subarray_shift_ax == 0.5
    assert p.subarray_shift_al_lines == 10
    assert p.assumed_psf_sigma == pytest.approx(2.0 * SIGMA_PER_FWHM)
    assert p.noise_sigma == pytest.approx(5.0)
    with pytest.raises(ValueError):
        SystemParams(snr_at_300=0.0)
    with pytest.raises(ValueError):
        SystemParams(subarray_shift_ax=1.0)
    with pytest.raises(ValueError):
        SystemParams(assumed_psf_sigma=0.0)


@pytest.mark.parametrize("field, value", [
    ("jitter_sigma", math.nan), ("jitter_sigma", math.inf), ("jitter_sigma", -0.1),
    ("snr_at_300", math.nan), ("snr_at_300", 0.0),
    ("assumed_psf_sigma", math.nan), ("assumed_psf_sigma", math.inf),
    ("assumed_psf_sigma", 0.0),
    ("optics_mtf_at_hr_nyq", math.nan), ("subarray_shift_ax", math.nan),
    ("n_phi", math.nan), ("subarray_shift_al_lines", math.nan),
])
def test_system_params_refuse_non_finite(field, value):
    with pytest.raises(ValueError):
        SystemParams(**{field: value})


def test_infinite_snr_is_the_noise_free_case():
    assert SystemParams(snr_at_300=math.inf).noise_sigma == 0.0


def test_observation_validation():
    img = np.zeros((8, 4))
    psf = np.full((3, 3), 1.0 / 9.0)
    Observation(img, (0.0, 0.5), (1, 2), psf)
    with pytest.raises(ValueError):
        Observation(img, (0.0, 0.5), (0, 2), psf)
    with pytest.raises(ValueError):
        Observation(img, (np.inf, 0.0), (1, 2), psf)
    with pytest.raises(ValueError):
        Observation(img, (0.0, 0.0), (1, 2), psf * 2.0)
    # NaN and 1-D kernels are refused here, not deep inside the solver
    nan_psf = psf.copy()
    nan_psf[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite 2-D"):
        Observation(img, (0.0, 0.0), (1, 2), nan_psf)
    with pytest.raises(ValueError, match="finite 2-D"):
        Observation(img, (0.0, 0.0), (1, 2), np.full(4, 0.25))
    # a 1x1 kernel is a valid (delta) PSF
    Observation(img, (0.0, 0.0), (1, 2), np.ones((1, 1)))
    nan_image = img.copy()
    nan_image[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Observation(nan_image, (0.0, 0.5), (1, 2), psf)
    # a shift whose ramp phase pi * shift overflows is refused by name; one
    # beyond a grid period is valid
    for shift in ((1e308, 0.0), (0.0, -1e308), (np.nan, 0.0)):
        with pytest.raises(ValueError, match="shift_hr"):
            Observation(np.zeros((4, 4)), shift, (1, 2), np.array([[1.0]]))
    Observation(np.zeros((4, 4)), (-25.0, 25.0), (1, 2), np.array([[1.0]]))


def test_non_finite_target_is_refused(tiny_scenario, nominal_params):
    # no NaN reaches the solver: the simulator checks the target it is given
    target = generate_spoke_target(tiny_scenario.star, tiny_scenario.grid_size)
    target[5, 7] = np.nan
    with pytest.raises(ValueError, match="target.*non-finite"):
        simulate_observations(target, nominal_params, 7)


def test_blur_preserves_constant(rng, nominal_params):
    img = np.full((32, 32), 123.456)
    out = render_blurred_scene(img, nominal_params)
    assert np.allclose(out, 123.456, atol=1e-9)


@pytest.mark.parametrize("seed", [9, 42])
def test_observations_do_not_depend_on_the_spectrum_layout(star_target, monkeypatch,
                                                          seed):
    # the blurred spectrum is column-major, so both subarray folds run on
    # contiguous column blocks; its row-major copy folds to the same images
    params = SystemParams(n_phi=2, jitter_sigma=0.15, subarray_shift_ax=0.3)
    assert _blurred_spectrum(star_target, params).flags.f_contiguous
    by_columns = simulate_observations(star_target, params, seed)
    monkeypatch.setattr(simulator, "_blurred_spectrum",
                        lambda target, p: np.ascontiguousarray(_blurred_spectrum(target, p)))
    by_rows = simulate_observations(star_target, params, seed)
    assert all(np.array_equal(a.image, b.image) for a, b in zip(by_columns, by_rows))
    assert render_blurred_scene(star_target, params).flags.c_contiguous


def test_blur_rejects_odd_dims(nominal_params):
    with pytest.raises(ValueError, match="even"):
        render_blurred_scene(np.zeros((31, 32)), nominal_params)


def test_blur_mean_preserved(star_target, nominal_params):
    out = render_blurred_scene(star_target, nominal_params)
    assert out.mean() == pytest.approx(star_target.mean(), rel=1e-6)


def test_impulse_response_matches_otf(nominal_params):
    n = 32
    impulse = np.zeros((n, n))
    impulse[n // 2, n // 2] = 1.0
    out = render_blurred_scene(impulse, nominal_params)
    fy = np.fft.fftfreq(n)[:, None]
    fx = np.fft.fftfreq(n)[None, :]
    otf = system_otf(nominal_params, fx, fy)
    assert np.allclose(np.abs(np.fft.fft2(out)), otf, atol=1e-6)
    # brute-force DFT spot check at two frequency bins
    yy, xx = np.mgrid[0:n, 0:n]
    for ky, kx in [(0, 3), (2, 5)]:
        dft = (out * np.exp(-2j * np.pi * (ky * yy + kx * xx) / n)).sum()
        assert abs(dft) == pytest.approx(otf[ky, kx], abs=1e-9)


def test_sample_identity():
    rng = np.random.default_rng(2)
    img = rng.normal(size=(16, 16))
    out = sample(img, (0.0, 0.0), (1, 1))
    np.testing.assert_allclose(out, img, rtol=0, atol=1e-12 * np.abs(img).max())


def test_sample_integer_shift_is_circular():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(16, 16))
    out = sample(img, (0.0, 1.0), (1, 1))
    np.testing.assert_allclose(out, np.roll(img, -1, axis=1), rtol=0,
                               atol=1e-12 * np.abs(img).max())


def test_sample_halfpixel_cosine_oracle():
    n = 64
    j = np.arange(n)
    img = np.cos(2 * np.pi * 0.25 * j)[None, :].repeat(8, axis=0)
    out = sample(img, (0.0, 0.5), (1, 2))
    expected = np.cos(2 * np.pi * 0.25 * (2 * np.arange(n // 2) + 0.5))
    assert np.allclose(out[0], expected, atol=1e-9)
    assert out.shape == (8, n // 2)


def test_decimation_commutes_with_integer_shift():
    rng = np.random.default_rng(4)
    img = rng.normal(size=(16, 32))
    a = sample(img, (0.0, 6.0), (1, 2))
    b = sample(img, (0.0, 0.0), (1, 2))
    np.testing.assert_allclose(a, np.roll(b, -3, axis=1), rtol=0,
                               atol=1e-12 * np.abs(img).max())


shifts = st.one_of(st.integers(-25, 25).map(float),
                   st.floats(-25.0, 25.0, allow_nan=False, allow_infinity=False))


@given(h=st.integers(1, 12), w=st.integers(1, 12),
       decimation=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
       d0=shifts, d1=shifts, seed=st.integers(0, 2**16))
def test_fold_sampling_matches_spatial_sampling(h, w, decimation, d0, d1, seed):
    x = np.random.default_rng(seed).normal(size=(2 * h, 2 * w))
    np.testing.assert_allclose(sample(x, (d0, d1), decimation),
                               spatial_sample(x, (d0, d1), decimation),
                               rtol=0, atol=1e-12 * np.abs(x).max())


def test_noise_sigma_value():
    # the sigma is SystemParams.noise_sigma, 300 / SNR; the SNR is range
    # checked there, and NaN fails it like any other value that is not > 0
    assert SystemParams(snr_at_300=60.0).noise_sigma == 5.0
    for snr in (float("nan"), -1.0, 0.0):
        with pytest.raises(ValueError, match="SNR must be > 0"):
            SystemParams(snr_at_300=snr)
    img = np.zeros((16, 16))
    for sigma in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="noise sigma must be finite and >= 0"):
            add_noise(img, sigma, 0)


def test_noise_statistics():
    img = np.zeros((1024, 1024))
    noisy = add_noise(img, SystemParams(snr_at_300=60.0).noise_sigma, 9)
    assert noisy.std() == pytest.approx(5.0, abs=0.02)
    assert noisy.mean() == pytest.approx(0.0, abs=0.02)


def test_noise_vanishes_at_huge_snr():
    img = np.full((16, 16), 300.0)
    noisy = add_noise(img, SystemParams(snr_at_300=1e12).noise_sigma, 0)
    assert np.allclose(noisy, img, atol=1e-6)


def test_noise_deterministic():
    img = np.zeros((16, 16))
    a = add_noise(img, 5.0, 7)
    b = add_noise(img, 5.0, 7)
    assert np.array_equal(a, b)


def test_noise_whiteness():
    img = np.zeros((512, 512))
    noisy = add_noise(img, 5.0, 11)
    flat = noisy.ravel()
    flat = flat - flat.mean()
    denom = float(flat @ flat)
    for lag in range(1, 6):
        rho = float(flat[:-lag] @ flat[lag:]) / denom
        assert abs(rho) < 0.01


def test_observation_pair_determinism(star_target, nominal_params):
    a1, a2 = simulate_observations(star_target, nominal_params, 42)
    b1, b2 = simulate_observations(star_target, nominal_params, 42)
    assert np.array_equal(a1.image, b1.image)
    assert np.array_equal(a2.image, b2.image)
    # metadata carries the true shift: 10 LR lines and 0.5 LR px
    assert a1.shift_hr == (0.0, 0.0)
    assert a2.shift_hr == (20.0, 1.0)
    assert a1.decimation == (1, 2)


def test_simulate_builds_its_observations_with_subarray_observations(star_target):
    # every field besides the image comes from the params alone, so the
    # observations superresolve builds from read images are simulate's
    params = SystemParams(subarray_shift_al_lines=3, subarray_shift_ax=0.25,
                          snr_at_300=40.0, assumed_psf_sigma=1.3)
    simulated = simulate_observations(star_target, params, 9)
    built = subarray_observations([o.image for o in simulated], params)
    for a, b in zip(simulated, built):
        assert (a.image == b.image).all()
        assert (a.shift_hr, a.decimation) == (b.shift_hr, b.decimation)
        assert (a.assumed_psf == gaussian_kernel(1.3)).all()
        assert (b.assumed_psf == a.assumed_psf).all()
    assert [o.shift_hr for o in built] == [(0.0, 0.0), (6.0, 0.5)]
    assert built[0].decimation == (1, 2)


def test_subarray_observations_refuses_bad_input(monkeypatch, nominal_params):
    images = [np.zeros((16, 8)), np.zeros((16, 8))]
    with pytest.raises(ValueError, match="observation image: .*non-finite"):
        subarray_observations([images[0], np.full((16, 8), np.nan)], nominal_params)
    with pytest.raises(ValueError):
        subarray_observations(images[:1], nominal_params)

    # a PSF whose kernel would not fit the HR grid is refused before it is built
    def no_kernel(sigma):
        raise AssertionError("kernel built")
    monkeypatch.setattr(simulator, "gaussian_kernel", no_kernel)
    with pytest.raises(ValueError, match="larger than grid"):
        subarray_observations(images, replace(nominal_params, assumed_psf_sigma=2.0))


def test_zero_stagger_pair_differs_only_by_noise(star_target):
    params = SystemParams(subarray_shift_ax=0.0, subarray_shift_al_lines=0)
    o1, o2 = simulate_observations(star_target, params, 3)
    diff = o1.image - o2.image
    # deterministic paths identical; difference is two independent noise
    # draws, bounded by the Gaussian tail
    assert np.abs(diff).max() <= 8 * params.noise_sigma


def test_alongtrack_separation_is_row_permutation(star_target):
    quiet = SystemParams(snr_at_300=1e12)
    none = SystemParams(snr_at_300=1e12, subarray_shift_al_lines=0)
    _, with_sep = simulate_observations(star_target, quiet, 5)
    _, without = simulate_observations(star_target, none, 5)
    # 10 LR lines = 20 HR rows, decimation (1, 2) keeps all rows
    assert np.allclose(with_sep.image,
                       np.roll(without.image, -20, axis=0), atol=1e-6)


def test_stagger_offset_recovered_by_phase_correlation(star_target):
    params = SystemParams(snr_at_300=1e12)
    o1, o2 = simulate_observations(star_target, params, 8)
    f1 = np.fft.fft2(o1.image)
    f2 = np.fft.fft2(o2.image)
    cross = np.fft.ifft2(f1 * np.conj(f2)).real
    peak = np.unravel_index(np.argmax(cross), cross.shape)
    # quadratic interpolation around the across-track peak
    col = peak[1]
    cm = cross[peak[0], (col - 1) % cross.shape[1]]
    c0 = cross[peak[0], col]
    cp = cross[peak[0], (col + 1) % cross.shape[1]]
    frac = 0.5 * (cm - cp) / (cm - 2 * c0 + cp)
    offset = (col + frac) % cross.shape[1]
    if offset > cross.shape[1] / 2:
        offset -= cross.shape[1]
    # along-track separation is integer; across-track stagger is 0.5 LR px
    assert abs(abs(offset) - 0.5) <= 0.05


def test_noise_streams_derived_from_child_seeds(star_target, nominal_params):
    # observation noise must match the child-seed contract
    o1, _ = simulate_observations(star_target, nominal_params, 42)
    spectrum = _blurred_spectrum(star_target, nominal_params)
    h, w = star_target.shape
    clean = irfft2_rows(fold(shift_multiplier_2d(star_target.shape, (0.0, 0.0)),
                             spectrum, (1, 2)), (h, w // 2))
    redo = add_noise(clean, nominal_params.noise_sigma, child_seed(42, 0))
    assert np.array_equal(o1.image, redo)
