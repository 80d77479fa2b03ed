import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from srlab.fourier import (fold, full_rows, gaussian_kernel, irfft2_rows,
                           kernel_transfer, rfft2_rows, shift_multiplier_2d, unfold)
from srlab.seeding import child_seed
from srlab.simulator import Observation, SystemParams, simulate_observations
from srlab import solver
from srlab.scenario import Scenario
from srlab.solver import (MAX_HALVINGS, SolverConfig, _cubic_spectrum, adjoint_model,
                          bicubic_upsample, btv_gradient, btv_penalty, check_btv_fits,
                          forward_model, super_resolve)


PACKAGE_ROOT = str(Path(solver.__file__).resolve().parents[1])


def make_obs(lr_shape, shift, decimation, psf_sigma=0.9, lr_data=None):
    if lr_data is None:
        lr_data = np.zeros(lr_shape)
    return Observation(lr_data, shift, decimation, gaussian_kernel(psf_sigma))


def delta_obs(lr_data, shift=(0.0, 0.0), decimation=(1, 1)):
    return Observation(lr_data, shift, decimation, np.array([[1.0]]))


def phase_pair(seed):
    """Two delta-PSF observations at the two across-track phases of a (1, 2)
    decimation.  Between them they sample every HR pixel once, so the data
    term is the identity problem's, but the warm start, upsampled from the
    first alone, is not its fit."""
    rng = np.random.default_rng(seed)
    return [delta_obs(rng.normal(size=(16, 8)), shift, (1, 2))
            for shift in [(0.0, 0.0), (0.0, 1.0)]]


# ---------------------------------------------------------------- forward

def test_forward_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 16))
    obs = delta_obs(np.zeros((16, 16)))
    out = forward_model(x, obs)
    assert np.allclose(out, x, atol=1e-9)


def test_forward_constant_dc_gain():
    obs = make_obs((8, 8), (0.3, -0.7), (2, 2))
    x = np.full((16, 16), 42.0)
    out = forward_model(x, obs)
    assert np.allclose(out, 42.0, atol=1e-9)


def test_forward_impulse_index_arithmetic():
    # delta PSF, shift (0, 1), decimation (1, 2): output[i, j] = x[i, 2j+1]
    obs = delta_obs(np.zeros((8, 8)), shift=(0.0, 1.0), decimation=(1, 2))
    x_even = np.zeros((8, 16))
    x_even[3, 6] = 1.0  # even column is never sampled
    assert np.allclose(forward_model(x_even, obs), 0.0,
                       atol=1e-12)
    x_odd = np.zeros((8, 16))
    x_odd[3, 7] = 1.0  # 2*3 + 1 == 7
    expected = np.zeros((8, 8))
    expected[3, 3] = 1.0
    assert np.allclose(forward_model(x_odd, obs), expected,
                       atol=1e-12)


def test_forward_shape_mismatch():
    obs = make_obs((8, 8), (0.0, 0.0), (1, 2))
    with pytest.raises(ValueError, match="geometry"):
        forward_model(np.zeros((8, 8)), obs)


# ---------------------------------------------------------------- adjoint

def test_adjoint_of_zeros():
    obs = make_obs((8, 8), (0.5, 0.25), (2, 2))
    out = adjoint_model(np.zeros((8, 8)), obs)
    assert np.array_equal(out, np.zeros((16, 16)))


def test_adjoint_zero_fill_indexing():
    # delta PSF, no shift, decimation (1, 2): LR impulse at column j
    # becomes an HR impulse at column 2j
    lr = np.zeros((8, 8))
    lr[2, 3] = 1.0
    obs = delta_obs(lr, (0.0, 0.0), (1, 2))
    out = adjoint_model(lr, obs)
    expected = np.zeros((8, 16))
    expected[2, 6] = 1.0
    assert np.allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("decimation,shift,psf_sigma", [
    ((1, 2), (0.0, 1.0), 0.9),
    ((1, 2), (20.0, 0.37), 1.3),
    ((2, 2), (-0.5, 0.25), 0.6),
    ((1, 1), (0.123, -4.56), 2.0),
])
def test_adjoint_dot_product(decimation, shift, psf_sigma):
    rng = np.random.default_rng(17)
    hr = (24, 24)
    lr = (hr[0] // decimation[0], hr[1] // decimation[1])
    obs = make_obs(lr, shift, decimation, psf_sigma)
    for _ in range(12):
        x = rng.normal(size=hr)
        y = rng.normal(size=lr)
        fx = forward_model(x, obs)
        aty = adjoint_model(y, obs)
        lhs = float((fx * y).sum())
        rhs = float((x * aty).sum())
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------- BTV

def btv_oracle(x, alpha, p_radius):
    """Independent enumeration of the shift-pair sum."""
    total = 0.0
    for m in range(0, p_radius + 1):
        for l in range(-p_radius, p_radius + 1):
            if l + m > 0:
                w = alpha ** (abs(l) + abs(m))
                total += w * np.abs(x - np.roll(x, (m, l), axis=(0, 1))).sum()
    return total


def test_btv_constant_is_zero():
    assert btv_penalty(np.full((8, 8), 7.0), 0.7, 2) == 0.0


def test_btv_unit_impulse_frozen_value():
    # enumerated by the oracle: pairs (1,0), (0,1), (1,1), each
    # contributing an L1 difference of 2
    x = np.zeros((9, 9))
    x[4, 4] = 1.0
    assert btv_penalty(x, 1.0, 1) == pytest.approx(6.0)
    assert btv_oracle(x, 1.0, 1) == pytest.approx(6.0)


def test_btv_matches_oracle_random():
    rng = np.random.default_rng(21)
    for p in (1, 2, 3):
        x = rng.normal(size=(12, 12))
        assert btv_penalty(x, 0.7, p) == pytest.approx(btv_oracle(x, 0.7, p))


@given(st.floats(min_value=0.1, max_value=50.0))
def test_btv_positive_homogeneity(c):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 8))
    assert btv_penalty(c * x, 0.7, 2) == pytest.approx(c * btv_penalty(x, 0.7, 2),
                                                       rel=1e-9)


def test_btv_gradient_constant_zero():
    g = btv_gradient(np.full((8, 8), 3.0), 0.7, 2)
    assert np.array_equal(g, np.zeros((8, 8)))


def test_btv_gradient_antisymmetry():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(10, 10))
    assert np.array_equal(btv_gradient(-x, 0.7, 2), -btv_gradient(x, 0.7, 2))


def test_btv_gradient_finite_difference():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(10, 10)) * 10.0  # differences far from zero
    g = btv_gradient(x, 0.7, 2)
    d = rng.normal(size=(10, 10))
    eps = 1e-5
    fd = (btv_penalty(x + eps * d, 0.7, 2) -
          btv_penalty(x - eps * d, 0.7, 2)) / (2 * eps)
    assert fd == pytest.approx(float((g * d).sum()), abs=1e-3 * max(1.0, abs(fd)))


def roll_btv_pairs(p_radius):
    return [(l, m) for m in range(0, p_radius + 1)
            for l in range(-p_radius, p_radius + 1) if l + m > 0]


def roll_btv_penalty(x, alpha, p_radius):
    """btv_penalty before the one-pass kernel: an np.roll copy per pair."""
    total = 0.0
    for l, m in roll_btv_pairs(p_radius):
        w = alpha ** (abs(l) + abs(m))
        total += w * float(np.abs(x - np.roll(x, (m, l), axis=(0, 1))).sum())
    return total


def roll_btv_gradient(x, alpha, p_radius):
    """btv_gradient before the one-pass kernel: both shift differences of
    every pair rebuilt with np.roll."""
    grad = np.zeros_like(x)
    for l, m in roll_btv_pairs(p_radius):
        w = alpha ** (abs(l) + abs(m))
        s = np.sign(x - np.roll(x, (m, l), axis=(0, 1)))
        grad += w * (s - np.roll(s, (-m, -l), axis=(0, 1)))
    return grad


def roll_btv_magnitudes(x, alpha, p_radius):
    """Per pixel, the sum of |terms| of roll_btv_gradient's sum."""
    total = np.zeros_like(x)
    for l, m in roll_btv_pairs(p_radius):
        s = np.sign(x - np.roll(x, (m, l), axis=(0, 1)))
        total += alpha ** (abs(l) + abs(m)) * np.abs(s - np.roll(s, (-m, -l), axis=(0, 1)))
    return total


@settings(max_examples=200)
@given(shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
       p_radius=st.integers(1, 3),
       alpha=st.one_of(st.sampled_from([1.0, 0.5, 0.25]),
                       st.floats(0.0, 1.0, exclude_min=True)),
       integer_valued=st.booleans(),
       seed=st.integers(0, 2**16))
def test_btv_matches_roll_reference(shape, p_radius, alpha, integer_valued, seed):
    # sides below 2P + 1 wrap more than once; integer values tie, so
    # sign(0) = 0 is exercised
    rng = np.random.default_rng(seed)
    x = (rng.integers(-2, 3, shape).astype(float) if integer_valued
         else rng.normal(100.0, 20.0, shape))
    penalty, grad = btv_penalty(x, alpha, p_radius), btv_gradient(x, alpha, p_radius)
    want_penalty = roll_btv_penalty(x, alpha, p_radius)
    want_grad = roll_btv_gradient(x, alpha, p_radius)
    if integer_valued and alpha in (1.0, 0.5, 0.25):
        # every product and sum is a dyadic rational held exactly
        assert penalty == want_penalty
        assert np.array_equal(grad, want_grad)
        return
    # The two sum in different orders.  The gradient rounds at most once
    # per pair (the reference) and twice per weight (the kernel's Horner
    # rule: one add and one multiply per weight), each by at most one ulp
    # of the pixel's sum of |terms|; the penalty, <x, gradient> against
    # the sum of the pairs' |differences|, adds one rounding per pixel on
    # each side.
    pairs = len(roll_btv_pairs(p_radius))
    magnitudes = roll_btv_magnitudes(x, alpha, p_radius)
    assert np.all(np.abs(grad - want_grad)
                  <= (pairs + 2 * p_radius) * np.spacing(magnitudes))
    assert_btv_penalty_near_roll_reference(penalty, x, alpha, p_radius)


def assert_btv_penalty_near_roll_reference(penalty, x, alpha, p_radius):
    """The penalty, <x, gradient>, against the sum of the pairs'
    |differences|: one rounding per pixel on each side, on top of the
    gradient's (pairs + 2P roundings of at most one ulp of each pixel's
    sum of |terms|)."""
    pairs = len(roll_btv_pairs(p_radius))
    magnitudes = roll_btv_magnitudes(x, alpha, p_radius)
    assert abs(penalty - roll_btv_penalty(x, alpha, p_radius)) <= (
        (2 * x.size + pairs + 2 * p_radius) * np.spacing(float((np.abs(x) * magnitudes).sum())))


def roll_btv_horner_gradient(x, alpha, p_radius):
    """btv_gradient as the kernel rounds it, row-major with np.roll: each
    weight's sign differences summed exactly in integers, then Horner's
    rule in alpha from the heaviest weight (2P) down."""
    grad = None
    for weight in range(2 * p_radius, 0, -1):
        total = np.zeros(x.shape, dtype=np.int64)
        for l, m in roll_btv_pairs(p_radius):
            if abs(l) + m == weight:
                s = np.sign(x - np.roll(x, (m, l), axis=(0, 1))).astype(np.int64)
                total += s - np.roll(s, (-m, -l), axis=(0, 1))
        if grad is None:
            grad = alpha * total
        else:
            grad += total
            grad *= alpha
    return grad


@settings(max_examples=200)
@given(shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
       p_radius=st.integers(1, 3),
       alpha=st.one_of(st.sampled_from([1.0, 0.5, 0.25]),
                       st.floats(0.0, 1.0, exclude_min=True)),
       integer_valued=st.booleans(),
       seed=st.integers(0, 2**16))
def test_btv_on_column_major_planes_matches_roll_reference(shape, p_radius, alpha,
                                                           integer_valued, seed):
    # the solver's planes are column-major: the pass runs on their
    # C-contiguous transpose, each pair transposed, and sums exactly the
    # integers of the row-major reference, so the gradient is equal
    rng = np.random.default_rng(seed)
    x = (rng.integers(-2, 3, shape).astype(float) if integer_valued
         else rng.normal(100.0, 20.0, shape))
    grad = np.empty(shape, order="F")
    penalty, got = solver._btv(np.asfortranarray(x), alpha, p_radius, grad,
                               solver._BtvBuffers(shape[::-1], p_radius))
    assert got is grad
    want = roll_btv_horner_gradient(x, alpha, p_radius)
    assert np.array_equal(grad, want)
    assert np.array_equal(btv_gradient(x, alpha, p_radius), want)
    assert_btv_penalty_near_roll_reference(penalty, x, alpha, p_radius)


def test_wrap_pad_matches_np_pad_on_sides_shorter_than_p():
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (1, 5), (4, 1), (2, 3), (5, 4), (9, 12)]:
        for p in range(1, 8):
            x = rng.normal(size=shape)
            out = np.full((shape[0] + 2 * p + 1, shape[1] + 2 * p), np.nan)
            assert solver._wrap_pad(x, p, out) is out
            assert np.array_equal(out, np.pad(x, ((p, p + 1), (p, p)), mode="wrap"))


def test_btv_sums_a_heavy_weight_group_without_overflow():
    # at P 45 the 68 pairs of weight 45 add up to 136 at an impulse, past
    # int8; on 47x97 no shift wraps onto itself, and 3105 pairs of 4559
    # values pass check_btv_fits
    x = np.zeros((47, 97))
    x[20, 40] = 1.0
    check_btv_fits(45, x.shape)
    grad = btv_gradient(x, 1.0, 45)
    assert np.array_equal(grad, roll_btv_gradient(x, 1.0, 45))
    assert grad[20, 40] == 2 * len(roll_btv_pairs(45))
    assert btv_penalty(x, 1.0, 45) == roll_btv_penalty(x, 1.0, 45)


def test_btv_validation():
    with pytest.raises(ValueError):
        btv_penalty(np.zeros((4, 4)), 0.0, 2)
    with pytest.raises(ValueError):
        btv_gradient(np.zeros((4, 4)), 0.7, 0)


# ---------------------------------------------------------------- cost

def cost(x, observations, cfg):
    """The MAP cost in image space: sum_k ||y_k - forward_model(x)||^2
    plus lam * BTV."""
    data = sum(float(np.sum((o.image - forward_model(x, o)) ** 2)) for o in observations)
    return data + cfg.lam * btv_penalty(x, cfg.alpha, cfg.p_radius)


def test_cost_zero_at_truth():
    rng = np.random.default_rng(40)
    truth = rng.normal(300.0, 50.0, (16, 16))
    meta = make_obs((16, 8), (0.0, 1.0), (1, 2), 1.0)
    lr = forward_model(truth, meta)
    obs = Observation(lr, (0.0, 1.0), (1, 2), gaussian_kernel(1.0))
    cfg = SolverConfig(lam=0.0)
    assert cost(truth, [obs], cfg) == pytest.approx(0.0, abs=1e-10)


def test_cost_at_zero_is_norm_squared():
    rng = np.random.default_rng(41)
    y = rng.normal(size=(8, 8))
    obs = delta_obs(y)
    cfg = SolverConfig(lam=0.0)
    assert cost(np.zeros((8, 8)), [obs], cfg) == \
        pytest.approx(float((y * y).sum()))


def test_cost_gradient_first_order():
    rng = np.random.default_rng(42)
    truth = rng.normal(300.0, 50.0, (16, 16))
    meta = make_obs((16, 8), (0.0, 1.0), (1, 2), 1.0)
    lr = forward_model(truth, meta)
    obs = Observation(lr, (0.0, 1.0), (1, 2), gaussian_kernel(1.0))
    cfg = SolverConfig(lam=0.01)
    x = truth + rng.normal(0.0, 20.0, truth.shape)

    resid = obs.image - forward_model(x, obs)
    g = -2.0 * adjoint_model(resid, obs)
    g = g + cfg.lam * btv_gradient(x, cfg.alpha, cfg.p_radius)

    eps = 1e-4
    d = rng.normal(size=truth.shape)
    d /= np.linalg.norm(d)
    c0 = cost(x, [obs], cfg)
    c1 = cost(x + eps * d, [obs], cfg)
    predicted = float((g * d).sum()) * eps
    assert (c1 - c0) == pytest.approx(predicted, rel=0.10)


# ---------------------------------------------------------------- solve

def test_identity_problem_converges():
    rng = np.random.default_rng(50)
    y = rng.normal(100.0, 20.0, (32, 32))
    obs = delta_obs(y)
    result = super_resolve([obs], cfg=SolverConfig(lam=0.0, max_iters=50,
                                                   rel_tol=1e-12))
    rel = np.linalg.norm(result.image - y) / np.linalg.norm(y)
    assert rel < 1e-6
    assert result.converged
    assert result.iterations_run <= 50


def test_huge_lambda_flattens():
    rng = np.random.default_rng(51)
    y = rng.uniform(0.0, 3000.0, (32, 32))
    obs = delta_obs(y)
    result = super_resolve([obs], cfg=SolverConfig(lam=1e6, max_iters=8000,
                                                   rel_tol=0.0))
    # the prior dominates and the result approaches a constant image;
    # the sign-based subgradient stepping stalls at a fixed point a few
    # percent of the input span above perfectly flat
    assert np.ptp(result.image) < 0.05 * np.ptp(y)
    assert np.ptp(result.image) < np.ptp(y) / 20.0


def test_two_observation_beats_bicubic(star_target):
    psf = gaussian_kernel(1.0)
    observations = []
    for shift in [(0.0, 0.0), (0.0, 1.0)]:
        meta = Observation(np.zeros((256, 128)),
                           shift, (1, 2), psf)
        lr = forward_model(star_target, meta)
        observations.append(Observation(lr, shift, (1, 2), psf))
    cfg = SolverConfig(lam=1e-4, max_iters=200, rel_tol=1e-7)
    result = super_resolve(observations, cfg=cfg)
    err_sr = np.linalg.norm(result.image - star_target)
    baseline = bicubic_upsample(observations[0].image, (1, 2))
    err_bc = np.linalg.norm(baseline - star_target)
    assert err_sr < 0.6 * err_bc


def test_cost_trace_non_increasing(star_target, scenario, nominal_params):
    o1, o2 = simulate_observations(star_target, nominal_params, 42)
    result = super_resolve([o1, o2], cfg=scenario.solver)
    assert all(b <= a for a, b in zip(result.cost_trace, result.cost_trace[1:]))


def test_non_convergence_is_flag_not_failure():
    result = super_resolve(phase_pair(52), cfg=SolverConfig(lam=0.0, max_iters=1,
                                                            rel_tol=1e-30))
    assert result.iterations_run == 1
    assert not result.converged


def test_exact_fit_stops_at_rounding_floor():
    # the model fits one (2, 2)-decimated observation exactly: once the
    # residuals are down to the data's rounding, no step lowers the cost
    # and the step search ends the solve as converged
    rng = np.random.default_rng(3)
    obs = [make_obs((9, 9), (0.37, -1.21), (2, 2), 0.5,
                    lr_data=rng.normal(100.0, 20.0, (9, 9)))]
    cfg = SolverConfig(lam=0.0, max_iters=200, rel_tol=1e-9)
    result = super_resolve(obs, cfg=cfg)
    assert result.converged
    assert result.iterations_run < cfg.max_iters
    assert result.cost_trace[-1] == pytest.approx(cost(result.image, obs, cfg),
                                                  rel=1e-6, abs=1e-20)


def test_noise_robustness_ordering(star_target):
    # a budget deep enough for the noise to reach the estimate: at the
    # scenario's calibrated 3-step budget the error is bias-dominated
    # and indifferent to sigma
    cfg = SolverConfig(lam=0.05, max_iters=40, rel_tol=1e-7)
    errors = []
    for snr in (1e12, 120.0, 60.0, 30.0):  # sigma 0, 2.5, 5, 10 counts
        per_seed = []
        for j in range(5):
            params = SystemParams(snr_at_300=snr)
            o1, o2 = simulate_observations(star_target, params, child_seed(77, j))
            res = super_resolve([o1, o2], cfg=cfg)
            per_seed.append(np.linalg.norm(res.image - star_target))
        errors.append(np.mean(per_seed))
    assert all(b >= a for a, b in zip(errors, errors[1:]))


def test_shift_information_property(star_target):
    # the half-LR-pixel stagger carries the recoverable phase diversity
    psf = gaussian_kernel(1.0)

    def reconstruct(d_across):
        observations = []
        for shift in [(0.0, 0.0), (0.0, d_across)]:
            meta = Observation(np.zeros((256, 128)),
                               shift, (1, 2), psf)
            lr = forward_model(star_target, meta)
            observations.append(Observation(lr, shift, (1, 2), psf))
        cfg = SolverConfig(lam=1e-4, max_iters=60, rel_tol=1e-9)
        return super_resolve(observations, cfg=cfg).image

    err_good = np.linalg.norm(reconstruct(1.0) - star_target)
    err_bad = np.linalg.norm(reconstruct(0.0) - star_target)
    assert err_good < err_bad


def _alias_guard_lowpass(x: np.ndarray, decimation: tuple[int, int]) -> np.ndarray:
    """Zero frequencies above the LR Nyquist of each decimated axis: the
    image-space warm start's second half, before the solver built its warm
    start in the spectrum."""
    spectrum = scipy.fft.fft2(x)
    for axis, s in enumerate(decimation):
        if s > 1:
            f = np.fft.fftfreq(x.shape[axis])
            keep = np.abs(f) < 0.5 / s
            shape = [1, 1]
            shape[axis] = x.shape[axis]
            spectrum *= keep.reshape(shape)
    return scipy.fft.ifft2(spectrum).real


def image_space_super_resolve(observations, cfg):
    """The image-space descent super_resolve ran before its data term moved
    to the Fourier domain: every cost and gradient goes through image
    space.  Returns (x, cost trace, iterations, converged, halvings,
    last accepted step)."""
    decimation = observations[0].decimation
    d0, d1 = decimation
    hr_shape = (observations[0].image.shape[0] * d0, observations[0].image.shape[1] * d1)
    terms = [(o.image, full_rows(kernel_transfer(o.assumed_psf, hr_shape)
                                 * shift_multiplier_2d(hr_shape, o.shift_hr), hr_shape[0]))
             for o in observations]

    def forward(x, t):
        return scipy.fft.ifft2(scipy.fft.fft2(x) * t).real[::d0, ::d1]

    def adjoint(r, t):
        up = np.zeros(hr_shape)
        up[::d0, ::d1] = r
        return scipy.fft.ifft2(scipy.fft.fft2(up) * np.conj(t)).real

    def map_cost(x):
        total = 0.0
        for y, t in terms:
            residual = y - forward(x, t)
            total += float((residual * residual).sum())
        if cfg.lam > 0:
            total += cfg.lam * btv_penalty(x, cfg.alpha, cfg.p_radius)
        return total

    def gradient(x):
        g = np.zeros(hr_shape)
        for y, t in terms:
            g -= 2.0 * adjoint(y - forward(x, t), t)
        if cfg.lam > 0:
            g += cfg.lam * btv_gradient(x, cfg.alpha, cfg.p_radius)
        return g

    x = _alias_guard_lowpass(bicubic_upsample(observations[0].image, decimation),
                             decimation)
    current = map_cost(x)
    trace = [current]
    beta, converged, iterations, halvings, final_beta = cfg.beta0, False, 0, 0, 0.0
    for iterations in range(1, cfg.max_iters + 1):
        g = gradient(x)
        for _ in range(MAX_HALVINGS + 1):
            candidate = x - beta * g
            c_new = map_cost(candidate)
            if c_new < current:
                break
            beta *= 0.5
            halvings += 1
        else:
            converged = True
            iterations -= 1
            break
        x, final_beta = candidate, beta
        previous, current = current, c_new
        trace.append(current)
        beta = min(beta * 1.2, cfg.beta0)
        if (previous - current) <= cfg.rel_tol * max(previous, np.finfo(float).tiny):
            converged = True
            break
    return x, trace, iterations, converged, halvings, final_beta


@given(decimation=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
       lr_shape=st.tuples(st.integers(9, 14), st.integers(9, 14)),
       shifts=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                       min_size=5, max_size=5),
       psf_sigma=st.sampled_from([0.5, 0.9]),
       lam=st.sampled_from([0.0, 0.01, 0.6]),
       max_iters=st.sampled_from([3, 200]),
       beta0=st.sampled_from([1.0, 64.0]),
       seed=st.integers(0, 2**16))
def test_spectral_solver_matches_image_space_reference(
        decimation, lr_shape, shifts, psf_sigma, lam, max_iters, beta0, seed):
    # one observation more than the decimation's phases keeps the data term
    # overdetermined.  With fewer, the data neither fix the null-space part
    # of x nor keep the cost off zero, and over 200 iterations rounding,
    # which differs between any two float orders, decides the iterates:
    # images part at 1e-7, and iteration counts differ once the cost
    # reaches the rounding floor.
    rng = np.random.default_rng(seed)
    observations = [make_obs(lr_shape, shift, decimation, psf_sigma,
                             lr_data=rng.normal(100.0, 20.0, lr_shape))
                    for shift in shifts[:decimation[0] * decimation[1] + 1]]
    cfg = SolverConfig(lam=lam, beta0=beta0, max_iters=max_iters, rel_tol=1e-9)
    x, trace, iterations, converged, halvings, final_beta = \
        image_space_super_resolve(observations, cfg)
    result = super_resolve(observations, cfg=cfg)
    assert result.iterations_run == iterations == len(result.cost_trace) - 1
    assert result.converged == converged
    assert result.step_halvings == halvings
    assert result.final_beta == final_beta
    np.testing.assert_allclose(result.cost_trace, trace, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(result.image, x, rtol=1e-10,
                               atol=1e-10 * np.abs(x).max())


def _counted_solve(monkeypatch, observations, cfg=SolverConfig()):
    """super_resolve(observations, cfg); returns (transform calls, result).
    Calls are counted at the numpy.fft entry points the package uses and
    at scipy.fft's, which must not run at all."""
    calls = {"numpy": 0, "scipy": 0}

    def counting(module, name, library):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[library] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("fft2", "ifft2", "rfft2", "irfft2", "fft", "ifft", "rfft", "irfft"):
        counting(np.fft, name, "numpy")
        counting(scipy.fft, name, "scipy")
    return calls, super_resolve(observations, cfg=cfg)


def _psf_pair(sigmas):
    """Two observations with these PSF sigmas, each kernel built separately."""
    rng = np.random.default_rng(54)
    return [make_obs((16, 8), shift, (1, 2), sigma,
                     lr_data=rng.normal(100.0, 20.0, (16, 8)))
            for shift, sigma in zip([(0.0, 0.0), (0.0, 1.0)], sigmas)]


def test_fft_count(monkeypatch):
    # equal kernels are one PSF: 1 rfft2 for the kernel transfer, 1 per
    # observation's data spectrum and 2 to take the warm start's spectrum
    # (which also gives the first residuals) to image space, its column
    # ifft and its row irfft.  Then 3 per iteration: the gradient to image
    # space (ifft, irfft) and the accepted candidate's spectrum (rfft2)
    calls, result = _counted_solve(monkeypatch, _psf_pair((1.0, 1.0)))
    assert result.iterations_run == 3
    assert calls == {"numpy": 5 + 3 * result.iterations_run + result.step_halvings,
                     "scipy": 0}


def test_fft_count_two_psfs(monkeypatch):
    # one more kernel transfer
    calls, result = _counted_solve(monkeypatch, _psf_pair((1.0, 1.5)))
    assert result.iterations_run == 3
    assert calls == {"numpy": 6 + 3 * result.iterations_run + result.step_halvings,
                     "scipy": 0}


def test_fft_count_prices_each_step_halving(monkeypatch):
    # every rejected candidate is measured from its own spectrum: one
    # more rfft2 per halving (3 iterations, 7 halvings: 21 calls)
    calls, result = _counted_solve(monkeypatch, phase_pair(53),
                                   SolverConfig(lam=0.0, beta0=48.0, max_iters=3))
    assert (result.iterations_run, result.step_halvings) == (3, 7)
    assert calls == {"numpy": 5 + 3 * 3 + 7, "scipy": 0}


def test_step_halvings_recorded(star_target, scenario, nominal_params):
    o1, o2 = simulate_observations(star_target, nominal_params, 42)
    nominal = super_resolve([o1, o2], cfg=scenario.solver)
    assert nominal.step_halvings == 0
    assert nominal.final_beta == scenario.solver.beta0
    # the identity problem's descent diverges for any step above 1.  A step
    # of exactly 1 mirrors the error, a cost tie that rounding decides, so
    # beta0 halves past it: 48 -> 1.5 -> 0.75
    forced = super_resolve(phase_pair(53), cfg=SolverConfig(lam=0.0, beta0=48.0,
                                                            max_iters=3))
    assert forced.step_halvings > 0
    assert 0.0 < forced.final_beta < 1.0


def test_super_resolve_validation():
    with pytest.raises(ValueError):
        super_resolve([])
    a = make_obs((8, 8), (0.0, 0.0), (1, 2))
    b = make_obs((8, 8), (0.0, 0.0), (2, 2))
    with pytest.raises(ValueError, match="decimation"):
        super_resolve([a, b])
    with pytest.raises(ValueError, match="sr_factor"):
        super_resolve([a], cfg=SolverConfig(sr_factor=(2, 2)))


def test_solve_calls_no_blas_dot_product(monkeypatch, star_target, nominal_params):
    # OpenBLAS threads a dot product of a residual spectrum's size, so each
    # call would start its thread pool in every campaign worker, and two
    # workers on two cores would contend with each other's BLAS threads
    pair = simulate_observations(star_target, nominal_params, 42)
    want = super_resolve(pair)

    def no_vdot(*args, **kwargs):
        raise AssertionError("numpy.vdot called")
    monkeypatch.setattr(np, "vdot", no_vdot)
    got = super_resolve(pair)
    assert got.iterations_run == 3
    assert np.array_equal(got.image, want.image) and got.cost_trace == want.cost_trace


def test_default_solve_peaks_below_its_bound(star_target, nominal_params):
    # every campaign trial runs this solve; a stack of per-pair BTV planes
    # held through the step search would cross the bound
    pair = simulate_observations(star_target, nominal_params, 42)
    super_resolve(pair)  # numpy's and the transforms' caches fill outside the budget
    tracemalloc.start()
    try:
        super_resolve(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 5.42 MiB with numpy 2.4: the held working set (5.17 MiB) and fold's
    # product of its second column block
    assert peak < 6.1 * 2**20


def test_btv_pass_memory_does_not_grow_with_p(star_target, nominal_params):
    # the BTV pass sums one weight at a time into one held plane: a wider
    # window adds only its wider pad and sign buffer (under 50 KiB from
    # P 2 to P 6), not a sum plane per weight
    pair = simulate_observations(star_target, nominal_params, 42)
    peaks = []
    for p_radius in (2, 6):
        cfg = SolverConfig(p_radius=p_radius)
        super_resolve(pair, cfg)  # numpy's and the transforms' caches fill outside the budget
        tracemalloc.start()
        try:
            super_resolve(pair, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 256 * 2**10


_FAULT_PROBE = """
import resource
from srlab import Scenario, SolverConfig, SystemParams, generate_spoke_target
from srlab.simulator import simulate_observations
from srlab.solver import super_resolve
scenario = Scenario()
pair = simulate_observations(generate_spoke_target(scenario.star, scenario.grid_size),
                             SystemParams(), 42)
cfg = SolverConfig(lam=0.01, max_iters=200, rel_tol=0.0)
super_resolve(pair, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = super_resolve(pair, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, result.iterations_run)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor faults as Linux's getrusage counts them")
def test_warmed_deep_solve_does_not_fault_its_memory_back_in():
    # the working set is built once per solve: a warmed 256x256 solve
    # faults in at most its own buffers (about 1,700 pages), not, as when
    # every iteration allocated its planes afresh, 100-300 pages per
    # iteration
    probe = subprocess.run([sys.executable, "-c", _FAULT_PROBE], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": PACKAGE_ROOT,
                                "OMP_NUM_THREADS": "1"})
    faults, iterations = map(int, probe.stdout.split())
    assert iterations >= 40
    assert faults < 25 * iterations


def test_solve_returns_no_workspace_buffer(star_target, nominal_params):
    first_pair = simulate_observations(star_target, nominal_params, 42)
    first = super_resolve(first_pair)
    kept = first.image.copy()
    second = super_resolve(simulate_observations(star_target, nominal_params, 43))
    assert np.array_equal(first.image, kept)
    assert not np.shares_memory(first.image, second.image)
    for image in (first.image, second.image):
        assert image.flags.owndata and image.flags.writeable and image.flags.c_contiguous

    # the operators outside the solve still give what irfft2 gave, bit for bit
    def irfft2(spectrum, shape):
        return np.fft.irfft2(spectrum, s=(shape[1], shape[0]), axes=(1, 0))

    obs = first_pair[1]
    transfer = solver._transfers([obs], obs.hr_shape)[0]
    x, r = first.image, obs.image - forward_model(first.image, obs)
    for image in (forward_model(x, obs), adjoint_model(r, obs),
                  bicubic_upsample(obs.image, obs.decimation)):
        assert image.flags.c_contiguous  # row-major, as every image is
    assert np.array_equal(forward_model(x, obs), irfft2(
        fold(transfer, rfft2_rows(x), obs.decimation), obs.image.shape))
    assert np.array_equal(adjoint_model(r, obs), irfft2(
        unfold(transfer, rfft2_rows(r), obs.decimation), obs.hr_shape))
    assert np.array_equal(bicubic_upsample(obs.image, obs.decimation), irfft2(
        _cubic_spectrum(rfft2_rows(obs.image), obs.image.shape, obs.decimation),
        obs.hr_shape))


def _strided(image):
    """A view of image's values, every other column of a wider array."""
    return np.repeat(image, 2, axis=1)[:, ::2]


@pytest.mark.parametrize("relayout", [np.asfortranarray, _strided])
def test_solve_does_not_depend_on_the_input_layout(star_target, nominal_params, relayout):
    # the solver works on column-major planes of its own: observations
    # given column-major or as strided views solve as row-major ones do,
    # whether built that way or assigned after construction
    pair = simulate_observations(star_target, nominal_params, 42)
    want = super_resolve(pair)
    built = [Observation(relayout(o.image), o.shift_hr, o.decimation, o.assumed_psf)
             for o in pair]
    assigned = [Observation(o.image, o.shift_hr, o.decimation, o.assumed_psf)
                for o in pair]
    for o in assigned:
        o.image = relayout(o.image)
    assert not assigned[0].image.flags.c_contiguous
    for observations in (built, assigned):
        got = super_resolve(observations)
        assert np.array_equal(got.image, want.image)
        assert got.cost_trace == want.cost_trace


@pytest.mark.parametrize("p_radius, grid", [(25, 256), (51, 128)])
def test_btv_window_is_bounded_by_the_grid(monkeypatch, p_radius, grid):
    # the largest window whose 3P(P+1)/2 shift pairs compare at most 2**26
    # values passes; one more is refused by Scenario at config load and by
    # super_resolve before any shift pair is built
    check_btv_fits(p_radius, (grid, grid))
    Scenario(grid_size=(grid, grid), solver=SolverConfig(p_radius=p_radius))
    with pytest.raises(ValueError, match=f"solver P {p_radius + 1}: "):
        Scenario(grid_size=(grid, grid), solver=SolverConfig(p_radius=p_radius + 1))

    def no_pairs(p):
        raise AssertionError("pairs built")
    monkeypatch.setattr(solver, "_btv_pairs", no_pairs)
    obs = make_obs((grid, grid // 2), (0.0, 0.0), (1, 2))
    with pytest.raises(ValueError, match=f"solver P {p_radius + 1}: "):
        super_resolve([obs], cfg=SolverConfig(p_radius=p_radius + 1))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(p_radius=0)
    with pytest.raises(ValueError):
        SolverConfig(beta0=0.0)


def map_coordinates_upsample(lr, decimation):
    """The image-space cubic-spline upsample bicubic_upsample replaced."""
    rows = np.arange(lr.shape[0] * decimation[0]) / decimation[0]
    cols = np.arange(lr.shape[1] * decimation[1]) / decimation[1]
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    return ndimage.map_coordinates(lr, [rr, cc], order=3, mode="grid-wrap")


@settings(max_examples=60, deadline=None)
@given(lr_shape=st.tuples(st.integers(5, 40), st.integers(5, 40)),
       decimation=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2**16))
def test_cubic_spectrum_matches_map_coordinates(lr_shape, decimation, seed):
    # odd and even sides, including those whose half is odd (14, 30, ...)
    lr = np.random.default_rng(seed).normal(100.0, 20.0, lr_shape)
    reference = map_coordinates_upsample(lr, decimation)
    scale = np.abs(reference).max()
    np.testing.assert_allclose(bicubic_upsample(lr, decimation), reference,
                               rtol=0.0, atol=1e-12 * scale)
    hr_shape = (lr_shape[0] * decimation[0], lr_shape[1] * decimation[1])
    warm = irfft2_rows(_cubic_spectrum(rfft2_rows(lr), lr_shape, decimation,
                                       band_limit=True), hr_shape)
    np.testing.assert_allclose(warm, _alias_guard_lowpass(reference, decimation),
                               rtol=0.0, atol=1e-12 * scale)


def test_bicubic_upsample_alignment():
    rng = np.random.default_rng(60)
    lr = rng.normal(size=(8, 8))
    up = bicubic_upsample(lr, (1, 2))
    assert up.shape == (8, 16)
    assert np.allclose(up[:, ::2], lr, atol=1e-9)
