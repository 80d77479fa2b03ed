"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them on
success).  The campaign and sweep fixtures are session-scoped; the whole
module runs in a few minutes on one core.
"""

import json
import math

import numpy as np
import pytest

from srlab.cli import main as cli_main
from srlab.fourier import gaussian_kernel
from srlab.metrology import measure_resolution, nem
from srlab.montecarlo import ParameterSpec, run_campaign, run_trial, sweep
from srlab.mtf import jitter_mtf, smear_mtf
from srlab.seeding import child_seed
from srlab.simulator import Observation, SystemParams, simulate_observations
from srlab.solver import (SolverConfig, adjoint_model, bicubic_upsample,
                          forward_model, super_resolve)
from srlab.target import StarSpec, generate_spoke_target

MASTER_SEED = 2024
CAMPAIGN_TRIALS = 200
SEEDS_PER_VALUE = 5


def record(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def nominal_resolutions(scenario):
    values = []
    for j in range(SEEDS_PER_VALUE):
        trial = run_trial(SystemParams(), scenario, child_seed(500, j))
        assert trial.error is None
        values.append(trial.resolution_m)
    return values


@pytest.fixture(scope="session")
def campaign(scenario):
    return run_campaign(ParameterSpec(), scenario, CAMPAIGN_TRIALS,
                        MASTER_SEED, bin_width_m=0.05)


# ------------------------------------------------------------ criterion 1

def test_criterion_1_mtf_anchors():
    s_half = float(smear_mtf(0.25, 0.5, 1))
    s_nyq = float(smear_mtf(0.5, 0.5, 1))
    j_nyq = float(jitter_mtf(0.5, 0.1))
    ok = (abs(s_half - 0.900) <= 0.005 and abs(s_nyq - 0.637) <= 0.005
          and abs(j_nyq - 0.952) <= 0.005)
    record(1, ok, f"smear(0.25)={s_half:.4f} (0.900±0.005), "
                  f"smear(0.5)={s_nyq:.4f} (0.637±0.005), "
                  f"jitter(0.5,0.1)={j_nyq:.4f} (0.952±0.005)")


# ------------------------------------------------------------ criterion 2

def test_criterion_2_nem():
    value = nem(300.0, 5.0)
    ok = abs(value - 0.0667) <= 1e-4
    record(2, ok, f"nem(300,5)={value:.6f} (0.0667±1e-4)")


# ------------------------------------------------------------ criterion 3

def test_criterion_3_metrology_fidelity():
    star = StarSpec(cycles=72, outer_radius=232.0, inner_radius=6.0,
                    center=(256.0, 256.0), supersample=4)
    ideal = generate_spoke_target(star, (512, 512))
    sigma = 1.0
    fy = np.fft.fftfreq(512)[:, None]
    fx = np.fft.fftfreq(512)[None, :]
    gauss = np.exp(-2 * np.pi**2 * sigma**2 * (fx**2 + fy**2))
    blurred = np.fft.ifft2(np.fft.fft2(ideal) * gauss).real
    rep_i = measure_resolution(ideal, star.center, star.cycles, 300.0, 0.0,
                               star.outer_radius, n_rings=40)
    rep_b = measure_resolution(blurred, star.center, star.cycles, 300.0, 0.0,
                               star.outer_radius, n_rings=40)
    worst = 0.0
    n_pts = 0
    for (f_i, m_i), (_, m_b) in zip(rep_i.curve, rep_b.curve):
        if 0.05 <= f_i <= 0.35:
            predicted = math.exp(-2 * math.pi**2 * sigma**2 * f_i**2) * m_i
            worst = max(worst, abs(m_b - predicted))
            n_pts += 1
    ok = n_pts >= 10 and worst <= 0.05
    record(3, ok, f"max |measured - gaussian*ideal| = {worst:.4f} over "
                  f"{n_pts} points in f=[0.05,0.35] (tol 0.05)")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_solver_correctness(star_target, scenario):
    rng = np.random.default_rng(4242)
    worst_rel = 0.0
    cases = 0
    for decimation in ((1, 2), (2, 2), (1, 1)):
        hr = (24, 24)
        lr = (hr[0] // decimation[0], hr[1] // decimation[1])
        for _ in range(17):
            if cases >= 50:
                break
            shift = (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            psf = gaussian_kernel(float(rng.uniform(0.4, 1.8)))
            obs = Observation(np.zeros(lr), shift,
                              decimation, psf)
            x = rng.normal(size=hr)
            y = rng.normal(size=lr)
            fx = forward_model(x, obs)
            aty = adjoint_model(y, obs)
            lhs, rhs = float((fx * y).sum()), float((x * aty).sum())
            worst_rel = max(worst_rel, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            cases += 1
    adjoint_ok = cases >= 50 and worst_rel <= 1e-8

    o1, o2 = simulate_observations(star_target, SystemParams(), 42)
    result = super_resolve([o1, o2], cfg=scenario.solver)
    trace_ok = all(b <= a for a, b in
                   zip(result.cost_trace, result.cost_trace[1:]))

    psf = gaussian_kernel(1.0)
    observations = []
    for shift in [(0.0, 0.0), (0.0, 1.0)]:
        meta = Observation(np.zeros((256, 128)),
                           shift, (1, 2), psf)
        lr = forward_model(star_target, meta)
        observations.append(Observation(lr, shift, (1, 2), psf))
    sr = super_resolve(observations,
                       cfg=SolverConfig(lam=1e-4, max_iters=200, rel_tol=1e-7))
    err_sr = np.linalg.norm(sr.image - star_target)
    err_bc = np.linalg.norm(bicubic_upsample(observations[0].image, (1, 2))
                            - star_target)
    ratio = err_sr / err_bc
    recon_ok = ratio < 0.6

    ok = adjoint_ok and trace_ok and recon_ok
    record(4, ok, f"adjoint worst rel err {worst_rel:.2e} over {cases} cases "
                  f"(tol 1e-8); cost trace non-increasing: {trace_ok}; "
                  f"reconstruction/bicubic error ratio {ratio:.3f} (<0.6)")


# ------------------------------------------------------------ criterion 5

def test_criterion_5_headline_resolution(nominal_resolutions, campaign):
    lo, hi = 1.5, 1.9
    in_band = all(lo <= r <= hi for r in nominal_resolutions)
    mode_ok = 1.55 <= campaign.mode_m <= 1.85
    ok = in_band and mode_ok and campaign.n_failed == 0
    record(5, ok,
           f"nominal resolutions {[round(r, 3) for r in nominal_resolutions]} m "
           f"(band [1.5, 1.9]); {CAMPAIGN_TRIALS}-trial histogram mode "
           f"{campaign.mode_m:.3f} m (band [1.55, 1.85]); "
           f"failed trials {campaign.n_failed}")


# ------------------------------------------------------------ criterion 6

def _means(result):
    return result.mean_resolution_m


def test_criterion_6_sensitivity_monotonicity(scenario):
    base = SystemParams()
    optics = _means(sweep([("optics_mtf", [0.10, 0.30, 0.50])], scenario,
                          seeds_per_value=SEEDS_PER_VALUE, base=base,
                          master_seed=11))
    snr = _means(sweep([("snr", [30.0, 60.0, 100.0])], scenario,
                       seeds_per_value=SEEDS_PER_VALUE, base=base,
                       master_seed=11))
    jitter = _means(sweep([("jitter", [0.1, 0.15, 0.2])], scenario,
                          seeds_per_value=SEEDS_PER_VALUE, base=base,
                          master_seed=11))
    clock = _means(sweep([("clock_phase", [1, 2, 4])], scenario,
                         seeds_per_value=SEEDS_PER_VALUE, base=base,
                         master_seed=11))
    shift = _means(sweep([("subarray_shift", [0.1, 0.2, 0.3, 0.4, 0.5])], scenario,
                         seeds_per_value=SEEDS_PER_VALUE, base=base,
                         master_seed=11))
    grid = _means(sweep([("optics_mtf", [0.10, 0.50]), ("snr", [30.0, 100.0])],
                        scenario, seeds_per_value=SEEDS_PER_VALUE,
                        master_seed=11))

    optics_ok = all(a > b for a, b in zip(optics, optics[1:]))  # strictly finer
    snr_ok = all(a >= b for a, b in zip(snr, snr[1:]))          # non-worsening
    jitter_ok = all(a <= b for a, b in zip(jitter, jitter[1:]))  # non-improving
    clock_ok = all(a >= b for a, b in zip(clock, clock[1:]))    # non-worsening
    shift_ok = shift[-1] == min(shift)                          # best at 0.5
    corner_ok = grid[1, 1] == np.nanmin(grid)  # (max MTF, max SNR) optimum

    ok = optics_ok and snr_ok and jitter_ok and clock_ok and shift_ok and corner_ok
    record(6, ok,
           f"optics {np.round(optics, 4).tolist()} strict-improving={optics_ok}; "
           f"snr {np.round(snr, 4).tolist()} non-worsening={snr_ok}; "
           f"jitter {np.round(jitter, 4).tolist()} non-improving={jitter_ok}; "
           f"clock {np.round(clock, 4).tolist()} non-worsening={clock_ok}; "
           f"shift {np.round(shift, 4).tolist()} min-at-0.5={shift_ok}; "
           f"grid corner optimum={corner_ok}")


# ------------------------------------------------------------ criterion 7

def test_criterion_7_sr_ratio(nominal_resolutions):
    mean_res = float(np.mean(nominal_resolutions))
    ratio = 2.5 / mean_res
    ok = 1.3 <= ratio <= 1.65
    record(7, ok, f"2.5 m / {mean_res:.3f} m = {ratio:.3f} (band [1.3, 1.65])")


# ------------------------------------------------------------ criterion 8

def test_criterion_8_thread_count_determinism(tmp_path):
    config = {
        "star": {"cycles": 144, "outer_radius": 104.0, "inner_radius": 8.0,
                 "dark_level": 0.0, "bright_level": 600.0,
                 "center": [128.0, 128.0], "supersample": 4},
        "grid": {"height": 256, "width": 256},
        "system": {},
        "solver": {"lambda": 0.6, "alpha": 0.7, "P": 2, "beta0": 1.0,
                   "max_iters": 3, "rel_tol": 1e-9},
        "montecarlo": {"n_trials": 20, "master_seed": MASTER_SEED,
                       "bin_width_m": 0.05},
        "output_dir": str(tmp_path),
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        rc = cli_main(["montecarlo", "--config", str(cfg_path),
                       "--threads", str(threads), "--out-dir", str(out)])
        assert rc == 0
        outputs[threads] = {name: (out / name).read_bytes()
                            for name in ("trials.csv", "histogram.csv",
                                         "summary.json")}
    identical = outputs[1] == outputs[2]
    record(8, identical,
           "trials.csv, histogram.csv, summary.json byte-identical for "
           "--threads 1 vs --threads 2 at the same master seed")
