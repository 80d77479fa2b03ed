"""Pinned workload inputs and seed derivation.

Every value a workload depends on is spelled out here rather than read
from srlab's defaults, so a change of library defaults (the solver
settings, the grid, the ring count, the parameter table) cannot silently
change what the benchmark measures.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("campaign-serial", "campaign-parallel", "reconstruct-deep")
DEFAULT_SEED = 42
# trials per run_campaign call; both campaign workloads run the same calls
CAMPAIGN_CHUNK = 8
BIN_WIDTH_M = 0.05

GRID = (256, 256)
STAR = dict(cycles=144, outer_radius=104.0, inner_radius=8.0, dark_level=0.0,
            bright_level=600.0, center=(128.0, 128.0), supersample=4)
NEM_SIGNAL = 300.0
N_RINGS = 80
# the calibrated shallow budget campaigns run
CAMPAIGN_SOLVER = dict(lam=0.6, alpha=0.7, p_radius=2, beta0=1.0, max_iters=3,
                       rel_tol=1e-9, sr_factor=None)
# the deep budget acceptance criterion 4 runs
DEEP_SOLVER = dict(lam=0.01, alpha=0.7, p_radius=2, beta0=1.0, max_iters=200,
                   rel_tol=1e-5, sr_factor=None)
GEOMETRY = dict(hr_sample_pitch_um=4.0, lr_pixel_pitch_um=8.0, hr_gsd_m=1.25,
                lr_igfov_m=2.5, f_nyq_hr=0.5, f_nyq_lr=0.25)
# nominal system: 2 HR px FWHM assumed PSF
NOMINAL = dict(optics_mtf_at_hr_nyq=0.30, n_phi=1, jitter_sigma=0.1,
               snr_at_300=60.0, subarray_shift_ax=0.5, subarray_shift_al_lines=10,
               assumed_psf_sigma=2.0 * (1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))))
# ParameterSpec rows: (field, kind, nominal, low, high, choices)
SPEC_ROWS = (
    ("optics_mtf", "gaussian", 0.30, 0.10, 0.50, ()),
    ("clock_phase", "choice", 1, 0.0, 0.0, (1, 2, 4)),
    ("jitter", "gaussian", 0.1, 0.1, 0.2, ()),
    ("snr", "gaussian", 60.0, 30.0, 100.0, ()),
    ("subarray_shift", "uniform", 0.5, 0.1, 0.5, ()),
    ("psf_width", "choice", 2, 0.0, 0.0, (2, 3)),
    ("psf_error_sigma", "uniform", 0.0, 0.0, 0.0, ()),
)


def derive(seed: int, *path: int) -> int:
    """Independent 64-bit seed for (seed, path)."""
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1, np.uint64)[0])


def campaign_master_seed(seed: int, chunk: int) -> int:
    return derive(seed, 0, chunk)


def deep_noise_seed(seed: int, index: int) -> int:
    return derive(seed, 1, index)


def scenario(srlab, solver: dict):
    return srlab.Scenario(star=srlab.StarSpec(**STAR), grid_size=GRID,
                          solver=srlab.SolverConfig(**solver),
                          nem_signal=NEM_SIGNAL, n_rings=N_RINGS)


def parameter_spec(srlab):
    return srlab.ParameterSpec(**{
        name: srlab.ParameterDistribution(name, kind, nominal, low, high, choices)
        for name, kind, nominal, low, high, choices in SPEC_ROWS})


def nominal_params(srlab):
    return srlab.SystemParams(**NOMINAL, geometry=srlab.GeometryConstants(**GEOMETRY))
