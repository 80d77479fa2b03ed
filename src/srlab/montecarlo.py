"""Monte Carlo campaigns and parameter sweeps.

Each trial runs the full simulate -> super-resolve -> measure pipeline
for one (system parameters, noise seed) pair and records the achieved
resolution.  A campaign or sweep is a plan of such pairs run by one
executor: campaigns sample the parameters from their distributions,
sweeps run the product of any number of value axes (one axis for a
one-at-a-time sweep, two for a grid).  Seeds derive from (master seed,
index), so results are bit-reproducible regardless of worker count or
execution order.
"""

from __future__ import annotations

import functools
import itertools
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .fourier import check_gaussian_fits
from .metrology import _ladder_rings, measure_resolution
from .scenario import MonteCarloConfig, Scenario
from .seeding import child_seed
from .simulator import ASSUMED_PSF_FWHM, SIGMA_PER_FWHM, SystemParams, simulate_observations
from .solver import super_resolve
from .target import StarSpec, generate_spoke_target

logger = logging.getLogger(__name__)

__all__ = [
    "ParameterDistribution",
    "ParameterSpec",
    "TrialResult",
    "CampaignResult",
    "SweepResult",
    "sample_parameters",
    "run_trial",
    "run_campaign",
    "sweep",
    "PARAMETER_FIELDS",
]

# sampled parameter name -> SystemParams field
PARAMETER_FIELDS = {
    "optics_mtf": "optics_mtf_at_hr_nyq",
    "clock_phase": "n_phi",
    "jitter": "jitter_sigma",
    "snr": "snr_at_300",
    "subarray_shift": "subarray_shift_ax",
    "psf_sigma": "assumed_psf_sigma",
}

# smallest assumed-PSF sigma a perturbed draw may produce, HR pixels
PSF_SIGMA_FLOOR = 0.25

# noise seeds each sweep cell runs when none is given
SEEDS_PER_VALUE = 5

# the nominal system, whose fields are the sampled rows' nominals
_NOMINAL = SystemParams()


@dataclass(frozen=True)
class ParameterDistribution:
    """One sampled parameter: nominal value, range, and distribution kind.

    kind "gaussian" draws with mean = nominal and sigma = (high-low)/6,
    rejection-resampled into [low, high]; "uniform" draws uniformly on
    [low, high]; "choice" draws uniformly from the discrete choices.
    """

    name: str
    kind: str
    nominal: float
    low: float = 0.0
    high: float = 0.0
    choices: tuple = ()

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "choice"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "choice":
            if not self.choices:
                raise ValueError(f"{self.name}: choice distribution needs choices")
        elif self.low > self.high:
            raise ValueError(f"{self.name}: empty range [{self.low}, {self.high}]")
        elif not self.low <= self.nominal <= self.high:
            # a gaussian centered outside its range would never be accepted
            raise ValueError(f"{self.name}: nominal {self.nominal} outside "
                             f"[{self.low}, {self.high}]")

    def draw(self, rng: np.random.Generator) -> float:
        if self.kind == "choice":
            return float(rng.choice(np.asarray(self.choices, dtype=np.float64)))
        if self.kind == "uniform":
            if self.low == self.high:
                return self.nominal
            return float(rng.uniform(self.low, self.high))
        sigma = (self.high - self.low) / 6.0
        if sigma == 0.0:
            return self.nominal
        while True:
            v = float(rng.normal(self.nominal, sigma))
            if self.low <= v <= self.high:
                return v


@dataclass(frozen=True)
class ParameterSpec:
    """The campaign's sampled-parameter table.

    Row nominals are SystemParams()'s; ranges mirror the mission variation
    study: optics MTF 10..50% (gaussian), clock phase uniform over {1, 2,
    4}, jitter 0.1..0.2 px (gaussian), SNR 30..100 (gaussian), subarray
    shift uniform on 0.1..0.5 LR px.

    The assumed-PSF estimate is rebuilt per trial: the solver's Gaussian
    support FWHM is drawn uniformly from {2, 3} HR px and converted to
    sigma.  That half-to-one-pixel support uncertainty is the default
    model of PSF-estimation error; an additional additive Gaussian error
    on the support width (psf_error_sigma, in pixels, floored at
    PSF_SIGMA_FLOOR after conversion) is available for wider studies but
    defaults to zero.
    """

    optics_mtf: ParameterDistribution = ParameterDistribution(
        "optics_mtf", "gaussian", _NOMINAL.optics_mtf_at_hr_nyq, 0.10, 0.50)
    clock_phase: ParameterDistribution = ParameterDistribution(
        "clock_phase", "choice", _NOMINAL.n_phi, choices=(1, 2, 4))
    jitter: ParameterDistribution = ParameterDistribution(
        "jitter", "gaussian", _NOMINAL.jitter_sigma, 0.1, 0.2)
    snr: ParameterDistribution = ParameterDistribution(
        "snr", "gaussian", _NOMINAL.snr_at_300, 30.0, 100.0)
    subarray_shift: ParameterDistribution = ParameterDistribution(
        "subarray_shift", "uniform", _NOMINAL.subarray_shift_ax, 0.1, 0.5)
    psf_width: ParameterDistribution = ParameterDistribution(
        "psf_width", "choice", ASSUMED_PSF_FWHM, choices=(2, 3))
    psf_error_sigma: ParameterDistribution = ParameterDistribution(
        "psf_error_sigma", "uniform", 0.0, 0.0, 0.0)

    def rows(self) -> tuple[ParameterDistribution, ...]:
        """Draw order: fixed so a single stream stays reproducible."""
        return (self.optics_mtf, self.clock_phase, self.jitter, self.snr,
                self.subarray_shift, self.psf_width, self.psf_error_sigma)


@dataclass
class TrialResult:
    """Outcome of one pipeline run.

    rings_dropped, degenerate_crossing and ladder_limited are the
    metrology flags of the trial's ResolutionReport; a failed trial
    keeps their defaults.
    """

    params: SystemParams
    resolution_m: float | None
    solver_converged: bool
    seed: int
    wall_time: float
    error: str | None = None
    rings_dropped: int = 0
    degenerate_crossing: bool = False
    ladder_limited: bool = False


@dataclass
class CampaignResult:
    """Aggregated campaign: trials, resolution histogram, summary stats."""

    trials: list[TrialResult]
    bin_width_m: float
    bin_edges: np.ndarray
    counts: np.ndarray
    mode_m: float
    mean_m: float
    p10_m: float
    p90_m: float
    n_resolved: int
    n_failed: int
    master_seed: int


@dataclass
class SweepResult:
    """A sweep over the product of value axes.

    axes holds the (parameter, values) pairs, each value a float; trials
    holds one list per cell in row-major order; mean_resolution_m is
    shaped like the axes, NaN where no trial in the cell resolved.
    """

    axes: list[tuple[str, list[float]]]
    trials: list[list[TrialResult]]
    mean_resolution_m: np.ndarray


def sample_parameters(spec: ParameterSpec, rng_seed: int,
                      base: SystemParams | None = None) -> SystemParams:
    """Draw one SystemParams record from the spec, deterministically per seed.

    The assumed-PSF sigma combines the drawn support width (FWHM to
    sigma) with an additive Gaussian estimation error; every field that
    is not drawn keeps base's value (default SystemParams()).
    """
    rng = np.random.default_rng(rng_seed)
    draws = {row.name: row.draw(rng) for row in spec.rows()}
    # estimation error perturbs the support width (the row is in pixels
    # of support), then FWHM -> sigma
    width = draws["psf_width"] + float(rng.normal(0.0, draws["psf_error_sigma"]))
    draws["psf_sigma"] = max(width * SIGMA_PER_FWHM, PSF_SIGMA_FLOOR)
    return replace(base or _NOMINAL,
                   **{field: draws[name] for name, field in PARAMETER_FIELDS.items()})


def run_trial(params: SystemParams, scenario: Scenario, seed: int) -> TrialResult:
    """Run target -> simulate -> super-resolve -> measure for one trial.

    The target is the scenario's star as _plan_target memoizes it; the
    NEM noise input is the per-trial sigma = 300/SNR.  Non-finite values
    abort the trial with a recorded failure, so campaigns continue.
    """
    t0 = time.perf_counter()
    try:
        target = _plan_target(scenario.star, tuple(scenario.grid_size))
        obs1, obs2 = simulate_observations(target, params, seed)
        sr = super_resolve([obs1, obs2], cfg=scenario.solver)
        report = measure_resolution(
            sr.image, scenario.star.center, scenario.star.cycles,
            scenario.nem_signal, params.noise_sigma, scenario.star.outer_radius,
            n_rings=scenario.n_rings)
        return TrialResult(params, report.resolution_m, sr.converged, seed,
                           time.perf_counter() - t0, rings_dropped=report.rings_dropped,
                           degenerate_crossing=report.degenerate_crossing,
                           ladder_limited=report.ladder_limited)
    except (ValueError, FloatingPointError) as exc:
        logger.warning("trial seed=%d failed: %s", seed, exc)
        return TrialResult(params, None, False, seed,
                           time.perf_counter() - t0, error=str(exc))


@functools.lru_cache(maxsize=4)
def _plan_target(star: StarSpec, grid_size: tuple[int, int]) -> np.ndarray:
    """The star rasterized once per process, read-only so every plan and
    trial on it can share it (generate_spoke_target itself returns a
    fresh, writable array)."""
    target = generate_spoke_target(star, grid_size)
    target.flags.writeable = False
    return target


def _plan_invariants(scenario: Scenario) -> None:
    """Fill the caches every trial of a plan reads: its target and the
    ring table of its ladder.  Run before the plan is drawn, it refuses
    a star that cannot be rasterized or measured.
    The pool workers _run_plan forks afterwards inherit both."""
    star = scenario.star
    shape = _plan_target(star, tuple(scenario.grid_size)).shape
    _ladder_rings(shape, star.center, star.cycles, star.outer_radius, scenario.n_rings, None)


def _check_threads(threads: int) -> None:
    """Refuse a thread count before any plan is drawn: below 1, or above
    max(8, 4 * usable CPUs), which oversubscribes the host but bounds
    the processes a plan forks."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if threads > (cap := max(8, 4 * cpus)):
        raise ValueError(f"threads must be <= {cap} (max(8, 4 x {cpus} usable CPUs)), "
                         f"got {threads}")


def _run_plan(plan, scenario: Scenario, threads: int,
              progress=None) -> list[TrialResult]:
    """Run each (params, seed) pair of the plan through run_trial on
    `threads` processes: this one and min(threads, len(plan)) - 1 pool
    workers, forked (whatever the default start method) after the caller
    has cached the plan's invariants, so they inherit them.

    Each process takes the next plan index when it finishes a trial:
    this one in its loop, a pool worker through its last trial's
    done-callback, so no more trials are submitted than there are
    workers.  An index is taken and submitted under one lock, and the
    index source is closed before the pool shuts down.  Outcomes are
    read in plan order after the shutdown (so results are identical for
    any thread count), raising the first pool trial's exception.
    progress runs on this thread only.
    """
    workers = min(threads, len(plan)) - 1
    outcomes = [None] * len(plan)
    indices = (i for i in range(len(plan)))
    # reentrant: a future done before its callback is added runs it in place
    lock = threading.RLock()
    finished = reported = 0

    def take():
        with lock:
            return next(indices, None)

    def record(i, outcome):
        nonlocal finished
        with lock:
            outcomes[i] = outcome
            finished += 1
            return finished

    def submit_next(pool):
        with lock:
            if (i := take()) is not None:
                params, seed = plan[i]
                pool.submit(run_trial, params, scenario, seed).add_done_callback(
                    functools.partial(pool_done, pool, i))

    def pool_done(pool, i, future):
        error = future.exception()
        record(i, error or future.result())
        if error:
            with lock:
                indices.close()
        submit_next(pool)

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork") if fork else None
    with (ProcessPoolExecutor(max_workers=workers, mp_context=context) if workers
          else nullcontext()) as pool:
        try:
            for _ in range(workers):
                submit_next(pool)
            while (i := take()) is not None:
                params, seed = plan[i]
                reported = record(i, run_trial(params, scenario, seed))
                if progress:
                    progress(reported, len(plan))
        finally:
            with lock:
                indices.close()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    if progress and reported < len(plan):
        progress(len(plan), len(plan))
    return outcomes


def run_campaign(spec: ParameterSpec, scenario: Scenario, n_trials: int,
                 master_seed: int, bin_width_m: float = MonteCarloConfig.bin_width_m,
                 threads: int = 1, progress=None,
                 base: SystemParams | None = None) -> CampaignResult:
    """Run n_trials sampled trials and aggregate the resolution histogram.

    Trial i draws parameters on top of base (default SystemParams()) with
    child seed (master, i, 0) and noise with (master, i, 1); results are
    independent of thread count.  A base that sets a drawn field away
    from its default is rejected, since the draw would override it.
    Histogram bins are anchored at multiples of bin_width_m; the mode is
    the center of the most populated bin (ties: smallest).  Trials that
    fail or report no resolution are tallied but excluded from the
    histogram.
    """
    _check_threads(threads)
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not bin_width_m > 0:
        raise ValueError("bin width must be > 0")
    base = base or _NOMINAL
    for name in PARAMETER_FIELDS.values():
        if getattr(base, name) != getattr(_NOMINAL, name):
            raise ValueError(f"{name} is drawn per trial by the campaign; the "
                             f"base parameters must leave it at its default")
    _plan_invariants(scenario)
    plan = [(sample_parameters(spec, child_seed(master_seed, i, 0), base),
             child_seed(master_seed, i, 1)) for i in range(n_trials)]
    trials = _run_plan(plan, scenario, threads, progress)

    resolved = [t.resolution_m for t in trials if t.resolution_m is not None]
    n_failed = sum(1 for t in trials if t.error is not None)
    if not resolved:
        errors = [t.error for t in trials if t.error][:5]
        raise RuntimeError(f"campaign produced no resolved trials; "
                           f"first failures: {errors}")

    lo = int(np.floor(min(resolved) / bin_width_m))
    hi = int(np.floor(max(resolved) / bin_width_m))
    edges = np.arange(lo, hi + 2) * bin_width_m
    counts, _ = np.histogram(resolved, bins=edges)
    mode_m = float(edges[int(np.argmax(counts))] + bin_width_m / 2.0)

    return CampaignResult(
        trials=trials, bin_width_m=bin_width_m, bin_edges=edges, counts=counts,
        mode_m=mode_m, mean_m=float(np.mean(resolved)),
        p10_m=float(np.percentile(resolved, 10)),
        p90_m=float(np.percentile(resolved, 90)),
        n_resolved=len(resolved), n_failed=n_failed, master_seed=master_seed,
    )


def _resolve_field(parameter: str) -> str:
    if parameter in PARAMETER_FIELDS:
        return PARAMETER_FIELDS[parameter]
    if parameter in PARAMETER_FIELDS.values():
        return parameter
    raise ValueError(f"unknown parameter {parameter!r}; "
                     f"expected one of {sorted(PARAMETER_FIELDS)}")


def _sweep_plan(axes, base: SystemParams | None, seeds_per_value: int,
                master_seed: int) -> list[tuple[SystemParams, int]]:
    """(params, seed) pairs over the product of the (parameter, values) axes.

    Cells run in row-major order; every cell runs the seeds
    child_seed(master_seed, j), j < seeds_per_value, so noise
    realizations are paired across cells.
    """
    if seeds_per_value < 1:
        raise ValueError("seeds_per_value must be >= 1")
    if not axes:
        raise ValueError("sweep needs at least one parameter axis")
    if any(len(values) < 2 for _, values in axes):
        raise ValueError("sweep needs at least 2 values per parameter")
    names = [_resolve_field(parameter) for parameter, _ in axes]
    if len(set(names)) < len(names):
        raise ValueError(f"sweep axes {[p for p, _ in axes]} set one parameter twice")
    base = base or _NOMINAL
    seeds = [child_seed(master_seed, j) for j in range(seeds_per_value)]
    plan = []
    for cell in itertools.product(*(values for _, values in axes)):
        params = replace(base, **{name: float(v) for name, v in zip(names, cell)})
        plan += [(params, seed) for seed in seeds]
    return plan


def sweep(axes, scenario: Scenario, seeds_per_value: int = SEEDS_PER_VALUE,
          base: SystemParams | None = None, master_seed: int = 0,
          threads: int = 1) -> SweepResult:
    """Run every cell of the product of the (parameter, values) axes.

    Each cell sets its values on base (default SystemParams()) and
    holds every other field there.  Seed j is shared across all cells
    (paired noise realizations), which stabilizes the monotonicity
    comparisons.  A cell's mean resolution covers its resolved trials
    only (NaN if none resolved).  A star that cannot be measured and a
    solver PSF too wide for the grid are refused before any trial runs.
    """
    _check_threads(threads)
    axes = [(parameter, [float(v) for v in values]) for parameter, values in axes]
    _plan_invariants(scenario)
    plan = _sweep_plan(axes, base, seeds_per_value, master_seed)
    for params, _ in plan:
        check_gaussian_fits(params.assumed_psf_sigma, scenario.grid_size)
    trials = _run_plan(plan, scenario, threads)
    cells = [trials[i:i + seeds_per_value]
             for i in range(0, len(trials), seeds_per_value)]
    means = np.full(len(cells), np.nan)
    for k, cell in enumerate(cells):
        resolved = [t.resolution_m for t in cell if t.resolution_m is not None]
        if resolved:
            means[k] = np.mean(resolved)
    return SweepResult(axes, cells, means.reshape([len(v) for _, v in axes]))
