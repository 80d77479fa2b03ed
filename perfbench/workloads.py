"""The three workloads, run one unit at a time.

A unit is one ``run_campaign`` call of ``CAMPAIGN_CHUNK`` trials for the
campaign workloads, and one simulate + deep solve on each pool worker
for reconstruct-deep.
Unit k of a workload depends only on (seed, k), and both campaign
workloads run the same units, so their trials must agree field by field.
Every operation also yields a record that the correctness checks compare
against the stored reference and against earlier runs.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import inputs
import tracer as tracing


@dataclass
class Op:
    """One trial (campaigns) or one simulate + solve (reconstruct-deep)."""

    key: str
    seconds: float
    failed: bool
    record: dict
    trial_id: object = None
    solve_seconds: float | None = None


@dataclass
class Unit:
    index: int
    wall: float
    ops: list[Op]
    problems: list[str] = field(default_factory=list)
    # peak RSS of each pool worker that ran the unit
    worker_peaks_mb: list[float] = field(default_factory=list)


def trial_record(trial) -> dict:
    """Seed-determined fields of a TrialResult (wall_time excluded)."""
    return {"params": dataclasses.asdict(trial.params),
            "resolution_m": trial.resolution_m,
            "solver_converged": trial.solver_converged,
            "seed": trial.seed, "error": trial.error}


class Campaign:
    """campaign-serial (workers=1) and campaign-parallel (workers=N)."""

    kind = "campaign"

    def __init__(self, srlab, workers: int):
        self.srlab = srlab
        self.workers = workers
        self.spec = inputs.parameter_spec(srlab)
        self.scenario = inputs.scenario(srlab, inputs.CAMPAIGN_SOLVER)

    def prepare(self):
        """Campaigns rasterize their own target inside run_campaign."""

    def resolved_inputs(self) -> dict:
        """The inputs srlab receives, as recorded in the run's output."""
        return {"scenario": dataclasses.asdict(self.scenario),
                "parameter_spec": dataclasses.asdict(self.spec),
                "trials_per_campaign": inputs.CAMPAIGN_CHUNK,
                "bin_width_m": inputs.BIN_WIDTH_M, "threads": self.workers}

    def run_unit(self, seed: int, k: int, n_trials: int = inputs.CAMPAIGN_CHUNK) -> Unit:
        """Traced trials carry run_trial's seed as their trial id."""
        master = inputs.campaign_master_seed(seed, k)
        t0 = time.perf_counter()
        try:
            result = self.srlab.montecarlo.run_campaign(
                self.spec, self.scenario, n_trials, master,
                bin_width_m=inputs.BIN_WIDTH_M, threads=self.workers)
        except RuntimeError as exc:  # no trial resolved: all count as failed
            wall = time.perf_counter() - t0
            ops = [Op(f"c/{master}/{i}", wall / n_trials, True, {"error": str(exc)})
                   for i in range(n_trials)]
            return Unit(k, wall, ops)
        wall = time.perf_counter() - t0
        ops, problems = [], []
        for i, trial in enumerate(result.trials):
            record = trial_record(trial)
            problems += self._check(trial, record)
            ops.append(Op(f"c/{master}/{i}", float(trial.wall_time),
                          trial.error is not None, record, trial_id=trial.seed))
        return Unit(k, wall, ops, problems)

    @staticmethod
    def _check(trial, record) -> list[str]:
        problems = []
        if trial.params.subarray_shift_al_lines != inputs.NOMINAL["subarray_shift_al_lines"] \
                or record["params"]["geometry"] != inputs.GEOMETRY:
            problems.append(f"trial {trial.seed}: unsampled system fields differ from "
                            "the pinned inputs (library defaults changed)")
        r = trial.resolution_m
        if r is not None and not (math.isfinite(r) and r > 0):
            problems.append(f"trial {trial.seed}: resolution {r!r} is not a positive number")
        return problems


def deep_trial(task) -> tuple[Op, list[str]]:
    """One simulate + deep solve; runs in a pool worker."""
    import srlab
    key, target, params, cfg, noise_seed = task
    tracing.set_trial(key)
    t0 = time.perf_counter()
    try:
        obs = srlab.simulator.simulate_observations(target, params, noise_seed)
        t1 = time.perf_counter()
        sr = srlab.solver.super_resolve(list(obs), cfg=cfg)
        t2 = time.perf_counter()
    except (ValueError, FloatingPointError) as exc:
        return Op(key, time.perf_counter() - t0, True, {"error": str(exc)}, key), []
    finally:
        tracing.set_trial(None)
    record = {"iterations": sr.iterations_run, "final_cost": sr.cost_trace[-1],
              "converged": sr.converged}
    problems = []
    trace = sr.cost_trace
    if not all(math.isfinite(c) for c in trace) or \
            any(b > a for a, b in zip(trace, trace[1:])):
        problems.append(f"{key}: cost trace is not finite and non-increasing")
    if not 0 <= sr.iterations_run <= cfg.max_iters or sr.image.shape != inputs.GRID:
        problems.append(f"{key}: {sr.iterations_run} iterations, image {sr.image.shape}")
    return Op(key, t2 - t0, False, record, key, solve_seconds=t2 - t1), problems


class Deep:
    """reconstruct-deep: simulate_observations + super_resolve at nominal
    parameters on the deep budget, no metrology.  A unit runs one deep
    trial on each of `workers` pool workers, started the way
    run_campaign starts its pool."""

    kind = "deep"

    def __init__(self, srlab, workers: int):
        self.srlab = srlab
        self.workers = workers
        self.scenario = inputs.scenario(srlab, inputs.DEEP_SOLVER)
        self.params = inputs.nominal_params(srlab)
        self.target = None

    def prepare(self):
        self.target = self.srlab.target.generate_spoke_target(self.scenario.star,
                                                              self.scenario.grid_size)

    def resolved_inputs(self) -> dict:
        """The inputs srlab receives, as recorded in the run's output."""
        return {"scenario": dataclasses.asdict(self.scenario),
                "system": dataclasses.asdict(self.params), "workers": self.workers}

    def run_unit(self, seed: int, k: int) -> Unit:
        tasks = [(f"d/{seed}/{i}", self.target, self.params, self.scenario.solver,
                  inputs.deep_noise_seed(seed, i))
                 for i in range(k * self.workers, (k + 1) * self.workers)]
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            results = list(pool.map(deep_trial, tasks))
        wall = time.perf_counter() - t0
        return Unit(k, wall, [op for op, _ in results], [p for _, ps in results for p in ps])


def make(srlab, workload: str, workers: int):
    if workload == "campaign-serial":
        return Campaign(srlab, 1)
    if workload == "campaign-parallel":
        return Campaign(srlab, workers)
    return Deep(srlab, workers)
