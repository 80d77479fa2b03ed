import inspect
import logging
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest
from dataclasses import asdict, replace

from srlab import metrology, montecarlo
from srlab.metrology import measure_resolution
from srlab.montecarlo import (PARAMETER_FIELDS, ParameterDistribution, ParameterSpec,
                              run_campaign, run_trial, sample_parameters,
                              sweep)
from srlab.mtf import GeometryConstants
from srlab.scenario import MonteCarloConfig, Scenario
from srlab.seeding import child_seed
from srlab.simulator import (REFERENCE_SIGNAL, SIGMA_PER_FWHM, SystemParams,
                             simulate_observations)
from srlab.solver import super_resolve
from srlab.target import generate_spoke_target


def test_distribution_validation():
    with pytest.raises(ValueError):
        ParameterDistribution("x", "triangular", 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        ParameterDistribution("x", "gaussian", 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        ParameterDistribution("x", "choice", 1.0)


def test_distribution_rejects_nominal_outside_range():
    # construction only: draw's rejection loop would never end for these
    for kind in ("gaussian", "uniform"):
        with pytest.raises(ValueError, match="outside"):
            ParameterDistribution("x", kind, 100.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            ParameterDistribution("x", kind, -0.5, 0.0, 1.0)
    ParameterDistribution("x", "gaussian", 1.0, 0.0, 1.0)


def test_defaults_match_variation_table():
    spec = ParameterSpec()
    assert (spec.optics_mtf.nominal, spec.optics_mtf.low, spec.optics_mtf.high) \
        == (0.30, 0.10, 0.50)
    assert spec.optics_mtf.kind == "gaussian"
    assert spec.clock_phase.choices == (1, 2, 4)
    assert (spec.jitter.nominal, spec.jitter.low, spec.jitter.high) == (0.1, 0.1, 0.2)
    assert (spec.snr.nominal, spec.snr.low, spec.snr.high) == (60.0, 30.0, 100.0)
    assert spec.subarray_shift.kind == "uniform"
    assert (spec.subarray_shift.low, spec.subarray_shift.high) == (0.1, 0.5)
    assert spec.psf_width.choices == (2, 3)
    # support-width uncertainty is the default estimation-error model;
    # the extra continuous width error is off unless configured
    assert (spec.psf_error_sigma.low, spec.psf_error_sigma.high) == (0.0, 0.0)


def test_spec_nominals_are_the_nominal_system():
    # the nominal instrument is defined once, by SystemParams' defaults
    spec, nominal = ParameterSpec(), SystemParams()
    rows = {row.name: row for row in spec.rows()}
    for name, field in montecarlo.PARAMETER_FIELDS.items():
        if name in rows:
            assert rows[name].nominal == getattr(nominal, field), name
    assert nominal.assumed_psf_sigma == 2.0 * SIGMA_PER_FWHM
    assert spec.psf_width.nominal * SIGMA_PER_FWHM == nominal.assumed_psf_sigma
    assert Scenario().nem_signal == REFERENCE_SIGNAL
    run_defaults = inspect.signature(run_campaign).parameters
    assert run_defaults["bin_width_m"].default == MonteCarloConfig().bin_width_m


def test_clock_phase_uniformity():
    spec = ParameterSpec()
    counts = {1: 0, 2: 0, 4: 0}
    for seed in range(10_000):
        p = sample_parameters(spec, seed)
        counts[p.n_phi] += 1
    for phase in (1, 2, 4):
        assert counts[phase] == pytest.approx(3333, abs=300)


def test_snr_truncated_gaussian_stats():
    spec = ParameterSpec()
    draws = np.array([sample_parameters(spec, seed).snr_at_300
                      for seed in range(10_000)])
    assert draws.mean() == pytest.approx(60.0, abs=1.5)
    assert draws.min() >= 30.0
    assert draws.max() <= 100.0


def test_collapsed_distributions_reproduce_nominal():
    spec = ParameterSpec(
        optics_mtf=ParameterDistribution("optics_mtf", "gaussian", 0.30, 0.30, 0.30),
        clock_phase=ParameterDistribution("clock_phase", "choice", 1, choices=(1,)),
        jitter=ParameterDistribution("jitter", "gaussian", 0.1, 0.1, 0.1),
        snr=ParameterDistribution("snr", "gaussian", 60.0, 60.0, 60.0),
        subarray_shift=ParameterDistribution("subarray_shift", "uniform",
                                             0.5, 0.5, 0.5),
        psf_width=ParameterDistribution("psf_width", "choice", 2, choices=(2,)),
        psf_error_sigma=ParameterDistribution("psf_error_sigma", "uniform",
                                              0.0, 0.0, 0.0),
    )
    sampled = sample_parameters(spec, 12345)
    assert sampled == SystemParams()


def test_every_drawn_row_sets_its_field():
    # one-value choices away from every nominal: the draw moves exactly
    # the PARAMETER_FIELDS fields off the nominal system
    values = dict(optics_mtf=0.2, clock_phase=4, jitter=0.15, snr=50.0,
                  subarray_shift=0.3, psf_width=3, psf_error_sigma=0.5)
    rows = {row.name: ParameterDistribution(row.name, "choice", row.nominal,
                                            choices=(values[row.name],))
            for row in ParameterSpec().rows()}
    drawn, nominal = sample_parameters(ParameterSpec(**rows), 12345), SystemParams()
    moved = {name for name in asdict(nominal) if getattr(drawn, name) != getattr(nominal, name)}
    assert moved == set(PARAMETER_FIELDS.values())
    assert type(drawn.n_phi) is int


def test_sampled_ranges_respected():
    spec = ParameterSpec()
    for seed in range(200):
        p = sample_parameters(spec, seed)
        assert 0.10 <= p.optics_mtf_at_hr_nyq <= 0.50
        assert p.n_phi in (1, 2, 4)
        assert 0.1 <= p.jitter_sigma <= 0.2
        assert 30.0 <= p.snr_at_300 <= 100.0
        assert 0.1 <= p.subarray_shift_ax <= 0.5
        assert p.assumed_psf_sigma >= 0.25


def test_sampling_deterministic():
    spec = ParameterSpec()
    assert sample_parameters(spec, 99) == sample_parameters(spec, 99)


def test_run_trial_deterministic(tiny_scenario):
    params = SystemParams()
    a = run_trial(params, tiny_scenario, 7)
    b = run_trial(params, tiny_scenario, 7)
    assert a.resolution_m == b.resolution_m
    assert a.solver_converged == b.solver_converged
    assert a.error is None


def test_system_params_refuse_another_geometry():
    # the instrument geometry is fixed: every path reads mtf.GEOMETRY, so
    # a record carrying another one would be measured as if it were GEOMETRY
    with pytest.raises(ValueError, match="geometry is fixed"):
        SystemParams(geometry=GeometryConstants(hr_gsd_m=2.5, lr_igfov_m=5.0))
    assert SystemParams(geometry=GeometryConstants()) == SystemParams()


def test_run_trial_records_failures(tiny_scenario):
    # an assumed PSF wider than the grid cannot be applied; the trial
    # must record the failure rather than raise
    params = SystemParams(assumed_psf_sigma=50.0)
    result = run_trial(params, tiny_scenario, 7)
    assert result.resolution_m is None
    assert result.error is not None
    assert (result.rings_dropped, result.degenerate_crossing,
            result.ladder_limited) == (0, False, False)


def test_campaign_trial_flags_match_measure_resolution(tiny_scenario):
    # an NEM signal this low puts the whole curve under the NEM, so the
    # crossing is degenerate
    scenario = replace(tiny_scenario, nem_signal=1.0)
    trial = run_campaign(ParameterSpec(), scenario, n_trials=1, master_seed=3).trials[0]
    target = generate_spoke_target(scenario.star, scenario.grid_size)
    sr = super_resolve(list(simulate_observations(target, trial.params, trial.seed)),
                       cfg=scenario.solver)
    star = scenario.star
    report = measure_resolution(sr.image, star.center, star.cycles, scenario.nem_signal,
                                trial.params.noise_sigma, star.outer_radius,
                                n_rings=scenario.n_rings)
    assert trial.resolution_m == report.resolution_m
    assert (trial.rings_dropped, trial.degenerate_crossing, trial.ladder_limited) == \
        (report.rings_dropped, report.degenerate_crossing, report.ladder_limited)
    assert trial.degenerate_crossing


def test_campaign_histogram_and_determinism(tiny_scenario):
    spec = ParameterSpec()
    a = run_campaign(spec, tiny_scenario, n_trials=6, master_seed=5)
    b = run_campaign(spec, tiny_scenario, n_trials=6, master_seed=5, threads=2)
    assert [t.resolution_m for t in a.trials] == [t.resolution_m for t in b.trials]
    assert np.array_equal(a.counts, b.counts)
    assert a.mode_m == b.mode_m
    assert a.counts.sum() == a.n_resolved
    assert len(a.trials) == 6


@pytest.mark.parametrize("scenario_name", ["scenario", "tiny_scenario"])
def test_plan_warm_up_fills_the_ring_table_trials_read(request, scenario_name):
    # without the warm-up every pool worker would build the table itself
    scenario = request.getfixturevalue(scenario_name)
    params, seed = SystemParams(), 11
    metrology._ring_table.cache_clear()
    montecarlo._plan_invariants(scenario)
    before = metrology._ring_table.cache_info()
    trial = run_trial(params, scenario, seed)
    after = metrology._ring_table.cache_info()
    assert trial.error is None and trial.resolution_m is not None
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def _fields(trial):
    """A trial's record without its wall time."""
    record = asdict(trial)
    del record["wall_time"]
    return record


def test_repeated_campaign_reuses_the_target(tiny_scenario, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return generate_spoke_target(*args)
    monkeypatch.setattr(montecarlo, "generate_spoke_target", counting)
    montecarlo._plan_target.cache_clear()
    metrology._ring_table.cache_clear()
    first = run_campaign(ParameterSpec(), tiny_scenario, n_trials=4, master_seed=9,
                         threads=2)
    assert len(calls) == 1
    second = run_campaign(ParameterSpec(), tiny_scenario, n_trials=4, master_seed=9,
                          threads=2)
    assert len(calls) == 1
    # one table build: the warm-up that the forked workers inherit
    assert metrology._ring_table.cache_info().misses == 1
    assert [_fields(t) for t in second.trials] == [_fields(t) for t in first.trials]
    assert not montecarlo._plan_target(tiny_scenario.star,
                                       tiny_scenario.grid_size).flags.writeable


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_no_pool_worker_rasterizes(tiny_scenario, monkeypatch):
    # the parent fills the target cache before its pool forks, whatever
    # the default start method: a spawned worker would not see the patch
    # below, and would rasterize unnoticed.  A forked worker that
    # rasterized would raise AssertionError, which run_trial does not
    # record as a failed trial, so it would fail the run.
    pid = os.getpid()
    started = []

    def parent_only(*args):
        if os.getpid() != pid:
            raise AssertionError("a pool worker rasterized the target")
        return generate_spoke_target(*args)

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self._mp_context.get_start_method())
    monkeypatch.setattr(montecarlo, "generate_spoke_target", parent_only)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    default = multiprocessing.get_start_method(allow_none=True)
    try:
        for method in ("forkserver", "spawn"):
            multiprocessing.set_start_method(method, force=True)
            montecarlo._plan_target.cache_clear()
            parallel = run_campaign(ParameterSpec(), tiny_scenario, n_trials=4,
                                    master_seed=9, threads=2)
            serial = run_campaign(ParameterSpec(), tiny_scenario, n_trials=4,
                                  master_seed=9)
            assert [_fields(t) for t in parallel.trials] == \
                [_fields(t) for t in serial.trials]
            montecarlo._plan_target.cache_clear()
            parallel = sweep([("snr", [30.0, 100.0])], tiny_scenario, seeds_per_value=2,
                             master_seed=4, threads=2)
            serial = sweep([("snr", [30.0, 100.0])], tiny_scenario, seeds_per_value=2,
                           master_seed=4)
            assert [[_fields(t) for t in cell] for cell in parallel.trials] == \
                [[_fields(t) for t in cell] for cell in serial.trials]
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert started == ["fork"] * 4


def test_campaign_single_trial_single_bin(tiny_scenario):
    camp = run_campaign(ParameterSpec(), tiny_scenario, n_trials=1, master_seed=3)
    assert (camp.counts > 0).sum() == 1


def test_campaign_validation(tiny_scenario):
    with pytest.raises(ValueError):
        run_campaign(ParameterSpec(), tiny_scenario, n_trials=0, master_seed=1)
    with pytest.raises(ValueError):
        run_campaign(ParameterSpec(), tiny_scenario, n_trials=2, master_seed=1,
                     bin_width_m=0.0)


@pytest.mark.parametrize("threads", [0, -1, 10**6])
def test_plans_reject_bad_thread_count(tiny_scenario, monkeypatch, threads):
    # above the cap, max(8, 4 * usable CPUs), too; the check runs before
    # the plan is drawn, so no trial runs and no process starts
    def no_work(*args, **kwargs):
        raise AssertionError("the plan was drawn or run")
    for name in ("run_trial", "sample_parameters", "_plan_invariants",
                 "ProcessPoolExecutor"):
        monkeypatch.setattr(montecarlo, name, no_work)
    with pytest.raises(ValueError, match="threads"):
        run_campaign(ParameterSpec(), tiny_scenario, n_trials=2, master_seed=1,
                     threads=threads)
    with pytest.raises(ValueError, match="threads"):
        sweep([("snr", [30.0, 100.0])], tiny_scenario, seeds_per_value=1,
              threads=threads)
    with pytest.raises(ValueError, match="threads"):
        sweep([("optics_mtf", [0.1, 0.5]), ("snr", [30.0, 100.0])], tiny_scenario,
              seeds_per_value=1, threads=threads)


def test_run_trial_refuses_oversize_psf_before_building_it(tiny_scenario):
    # a 466 TiB kernel: recorded as a failed trial, not a MemoryError
    result = run_trial(SystemParams(assumed_psf_sigma=1e6), tiny_scenario, 7)
    assert result.resolution_m is None
    assert "larger than grid" in result.error


def test_campaign_raises_when_everything_fails(tiny_scenario):
    # an assumed-PSF width far beyond the grid makes every trial fail
    spec = replace(
        ParameterSpec(),
        psf_width=ParameterDistribution("psf_width", "choice", 500,
                                        choices=(500,)),
        psf_error_sigma=ParameterDistribution("psf_error_sigma", "uniform",
                                              0.0, 0.0, 0.0))
    with pytest.raises(RuntimeError, match="no resolved"):
        run_campaign(spec, tiny_scenario, n_trials=2, master_seed=1)


def test_sweep_paired_seeds(tiny_scenario):
    result = sweep([("snr", [30.0, 100.0])], tiny_scenario, seeds_per_value=2,
                   master_seed=4)
    assert result.axes == [("snr", [30.0, 100.0])]
    # seed j is shared across values
    assert result.trials[0][0].seed == result.trials[1][0].seed
    assert result.trials[0][0].seed == child_seed(4, 0)
    assert len(result.mean_resolution_m) == 2


def test_sweep_accepts_field_names(tiny_scenario):
    result = sweep([("snr_at_300", [30.0, 100.0])], tiny_scenario,
                   seeds_per_value=1, master_seed=4)
    assert result.axes[0][0] == "snr_at_300"


def test_sweep_validation(tiny_scenario):
    with pytest.raises(ValueError, match="unknown parameter"):
        sweep([("warp_speed", [1, 2])], tiny_scenario)
    with pytest.raises(ValueError):
        sweep([("snr", [60.0])], tiny_scenario)
    with pytest.raises(ValueError):
        sweep([("snr", [30.0, 60.0])], tiny_scenario, seeds_per_value=0)
    with pytest.raises(ValueError, match="seeds_per_value"):
        sweep([("optics_mtf", [0.1, 0.5]), ("snr", [30.0, 100.0])], tiny_scenario,
              seeds_per_value=0)
    with pytest.raises(ValueError, match="at least 2 values"):
        sweep([("optics_mtf", [0.1]), ("snr", [30.0, 100.0])], tiny_scenario)
    with pytest.raises(ValueError, match="unknown parameter"):
        sweep([("optics_mtf", [0.1, 0.5]), ("warp_speed", [1, 2])], tiny_scenario)


def test_sweep_rejects_out_of_range_value_before_any_trial(tiny_scenario,
                                                           monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "run_trial", no_trial)
    with pytest.raises(ValueError, match="clock phase"):
        sweep([("clock_phase", [0, 1])], tiny_scenario, seeds_per_value=1)


def test_sweep_clock_phase_is_integer(tiny_scenario):
    result = sweep([("clock_phase", [1, 2])], tiny_scenario, seeds_per_value=1,
                   master_seed=4)
    assert result.trials[0][0].params.n_phi == 1
    assert isinstance(result.trials[1][0].params.n_phi, int)


def test_sweep_rejects_fractional_clock_phase(tiny_scenario, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "run_trial", no_trial)
    with pytest.raises(ValueError, match="whole number, got 1.5"):
        sweep([("clock_phase", [1.5, 2])], tiny_scenario, seeds_per_value=1)
    with pytest.raises(ValueError, match="got 2.7"):
        sweep([("snr", [30.0, 60.0]), ("clock_phase", [1, 2.7])], tiny_scenario,
              seeds_per_value=1)
    plan = montecarlo._sweep_plan([("clock_phase", [1, 2.0])], None, 1, 0)
    assert [params.n_phi for params, _ in plan] == [1, 2]


@pytest.mark.parametrize("parameter, message", [
    ("clock_phase", "^clock phase count must be a whole number"),
    ("jitter", "^jitter_sigma must be <= .* the float range$")])
def test_sweep_refuses_int_past_float_range_before_any_trial(tiny_scenario, monkeypatch,
                                                             parameter, message):
    # the cell's SystemParams refuses the value by name, never with an
    # OverflowError, while the plan is built
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "run_trial", no_trial)
    with pytest.raises(ValueError, match=message):
        sweep([(parameter, [10**400, 1])], tiny_scenario, seeds_per_value=1)


def test_campaign_refuses_bin_width_past_float_range_before_any_trial(tiny_scenario,
                                                                      monkeypatch):
    # refused before any trial runs: binning the resolutions would overflow
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "run_trial", no_trial)
    with pytest.raises(ValueError, match="^bin_width_m must be <= .* the float range$"):
        run_campaign(ParameterSpec(), tiny_scenario, 2, 0, bin_width_m=10**400)


@pytest.mark.parametrize("axes, message", [
    ([("snr", [30.0, 100.0]), ("snr_at_300", [40.0, 50.0])], "twice"),
    ([("jitter", [0.1, 0.2]), ("jitter", [0.1, 0.2])], "twice"),
    ([], "at least one parameter axis")])
def test_sweep_rejects_repeated_or_missing_axes(tiny_scenario, monkeypatch, axes,
                                                message):
    # a repeated field would silently override the earlier axis, and no
    # axes would run one unlabelled cell at the base parameters
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "run_trial", no_trial)
    with pytest.raises(ValueError, match=message):
        sweep(axes, tiny_scenario, seeds_per_value=1)


def _record_trials(monkeypatch):
    """Replace run_trial with a stub that resolves at 1 m and records the
    params it was given."""
    seen = []

    def fake_trial(params, scenario, seed):
        seen.append(params)
        return montecarlo.TrialResult(params, 1.0, False, seed, 0.0)
    monkeypatch.setattr(montecarlo, "run_trial", fake_trial)
    return seen


@pytest.mark.parametrize("threads, n_trials, workers",
                         [(8, 4, 3), (2, 5, 1), (3, 1, 0), (1, 3, 0)])
def test_pool_is_sized_to_the_plan(tiny_scenario, monkeypatch, threads, n_trials,
                                   workers):
    # a fork-context pool forks all its workers at once, so a small plan
    # must not start more of them than it has trials.  The calling
    # process is one of the threads; a one-trial plan or one thread
    # starts no pool
    _record_trials(monkeypatch)
    started = []

    class StubPool:
        def __init__(self, max_workers, mp_context):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        @staticmethod
        def submit(fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", StubPool)
    camp = run_campaign(ParameterSpec(), tiny_scenario, n_trials=n_trials,
                        master_seed=5, threads=threads)
    assert len(camp.trials) == n_trials
    assert started == ([workers] if workers else [])


# directory in which _logged_trial records its calls; forked pool
# workers inherit it
_TRIAL_LOG = None


def _logged_trial(params, scenario, seed):
    """run_trial that first records its call as a file named pid-seed.
    A module-level function, so a pool can pickle it by name."""
    (_TRIAL_LOG / f"{os.getpid()}-{seed}").touch()
    return run_trial(params, scenario, seed)


def _log_trials(monkeypatch, log_dir):
    """Route every trial through _logged_trial; returns a reader of the
    (pid, seed) of each call so far."""
    monkeypatch.setitem(globals(), "_TRIAL_LOG", log_dir)
    monkeypatch.setattr(montecarlo, "run_trial", _logged_trial)
    return lambda: [tuple(map(int, path.name.split("-")))
                    for path in log_dir.iterdir()]


@pytest.mark.parametrize("threads", [2, 3])
def test_campaign_runs_on_one_process_per_thread(tiny_scenario, monkeypatch,
                                                 tmp_path, threads):
    # the calling process is one of the threads: 2 threads fork one worker
    calls = _log_trials(monkeypatch, tmp_path)
    run_campaign(ParameterSpec(), tiny_scenario, n_trials=6, master_seed=9,
                 threads=threads)
    pids = {pid for pid, _ in calls()}
    assert sorted(seed for _, seed in calls()) == \
        sorted(child_seed(9, i, 1) for i in range(6))
    assert os.getpid() in pids
    assert len(pids) == 2 if threads == 2 else 2 <= len(pids) <= threads


def test_pool_never_holds_more_trials_than_workers(tiny_scenario, monkeypatch):
    lock = threading.Lock()
    outstanding = submitted = peak = 0

    def settled(_future):
        nonlocal outstanding
        with lock:
            outstanding -= 1

    class CountingPool(ProcessPoolExecutor):
        def submit(self, *args):
            nonlocal outstanding, submitted, peak
            future = super().submit(*args)
            with lock:
                outstanding += 1
                submitted += 1
                peak = max(peak, outstanding)
            # runs before the callback that submits this worker's next trial
            future.add_done_callback(settled)
            return future
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    run_campaign(ParameterSpec(), tiny_scenario, n_trials=8, master_seed=9, threads=3)
    assert 1 <= peak <= 2
    assert submitted < 8


def test_interrupted_campaign_finishes_only_the_trials_in_flight(
        tiny_scenario, monkeypatch, tmp_path, caplog):
    calls = _log_trials(monkeypatch, tmp_path)
    caplog.set_level(logging.ERROR, logger="concurrent.futures")
    finished = []

    def interrupt(done, total):
        finished.append(done)
        raise KeyboardInterrupt
    threads = 3
    with pytest.raises(KeyboardInterrupt):
        run_campaign(ParameterSpec(), tiny_scenario, n_trials=24, master_seed=9,
                     threads=threads, progress=interrupt)
    assert len(finished) == 1
    assert len(calls()) <= finished[0] + 1 + (threads - 1)
    # no callback submitted to the pool after its shutdown
    assert not caplog.records
    assert multiprocessing.active_children() == []


def test_progress_runs_on_the_calling_thread(tiny_scenario):
    calls = []
    run_campaign(ParameterSpec(), tiny_scenario, n_trials=6, master_seed=9, threads=2,
                 progress=lambda done, total: calls.append(
                     (threading.get_ident(), done, total)))
    assert {ident for ident, _, _ in calls} == {threading.get_ident()}
    counts = [(done, total) for _, done, total in calls]
    assert counts == sorted(counts)
    assert counts[-1] == (6, 6)


def _quick_trial(params, scenario, seed):
    """A 1-ms trial that records its process id as its wall time."""
    time.sleep(1e-3)
    return montecarlo.TrialResult(params, 1.0, False, seed, float(os.getpid()))


# the process that runs the tests; pool workers are forked from it
_PARENT_PID = os.getpid()


def _fails_in_the_pool(params, scenario, seed):
    """_quick_trial, its call logged as _logged_trial logs, in the process
    that runs the tests; a RuntimeError in a pool worker."""
    (_TRIAL_LOG / f"{os.getpid()}-{seed}").touch()
    if os.getpid() != _PARENT_PID:
        raise RuntimeError(f"trial {seed} failed in a pool worker")
    return _quick_trial(params, scenario, seed)


def test_pool_trial_error_stops_the_campaign_and_reaches_the_caller(
        tiny_scenario, monkeypatch, tmp_path):
    # a pool trial that raises closes the index source, so the calling
    # process takes no more trials, and its exception is raised after the
    # pool has shut down
    calls = _log_trials(monkeypatch, tmp_path)
    monkeypatch.setattr(montecarlo, "run_trial", _fails_in_the_pool)
    n_trials = 100
    with pytest.raises(RuntimeError, match="failed in a pool worker"):
        run_campaign(ParameterSpec(), tiny_scenario, n_trials=n_trials, master_seed=9,
                     threads=2)
    assert any(pid != os.getpid() for pid, _ in calls())
    assert len(calls()) < n_trials
    assert multiprocessing.active_children() == []


def _hung(signum, frame):
    raise TimeoutError("the executor did not finish")


def test_executor_keeps_every_trial_under_contention(tiny_scenario, monkeypatch):
    # more processes than cores, short trials and a short switch
    # interval: an index taken twice or an outcome lost would show in
    # the seeds read back
    monkeypatch.setattr(montecarlo, "run_trial", _quick_trial)
    plan = [(SystemParams(), seed) for seed in range(400)]
    counts = []
    interval = sys.getswitchinterval()
    handler = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    sys.setswitchinterval(1e-6)
    try:
        trials = montecarlo._run_plan(plan, tiny_scenario, threads=2 * os.cpu_count(),
                                      progress=lambda done, total: counts.append(done))
    finally:
        sys.setswitchinterval(interval)
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert [t.seed for t in trials] == list(range(400))
    assert len({t.wall_time for t in trials}) > 1  # the pool ran trials too
    assert counts == sorted(set(counts)) and counts[-1] == 400
    assert multiprocessing.active_children() == []


def test_bad_thread_count_is_refused_before_the_plan_is_drawn(tiny_scenario,
                                                               monkeypatch):
    def drawn(*args):
        raise AssertionError("the plan was drawn")
    monkeypatch.setattr(montecarlo, "sample_parameters", drawn)
    monkeypatch.setattr(montecarlo, "_sweep_plan", drawn)
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        run_campaign(ParameterSpec(), tiny_scenario, n_trials=10**7, master_seed=1,
                     threads=0)
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        sweep([("snr", [30.0, 100.0])], tiny_scenario, threads=0)


@pytest.mark.parametrize("outer_radius, message", [(200.0, "clipped by grid"),
                                                    (20.0, "no measurable rings")])
def test_unmeasurable_star_is_refused_before_the_plan_is_drawn(tiny_scenario, monkeypatch,
                                                               outer_radius, message):
    # a star that cannot be rasterized, or that leaves no ring to fit, would
    # fail every trial: it is refused before the first draw
    def drawn(*args):
        raise AssertionError("the plan was drawn")
    monkeypatch.setattr(montecarlo, "sample_parameters", drawn)
    monkeypatch.setattr(montecarlo, "_sweep_plan", drawn)
    scenario = replace(tiny_scenario,
                       star=replace(tiny_scenario.star, outer_radius=outer_radius))
    with pytest.raises(ValueError, match=message):
        run_campaign(ParameterSpec(), scenario, n_trials=10**7, master_seed=1)
    with pytest.raises(ValueError, match=message):
        sweep([("snr", [30.0, 100.0])], scenario, seeds_per_value=10**7)


def test_campaign_samples_on_base(tiny_scenario, monkeypatch):
    seen = _record_trials(monkeypatch)
    base = replace(SystemParams(), subarray_shift_al_lines=4)
    camp = run_campaign(ParameterSpec(), tiny_scenario, n_trials=3, master_seed=5,
                        base=base)
    assert len(seen) == 3
    assert all(params.subarray_shift_al_lines == 4 for params in seen)
    # the draws themselves do not depend on the base
    default = run_campaign(ParameterSpec(), tiny_scenario, n_trials=3, master_seed=5)
    assert [replace(t.params, subarray_shift_al_lines=10) for t in camp.trials] == \
        [t.params for t in default.trials]


def test_campaign_rejects_base_with_drawn_field(tiny_scenario, monkeypatch):
    seen = _record_trials(monkeypatch)
    with pytest.raises(ValueError, match="snr_at_300 is drawn"):
        run_campaign(ParameterSpec(), tiny_scenario, n_trials=2, master_seed=1,
                     base=replace(SystemParams(), snr_at_300=80.0))
    assert not seen


def test_two_axis_sweep_shape(tiny_scenario):
    grid = sweep([("optics_mtf", [0.1, 0.5]), ("snr", [30.0, 100.0])],
                 tiny_scenario, seeds_per_value=1, master_seed=4).mean_resolution_m
    assert grid.shape == (2, 2)
    assert np.all(np.isfinite(grid))


def test_psf_sampling_units():
    # width draw of w support pixels maps to sigma = w / (2 sqrt(2 ln 2))
    spec = ParameterSpec(
        psf_width=ParameterDistribution("psf_width", "choice", 3, choices=(3,)),
        psf_error_sigma=ParameterDistribution("psf_error_sigma", "uniform",
                                              0.0, 0.0, 0.0),
    )
    p = sample_parameters(spec, 0)
    assert p.assumed_psf_sigma == pytest.approx(3.0 * SIGMA_PER_FWHM)
