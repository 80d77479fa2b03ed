import csv
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib import format as npy_format

from srlab import cli, montecarlo
from srlab.cli import main
from srlab.grid import read_pgm
from srlab.metrology import ResolutionReport, measure_resolution, nem
from srlab.montecarlo import ParameterSpec, run_campaign, run_trial, sweep
from srlab.scenario import MonteCarloConfig, Scenario, ScenarioConfig, load_config
from srlab.simulator import SystemParams, simulate_observations, subarray_observations
from srlab.solver import SolverConfig, super_resolve
from srlab.target import StarSpec, generate_spoke_target

from test_api import PACKAGE_ROOT


CONFIG = {
    "star": {"cycles": 64, "outer_radius": 40.0, "inner_radius": 4.0,
             "dark_level": 0.0, "bright_level": 600.0, "center": [64.0, 64.0],
             "supersample": 2},
    "grid": {"height": 128, "width": 128},
    "system": {"optics_mtf_at_hr_nyq": 0.30, "n_phi": 1, "jitter_sigma": 0.1,
               "snr_at_300": 60.0, "subarray_shift_ax": 0.5},
    "solver": {"lambda": 0.25, "alpha": 0.7, "P": 2, "beta0": 1.0,
               "max_iters": 3, "rel_tol": 1e-9},
    "montecarlo": {"n_trials": 4, "master_seed": 11, "bin_width_m": 0.05},
    "n_rings": 20,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    cfg = dict(CONFIG)
    cfg["output_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(cfg))
    return path


def test_config_strict_unknown_keys(tmp_path):
    bad = dict(CONFIG)
    bad["solvr"] = {}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="unknown top-level"):
        load_config(path)

    bad2 = dict(CONFIG)
    bad2["system"] = {"snr": 60.0}
    path.write_text(json.dumps(bad2))
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


def test_config_lambda_alias(config_path):
    cfg = load_config(config_path)
    assert cfg.scenario.solver.lam == 0.25
    assert cfg.scenario.solver.p_radius == 2
    assert cfg.scenario.grid_size == (128, 128)


def test_config_solver_key_has_one_spelling(tmp_path, capsys):
    # a field name beside its JSON spelling once took whichever came later
    path, out = tmp_path / "both.json", tmp_path / "out"
    path.write_text(json.dumps({"solver": {"lambda": 0.25, "lam": 0.9,
                                           "P": 3, "p_radius": 1}}))
    with pytest.raises(ValueError, match="unknown key 'lam' in config section 'solver'"):
        load_config(path)
    for section, key in [({"lambda": 0.25, "lam": 0.9}, "lam"),
                         ({"P": 3, "p_radius": 1}, "p_radius")]:
        path.write_text(json.dumps({"solver": section}))
        assert main(["target", "--config", str(path), "--out-dir", str(out)]) == 2
        assert (capsys.readouterr().err
                == f"error: unknown key '{key}' in config section 'solver'\n")
        assert not out.exists()


# every key that once ended an int past the float range in an OverflowError
@pytest.mark.parametrize("section, key, message", [
    ("system", "n_phi", "clock phase count must be a whole number"),
    ("system", "jitter_sigma", "key 'jitter_sigma' must be float"),
    ("system", "snr_at_300", "key 'snr_at_300' must be float"),
    ("system", "assumed_psf_sigma", "key 'assumed_psf_sigma' must be float"),
    ("star", "outer_radius", "key 'outer_radius' must be float"),
    ("star", "bright_level", "key 'bright_level' must be float"),
    ("star", "cycles", "cycles must be <="),
    ("montecarlo", "bin_width_m", "key 'bin_width_m' must be float")])
@pytest.mark.parametrize("command", [
    ["simulate", "--seed", "7"], ["montecarlo", "--trials", "1", "--seed", "7"]])
def test_config_int_past_float_range_exits_2(tmp_path, capsys, section, key, message,
                                             command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**CONFIG, section: {**CONFIG[section], key: 10**400}}))
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and message in line
    assert not out.exists()


def test_config_omitted_sections_take_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert load_config(path) == ScenarioConfig()
    path.write_text(json.dumps({"solver": {"lambda": 0.25}, "grid": {"width": 128}}))
    cfg = load_config(path)
    assert cfg.scenario.solver == replace(Scenario().solver, lam=0.25)
    assert cfg.scenario.grid_size == (256, 128)


@pytest.mark.parametrize("section, key, value", [
    ("solver", "max_iters", "3"),
    ("montecarlo", "n_trials", "5"),
    ("system", "snr_at_300", True),
    ("star", "center", [64.0]),
    ("grid", "height", 128.5),
    ("solver", "lambda", float("nan")),
])
def test_config_wrong_type_exits_2(tmp_path, capsys, section, key, value):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ValueError, match=f"{section}.*{key}"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_config_rejects_system_geometry(tmp_path, capsys):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps({"system": {"geometry": {"hr_gsd_m": 2.5,
                                                        "lr_igfov_m": 5.0}}}))
    with pytest.raises(ValueError, match="unknown key 'geometry'"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_refuses_an_sr_factor_the_instrument_cannot_run(tmp_path):
    # every trial's observations have the simulator's (1, 2) decimation
    path = tmp_path / "sr_factor.json"
    for value in (None, [1, 2]):
        path.write_text(json.dumps({"solver": {"sr_factor": value}}))
        assert load_config(path).scenario.solver.sr_factor == (value and tuple(value))
    path.write_text(json.dumps({"solver": {"sr_factor": [2, 2]}}))
    with pytest.raises(ValueError, match=r"solver key 'sr_factor' \(2, 2\)"):
        load_config(path)
    with pytest.raises(ValueError, match="sr_factor"):
        Scenario(solver=SolverConfig(sr_factor=[2, 1]))


@pytest.mark.parametrize("command", [
    ["montecarlo", "--trials", "1000000", "--seed", "7"],
    ["sweep", "--param", "snr", "--values", "30,100", "--seeds-per-value", "20",
     "--seed", "3"],
], ids=["montecarlo", "sweep"])
def test_sr_factor_campaign_exits_2_before_the_plan_is_drawn(tmp_path, capsys,
                                                             monkeypatch, command):
    # each trial's solve would refuse it: refused at config load instead
    def drawn(*args):
        raise AssertionError("the plan was drawn")
    monkeypatch.setattr(montecarlo, "sample_parameters", drawn)
    monkeypatch.setattr(montecarlo, "_sweep_plan", drawn)
    path = tmp_path / "sr_factor.json"
    path.write_text(json.dumps({"solver": {"sr_factor": [2, 2]}}))
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "'sr_factor'" in line
    assert not out.exists()


@pytest.mark.parametrize("value", [None, 5, ["out"]])
def test_config_output_dir_must_be_string(tmp_path, monkeypatch, capsys, value):
    path = tmp_path / "outdir.json"
    path.write_text(json.dumps({"output_dir": value}))
    with pytest.raises(ValueError, match="output_dir"):
        load_config(path)
    monkeypatch.chdir(tmp_path)
    assert main(["target", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "output_dir" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir.json"]


@pytest.mark.parametrize("config", [{"system": {"n_phi": 0}},
                                    {"grid": {"height": 129}}],
                         ids=["n_phi-0", "odd-grid"])
@pytest.mark.parametrize("command", [
    ["target"],
    ["sweep", "--param", "snr", "--values", "30,100", "--seeds-per-value", "1",
     "--seed", "7"],
    ["montecarlo", "--trials", "1", "--seed", "7"],
], ids=["target", "sweep", "montecarlo"])
def test_config_out_of_range_exits_2(tmp_path, capsys, config, command):
    path = tmp_path / "range.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # rejected at config load: no stage ran, no output directory was made
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["target"], ["simulate", "--seed", "7"],
    ["superresolve", "--observations", "obs1.npy", "obs2.npy"]],
    ids=["target", "simulate", "superresolve"])
@pytest.mark.parametrize("config, key", [
    ({"system": {"subarray_shift_al_lines": 10**309}}, "subarray_shift_al_lines"),
    ({"system": {"subarray_shift_al_lines": 3 * 10**307}}, "subarray_shift_al_lines"),
    ({"star": {"bright_level": 1e308}}, "bright_level"),
    ({"star": {"dark_level": -1e308, "supersample": 2}}, "dark_level")],
    ids=["lines-past-float", "lines-shift-ramp-inf", "bright-level-sum",
         "dark-level-sum"])
def test_config_overflow_exits_2_naming_key(tmp_path, capsys, config, key, command):
    # a value whose float arithmetic would overflow in a stage is refused
    # at config load, by its key, before numpy can warn
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def scenario_configs(draw):
    """Any valid ScenarioConfig (geometry, which a config cannot set, aside)."""
    inner, dark = draw(_floats(0.0, 50.0)), draw(_floats(-100.0, 100.0))
    star = StarSpec(cycles=draw(st.integers(1, 400)),
                    inner_radius=inner, outer_radius=inner + draw(_floats(1.0, 100.0)),
                    dark_level=dark, bright_level=dark + draw(_floats(1.0, 1000.0)),
                    center=(draw(_floats(0.0, 300.0)), draw(_floats(0.0, 300.0))),
                    supersample=draw(st.integers(1, 8)))
    solver = SolverConfig(
        lam=draw(_floats(0.0, 10.0)), alpha=draw(_floats(0.01, 1.0)),
        p_radius=draw(st.integers(1, 4)), beta0=draw(_floats(0.01, 10.0)),
        max_iters=draw(st.integers(1, 500)), rel_tol=draw(_floats(0.0, 1e-3)),
        sr_factor=draw(st.none() | st.just((1, 2))))
    scenario = Scenario(
        star=star, solver=solver,
        grid_size=(2 * draw(st.integers(1, 256)), 2 * draw(st.integers(1, 256))),
        nem_signal=draw(_floats(0.1, 1e4)), n_rings=draw(st.integers(3, 200)))
    system = SystemParams(
        optics_mtf_at_hr_nyq=draw(_floats(0.01, 1.0)), n_phi=draw(st.integers(1, 8)),
        jitter_sigma=draw(_floats(0.0, 1.0)), snr_at_300=draw(_floats(0.1, 1000.0)),
        subarray_shift_ax=draw(_floats(0.0, 0.99)),
        subarray_shift_al_lines=draw(st.integers(0, 40)),
        assumed_psf_sigma=draw(_floats(0.1, 5.0)))
    mc = MonteCarloConfig(n_trials=draw(st.integers(1, 10_000)),
                          master_seed=draw(st.none() | st.integers(0, 2**32)),
                          bin_width_m=draw(_floats(1e-3, 1.0)))
    return ScenarioConfig(scenario=scenario, system=system, montecarlo=mc,
                          output_dir=draw(st.text("abcxyz_/.-", min_size=1)))


def _as_json(config: ScenarioConfig) -> dict:
    """config written out section by section, in the config file's keys."""
    sc, solver = config.scenario, config.scenario.solver
    star = {key: getattr(sc.star, key) for key in StarSpec.__dataclass_fields__}
    system = {key: getattr(config.system, key)
              for key in SystemParams.__dataclass_fields__ if key != "geometry"}
    return {
        "star": {**star, "center": list(sc.star.center)},
        "grid": {"height": sc.grid_size[0], "width": sc.grid_size[1]},
        "system": system,
        "solver": {"lambda": solver.lam, "alpha": solver.alpha, "P": solver.p_radius,
                   "beta0": solver.beta0, "max_iters": solver.max_iters,
                   "rel_tol": solver.rel_tol,
                   "sr_factor": solver.sr_factor and list(solver.sr_factor)},
        "montecarlo": {key: getattr(config.montecarlo, key)
                       for key in MonteCarloConfig.__dataclass_fields__},
        "nem_signal": sc.nem_signal,
        "n_rings": sc.n_rings,
        "output_dir": config.output_dir,
    }


@given(config=scenario_configs())
def test_config_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("round_trip") / "scenario.json"
    path.write_text(json.dumps(_as_json(config)))
    assert load_config(path) == config


def test_config_malformed_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_config(path)


def test_target_subcommand(config_path, tmp_path):
    rc = main(["target", "--config", str(config_path)])
    assert rc == 0
    star = read_pgm(tmp_path / "out" / "star.pgm")
    assert star.shape == (128, 128)
    assert star[0, 0] == 300.0


def test_mtf_curves_subcommand(config_path, tmp_path):
    rc = main(["mtf-curves", "--config", str(config_path)])
    assert rc == 0
    lines = (tmp_path / "out" / "mtf_curves.csv").read_text().splitlines()
    assert lines[0] == "f_cyc_per_hr_sample,optics,footprint,sampling,smear,jitter,system"
    assert len(lines) == 513
    assert lines[-1].endswith("")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert all(float(v) == 1.0 for v in first[1:])


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_mtf_curves_rejects_bad_point_count(config_path, tmp_path, capsys, points):
    out = tmp_path / "mtf"
    assert main(["mtf-curves", "--config", str(config_path), "--points", points,
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"got {points}" in err
    assert not (out / "mtf_curves.csv").exists()


def test_mtf_curves_refuses_points_past_the_budget(config_path, tmp_path, capsys):
    # refused before numpy is asked for 7 columns of 2**40 floats
    out = tmp_path / "mtf"
    start = time.perf_counter()
    assert main(["mtf-curves", "--config", str(config_path), "--points", str(2**40),
                 "--out-dir", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"error: MTF curve of {2**40} points:")
    assert not out.exists()


def test_pipeline_roundtrip(config_path, tmp_path):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--seed", "42",
                 "--out-dir", str(sim_dir)]) == 0
    # the images and their viewable exports, and nothing else
    assert sorted(p.name for p in sim_dir.iterdir()) == [
        "obs1.npy", "obs1.pgm", "obs2.npy", "obs2.pgm", "truth.pgm"]

    sr_dir = tmp_path / "sr"
    assert main(["superresolve", "--config", str(config_path), "--observations",
                 str(sim_dir / "obs1.npy"), str(sim_dir / "obs2.npy"),
                 "--out-dir", str(sr_dir)]) == 0
    assert (sr_dir / "sr.npy").exists() and (sr_dir / "sr.pgm").exists()
    trace = (sr_dir / "cost_trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,cost"
    costs = [float(line.split(",")[1]) for line in trace[1:]]
    assert all(b <= a for a, b in zip(costs, costs[1:]))

    meas_dir = tmp_path / "meas"
    assert main(["measure", "--config", str(config_path),
                 "--image", str(sr_dir / "sr.npy"), "--out-dir", str(meas_dir)]) == 0
    report = json.loads((meas_dir / "report.json").read_text())
    assert report["nem"] == pytest.approx(0.0667, abs=1e-4)
    assert report["resolution_m"] is None or report["resolution_m"] > 0
    curve = (meas_dir / "curve.csv").read_text().splitlines()
    assert curve[0] == "f_cyc_per_hr_px,modulation,nem"


def test_measure_sector_matches_in_process(config_path, tmp_path, capsys):
    sim, sr, meas = tmp_path / "sim", tmp_path / "sr", tmp_path / "meas"
    assert main(["simulate", "--config", str(config_path), "--seed", "42",
                 "--out-dir", str(sim)]) == 0
    assert main(["superresolve", "--config", str(config_path), "--observations",
                 str(sim / "obs1.npy"), str(sim / "obs2.npy"), "--out-dir", str(sr)]) == 0
    measure = ["measure", "--config", str(config_path), "--image", str(sr / "sr.pgm")]
    assert main([*measure, "--sector", "3", "--out-dir", str(meas)]) == 0
    config = load_config(config_path)
    scenario, star = config.scenario, config.scenario.star
    want = measure_resolution(read_pgm(sr / "sr.pgm"), star.center, star.cycles,
                              scenario.nem_signal, config.system.noise_sigma,
                              star.outer_radius, sector=3, n_rings=scenario.n_rings)
    rows = (meas / "curve.csv").read_text().splitlines()[1:]
    assert [(float(f), float(m)) for f, m, _ in (row.split(",") for row in rows)] == \
        want.curve
    report = json.loads((meas / "report.json").read_text())
    assert report["sector"] == 3
    assert report["resolution_m"] == want.resolution_m
    for sector in ("8", "-1"):
        out = tmp_path / f"sector{sector}"
        assert main([*measure, "--sector", sector, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sector_index" in err
        assert not (out / "report.json").exists()


def _minimal_chain(tmp_path):
    """simulate -> superresolve on the all-defaults config with seed 42;
    returns the config path and the two stage directories."""
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"montecarlo": {"master_seed": 42}}))
    sim, sr = tmp_path / "sim", tmp_path / "sr"
    assert main(["simulate", "--config", str(path), "--out-dir", str(sim)]) == 0
    assert main(["superresolve", "--config", str(path), "--observations",
                 str(sim / "obs1.npy"), str(sim / "obs2.npy"), "--out-dir", str(sr)]) == 0
    return path, sim, sr


def _measured(path, image, out, *flags):
    """report.json and the curve of srlab measure on image."""
    assert main(["measure", "--config", str(path), "--image", str(image),
                 "--out-dir", str(out), *flags]) == 0
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    curve = [(float(f), float(m)) for f, m, _ in (row.split(",") for row in rows)]
    return json.loads((out / "report.json").read_text()), curve


def test_minimal_config_pipeline_matches_run_trial(tmp_path):
    # every omitted section takes the defaults run_trial uses, measure uses
    # the config's ring ladder, and the stages hand each other the exact
    # float64 arrays, so the chain is the trial bit for bit
    path, _, sr = _minimal_chain(tmp_path)
    trial = run_trial(SystemParams(), Scenario(), 42)
    assert trial.resolution_m is not None
    scenario, params = Scenario(), SystemParams()
    target = generate_spoke_target(scenario.star, scenario.grid_size)
    image = super_resolve(list(simulate_observations(target, params, 42)),
                          cfg=scenario.solver).image
    star = scenario.star
    reports = {}
    for sector in (None, 3):
        flags = [] if sector is None else ["--sector", str(sector)]
        reports[sector], curve = _measured(path, sr / "sr.npy",
                                           tmp_path / f"meas{sector}", *flags)
        want = measure_resolution(image, star.center, star.cycles, scenario.nem_signal,
                                  params.noise_sigma, star.outer_radius, sector=sector,
                                  n_rings=scenario.n_rings)
        assert curve == want.curve
        assert reports[sector] == {key: getattr(want, key) for key in reports[sector]}
    assert reports[None]["resolution_m"] == trial.resolution_m
    assert reports[3]["sector"] == 3


def test_pgm_exports_still_feed_the_chain(tmp_path):
    # the 16-bit PGM exports still run superresolve -> measure; quantizing
    # the observations and sr.pgm moves the result by no more than 1e-3
    path, sim, _ = _minimal_chain(tmp_path)
    sr = tmp_path / "sr-pgm"
    assert main(["superresolve", "--config", str(path), "--observations",
                 str(sim / "obs1.pgm"), str(sim / "obs2.pgm"), "--out-dir", str(sr)]) == 0
    report, _ = _measured(path, sr / "sr.pgm", tmp_path / "meas")
    trial = run_trial(SystemParams(), Scenario(), 42)
    assert report["resolution_m"] == pytest.approx(trial.resolution_m, rel=1e-3)
    assert report["resolution_m"] != trial.resolution_m  # the PGM files were read


def test_every_stage_reads_its_values_from_its_own_config(config_path, tmp_path):
    # simulate runs on config A; superresolve and measure run on config B,
    # whose SNR, solver PSF and ring count differ, and equal the in-process
    # calls on B's values: no value travels from simulate to the later stages
    sim, sr, meas = tmp_path / "sim", tmp_path / "sr", tmp_path / "meas"
    assert main(["simulate", "--config", str(config_path), "--seed", "42",
                 "--out-dir", str(sim)]) == 0
    path_b = tmp_path / "b.json"
    path_b.write_text(json.dumps({
        **CONFIG, "n_rings": 24,
        "system": {**CONFIG["system"], "snr_at_300": 30.0, "assumed_psf_sigma": 1.1}}))
    obs = [str(sim / "obs1.npy"), str(sim / "obs2.npy")]
    assert main(["superresolve", "--config", str(path_b), "--observations", *obs,
                 "--out-dir", str(sr)]) == 0
    assert main(["measure", "--config", str(path_b), "--image", str(sr / "sr.npy"),
                 "--out-dir", str(meas)]) == 0

    b = load_config(path_b)
    scenario, star = b.scenario, b.scenario.star
    image = super_resolve(subarray_observations([np.load(p) for p in obs], b.system),
                          b.scenario.solver).image
    assert (np.load(sr / "sr.npy") == image).all()
    want = measure_resolution(image, star.center, star.cycles, scenario.nem_signal,
                              b.system.noise_sigma, star.outer_radius,
                              n_rings=scenario.n_rings)
    rows = (meas / "curve.csv").read_text().splitlines()[1:]
    assert [(float(f), float(m)) for f, m, _ in (row.split(",") for row in rows)] == \
        want.curve
    report = json.loads((meas / "report.json").read_text())
    assert report == {key: getattr(want, key) for key in report}
    # every field of the report but its curve, which curve.csv holds
    assert set(report) == {f.name for f in fields(ResolutionReport)} - {"curve"}
    assert report["nem"] == nem(scenario.nem_signal, 10.0)  # 300 / SNR 30


def _first_refused_n_rings() -> int:
    """The smallest n_rings that Scenario() refuses, found by bisection."""
    low, high = 3, 2**40
    while low < high:
        mid = (low + high) // 2
        try:
            Scenario(n_rings=mid)
            low = mid + 1
        except ValueError:
            high = mid
    return low


N_RINGS_REFUSED = _first_refused_n_rings()


@pytest.mark.parametrize("config, command, key", [
    ({"star": {"supersample": 100000}}, ["target"], "supersample 100000:"),
    ({"solver": {"P": 10**6}}, ["superresolve", "--observations", "o1.npy", "o2.npy"],
     "solver P 1000000:"),
    ({"solver": {"P": 10**6}}, ["montecarlo", "--trials", "1", "--seed", "3"],
     "solver P 1000000:"),
    ({"n_rings": N_RINGS_REFUSED}, ["measure", "--image", "sr.npy"],
     f"n_rings {N_RINGS_REFUSED}:"),
    ({"n_rings": N_RINGS_REFUSED}, ["montecarlo", "--trials", "1", "--seed", "3"],
     f"n_rings {N_RINGS_REFUSED}:"),
    ({"grid": {"height": 100000, "width": 100000}}, ["target"], "grid 100000x100000:"),
    ({"grid": {"height": 8194, "width": 8192}},
     ["montecarlo", "--trials", "1", "--seed", "3"], "grid 8194x8192:")],
    ids=["supersample-target", "P-superresolve", "P-montecarlo", "n_rings-measure",
         "n_rings-montecarlo", "grid-target", "grid-montecarlo"])
def test_oversize_work_exits_2_naming_key(tmp_path, capsys, config, command, key):
    # a sub-point count, a BTV window, a ring ladder or a grid too large
    # is refused at config load, by its key, instead of running until
    # killed
    path = tmp_path / "oversize.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ")
    assert not out.exists()


def test_grid_past_the_btv_bound_is_named_with_solver_p(tmp_path, capsys):
    # a grid below grid.MAX_PIXELS whose BTV pass at the default P 2 would
    # compare more than grid.MAX_PIXELS values: refused at config load, on
    # a command that runs no solver, naming the grid as well as the solver
    # key
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"grid": {"height": 4096, "width": 4096}}))
    out = tmp_path / "out"
    assert main(["target", "--config", str(path), "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: solver P 2: ") and "grid 4096x4096" in line
    assert not out.exists()


def test_n_rings_bound_follows_the_configured_star(tmp_path):
    # 2^26 ring samples: the default star's ladder may hold tens of
    # thousands of rings, and the test star's smaller one more
    assert 1000 < N_RINGS_REFUSED < 10**6
    Scenario(n_rings=N_RINGS_REFUSED - 1)
    path = tmp_path / "rings.json"
    path.write_text(json.dumps({**CONFIG, "n_rings": N_RINGS_REFUSED}))
    assert load_config(path).scenario.n_rings == N_RINGS_REFUSED


@pytest.mark.parametrize("n_rings", [80, 400])
def test_default_and_hundreds_of_rings_still_measure(config_path, tmp_path, n_rings):
    assert main(["target", "--config", str(config_path)]) == 0
    path = tmp_path / "rings.json"
    path.write_text(json.dumps({**CONFIG, "n_rings": n_rings}))
    out = tmp_path / "meas"
    assert main(["measure", "--config", str(path),
                 "--image", str(tmp_path / "out" / "star.pgm"), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    curve = (out / "curve.csv").read_text().splitlines()[1:]
    assert len(curve) == n_rings - report["rings_dropped"]


# the stage chain in a process where every scipy import fails
_SCIPY_BLOCKED_CHAIN = """
import sys
sys.modules["scipy"] = None
from srlab.cli import main
config, root = sys.argv[1:]
sim, sr = f"{root}/sim", f"{root}/sr"
for argv in (["simulate", "--seed", "42", "--out-dir", sim],
             ["superresolve", "--observations", f"{sim}/obs1.npy", f"{sim}/obs2.npy",
              "--out-dir", sr],
             ["measure", "--image", f"{sr}/sr.npy", "--out-dir", f"{root}/meas"]):
    assert main([*argv, "--config", config]) == 0, argv
"""


def test_stage_chain_runs_without_scipy(config_path, tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable the
    # chain still runs, and equals run_trial on the same config
    subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED_CHAIN, str(config_path),
                    str(tmp_path)], check=True,
                   env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    config = load_config(config_path)
    trial = run_trial(config.system, config.scenario, 42)
    assert trial.resolution_m is not None
    report = json.loads((tmp_path / "meas" / "report.json").read_text())
    keys = ("resolution_m", "rings_dropped", "ladder_limited", "degenerate_crossing")
    assert {key: report[key] for key in keys} == {key: getattr(trial, key) for key in keys}


class _Unpickled:
    """Unpickling this creates the marker file its path names."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


@pytest.mark.parametrize("kind", ["oversize-header", "object"])
def test_bad_npy_image_exits_2(config_path, tmp_path, capsys, kind):
    image, marker = tmp_path / "bad.npy", tmp_path / "unpickled"
    if kind == "object":
        np.save(image, np.array([[_Unpickled(marker)] * 2] * 2, dtype=object),
                allow_pickle=True)
    else:
        # 131072² float64 is 128 GiB: refused from the header alone
        with open(image, "wb") as fh:
            npy_format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (131072, 131072)})
    out = tmp_path / "meas"
    assert main(["measure", "--config", str(config_path), "--image", str(image),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2-D float64" in err and "Traceback" not in err
    assert not marker.exists()
    assert not (out / "report.json").exists()


def test_simulate_requires_seed(config_path, tmp_path):
    cfg = json.loads(config_path.read_text())
    del cfg["montecarlo"]["master_seed"]
    path = tmp_path / "noseed.json"
    cfg["output_dir"] = str(tmp_path / "out2")
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 1


@pytest.mark.parametrize("command", [
    ["sweep", "--param", "snr", "--param", "jitter", "--values", "30,100", "--seed", "3"],
    ["montecarlo", "--trials", "1"]], ids=["sweep-unpaired-axes", "montecarlo-no-seed"])
def test_usage_error_leaves_no_output_directory(tmp_path, capsys, command):
    # a command makes its output directory when it first writes, so one
    # refused for its arguments leaves none (the config sets no seed)
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({**CONFIG, "montecarlo": {"n_trials": 4}}))
    out = tmp_path / "X"
    assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_csv_cell_spelling():
    # every CSV cell goes through _fmt: a float, numpy's included (whose
    # repr is 'np.float64(0.1)'), as repr(float(v)); an int, numpy's
    # included, or a flag by str; a missing value as ""
    assert cli._fmt(np.float64(0.1)) == repr(float(np.float64(0.1))) == "0.1"
    assert cli._fmt(0.1) == repr(0.1)
    assert cli._fmt(np.int64(5)) == str(int(np.int64(5))) == "5"
    assert cli._fmt(True) == "True"
    assert cli._fmt(np.bool_(False)) == "False"
    assert cli._fmt(None) == ""
    assert cli._fmt("non-finite cost") == "non-finite cost"


def test_seed_flag_overrides_config(config_path, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path),
                 "--seed", "5", "--out-dir", str(d1)]) == 0
    assert main(["simulate", "--config", str(config_path),
                 "--out-dir", str(d2)]) == 0  # falls back to config seed 11
    config = load_config(config_path)
    target = generate_spoke_target(config.scenario.star, config.scenario.grid_size)
    for out, seed in ((d1, 5), (d2, 11)):
        want = simulate_observations(target, config.system, seed)
        for k, obs in enumerate(want, 1):
            assert np.array_equal(np.load(out / f"obs{k}.npy"), obs.image)


def test_montecarlo_csv_determinism(config_path, tmp_path):
    d1, d2 = tmp_path / "mc1", tmp_path / "mc2"
    for d in (d1, d2):
        assert main(["montecarlo", "--config", str(config_path),
                     "--trials", "4", "--seed", "7",
                     "--out-dir", str(d)]) == 0
    assert (d1 / "trials.csv").read_bytes() == (d2 / "trials.csv").read_bytes()
    assert (d1 / "histogram.csv").read_bytes() == (d2 / "histogram.csv").read_bytes()
    lines = (d1 / "trials.csv").read_text().splitlines()
    assert lines[0].startswith("trial,seed,optics_mtf_at_hr_nyq")
    assert lines[0].endswith(",error,rings_dropped,degenerate_crossing,ladder_limited")
    assert all(line.endswith(",0,False,False") for line in lines[1:])


def test_montecarlo_progress(config_path, tmp_path, capsys):
    # progress goes to stderr only; the trials are the same without it
    runs = {}
    for flags in ([], ["--progress"]):
        out = tmp_path / ("mc" + "".join(flags))
        assert main(["montecarlo", "--config", str(config_path), "--trials", "3",
                     "--seed", "7", "--out-dir", str(out), *flags]) == 0
        runs[bool(flags)] = ((out / "trials.csv").read_bytes(), capsys.readouterr().err)
    assert runs[True][1].endswith("3/3 trials\n")
    assert "trials" not in runs[False][1]
    assert runs[True][0] == runs[False][0]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_montecarlo_rejects_bad_trial_count(config_path, tmp_path, capsys, trials):
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(config_path), "--trials", trials,
                 "--seed", "7", "--out-dir", str(out)]) == 2
    assert "at least one trial" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", [
    ["montecarlo", "--trials", "1"],
    ["sweep", "--param", "snr", "--values", "30,100", "--seeds-per-value", "1"],
])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_bad_thread_count_exits_2(config_path, tmp_path, capsys, command, threads):
    out = tmp_path / "run"
    assert main([*command, "--config", str(config_path), "--threads", threads,
                 "--seed", "7", "--out-dir", str(out)]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["montecarlo", "--trials", "1"],
    ["sweep", "--param", "snr", "--values", "30,100", "--seeds-per-value", "1"],
])
def test_thread_count_past_cap_exits_2(config_path, tmp_path, capsys, monkeypatch,
                                       command):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "run"
    assert main([*command, "--config", str(config_path), "--threads", str(10**6),
                 "--seed", "7", "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    cap = max(8, 4 * len(os.sched_getaffinity(0)))
    assert line.startswith(f"error: threads must be <= {cap} ") and "1000000" in line
    assert not out.exists()


def _running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_interrupted_campaign_exits_cleanly(tmp_path, signum):
    # a signal to the CLI mid-campaign: exit 128 + signum with one error
    # line and no traceback, no output written, and no pool worker left
    config, err, out = tmp_path / "config.json", tmp_path / "stderr", tmp_path / "run"
    config.write_text("{}")
    with open(err, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, "-m", "srlab.cli", "montecarlo", "--config", str(config),
             "--seed", "7", "--trials", "400", "--threads", "2", "--progress",
             "--out-dir", str(out)],
            stdout=subprocess.DEVNULL, stderr=fh, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    children = []
    try:
        deadline = time.monotonic() + 60
        while b"trials" not in err.read_bytes():
            assert proc.poll() is None and time.monotonic() < deadline, err.read_text()
            time.sleep(0.02)
        children = [int(pid) for path in Path(f"/proc/{proc.pid}/task").glob("*/children")
                    for pid in path.read_text().split()]
        assert children
        proc.send_signal(signum)
        assert proc.wait(timeout=30) == 128 + signum
        text = err.read_text()
        assert [line for line in text.split("\n") if line.startswith("error:")] == [
            f"error: interrupted by {signal.Signals(signum).name}"]
        assert "Traceback" not in text
        assert not out.exists()
        deadline = time.monotonic() + 5
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, children))
    finally:
        for pid in [proc.pid, *children]:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()


def test_sweep_of_a_star_without_rings_exits_2(tmp_path, capsys):
    # every trial would fail its measurement: refused before any runs
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**CONFIG, "star": {**CONFIG["star"], "outer_radius": 20.0}}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--param", "snr", "--values", "30,100",
                 "--seeds-per-value", "10", "--seed", "3", "--out-dir", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "no measurable rings" in line
    assert not out.exists()


def test_sweep_subcommand(config_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--param", "snr",
                 "--values", "30,100", "--seeds-per-value", "1",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    (axis,) = summary["axes"]
    assert axis["parameter"] == "snr"
    assert axis["values"] == [30.0, 100.0]
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3


def test_two_axis_sweep_equals_in_process_sweep(config_path, tmp_path):
    out, mc = tmp_path / "sweep", tmp_path / "mc"
    assert main(["sweep", "--config", str(config_path),
                 "--param", "optics_mtf", "--values", "0.1,0.5",
                 "--param", "snr", "--values", "30,100", "--seeds-per-value", "2",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    config = load_config(config_path)
    want = sweep([("optics_mtf", [0.1, 0.5]), ("snr", [30, 100])], config.scenario,
                 seeds_per_value=2, base=config.system, master_seed=3)
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary == {
        "axes": [{"parameter": "optics_mtf", "values": [0.1, 0.5]},
                 {"parameter": "snr", "values": [30.0, 100.0]}],
        "mean_resolution_m": want.mean_resolution_m.tolist(),
        "seeds_per_value": 2, "master_seed": 3}
    # one row per trial in row-major cell order, under trials.csv's header
    trials = [trial for cell in want.trials for trial in cell]
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [[cli._fmt(v) for v in cli._trial_row(i, t)]
                        for i, t in enumerate(trials)]
    assert main(["montecarlo", "--config", str(config_path), "--trials", "1",
                 "--seed", "3", "--out-dir", str(mc)]) == 0
    with open(mc / "trials.csv", newline="") as fh:
        assert rows[0] == next(csv.reader(fh)) == cli._TRIAL_COLUMNS


def test_campaign_record_layouts(config_path, tmp_path):
    # trials.csv's outcome columns are TrialResult's fields and summary.json
    # is CampaignResult's scalars: the layouts every earlier run wrote
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(config_path), "--trials", "2",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    header = (out / "trials.csv").read_text().splitlines()[0]
    assert header == ("trial,seed,optics_mtf_at_hr_nyq,n_phi,jitter_sigma,snr_at_300,"
                      "subarray_shift_ax,assumed_psf_sigma,resolution_m,solver_converged,"
                      "error,rings_dropped,degenerate_crossing,ladder_limited")
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == ["master_seed", "mean_m", "mode_m", "n_failed",
                               "n_resolved", "n_trials", "p10_m", "p90_m"]
    assert (summary["n_trials"], summary["master_seed"]) == (2, 3)


@pytest.mark.parametrize("axes", [
    ["--param", "snr", "--param", "jitter", "--values", "30,100"],
    ["--param", "snr", "--values", "30,100", "--values", "0.1,0.2"]],
    ids=["two-params-one-values", "one-param-two-values"])
def test_sweep_unpaired_axes_exit_1(config_path, tmp_path, capsys, monkeypatch, axes):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "run_trial", no_trial)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), *axes, "--seeds-per-value", "1",
                 "--seed", "3", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_sweep_out_of_range_value_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--param", "optics_mtf",
                 "--values", "0,0.3", "--seeds-per-value", "1",
                 "--seed", "3", "--out-dir", str(out)]) == 2
    assert "optics MTF" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_fractional_clock_phase_exits_2(config_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--param", "clock_phase",
                 "--values", "1.5,2", "--seeds-per-value", "1",
                 "--seed", "3", "--out-dir", str(out)]) == 2
    assert "got 1.5" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    assert main(["sweep", "--config", str(config_path), "--param", "clock_phase",
                 "--values", "1,2.0", "--seeds-per-value", "1",
                 "--seed", "3", "--out-dir", str(out)]) == 0
    (axis,) = json.loads((out / "sweep_summary.json").read_text())["axes"]
    assert axis["values"] == [1.0, 2.0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_scenario_refuses_bad_nem_signal(value):
    with pytest.raises(ValueError, match="NEM reference signal"):
        Scenario(nem_signal=value)


@pytest.mark.parametrize("check, value, message", [
    (lambda v: SolverConfig(lam=v), "nan", "lambda"),
    (lambda v: SolverConfig(beta0=v), "nan", "step size"),
    (lambda v: SolverConfig(rel_tol=v), "nan", "rel_tol"),
    (lambda v: SolverConfig(rel_tol=v), "-1.0", "rel_tol"),
    (lambda v: MonteCarloConfig(bin_width_m=v), "nan", "bin width"),
    (lambda v: run_campaign(ParameterSpec(), Scenario(), 1, 0, bin_width_m=v), "nan",
     "bin width"),
    (lambda v: nem(v, 5.0), "nan", "signal"),
    (lambda v: nem(v, 5.0), "inf", "signal"),
    (lambda v: nem(300.0, v), "nan", "noise sigma"),
    (lambda v: nem(300.0, v), "inf", "noise sigma")],
    ids=["lam", "beta0", "rel_tol", "rel_tol-negative", "config-bin-width",
         "campaign-bin-width", "nem-signal", "nem-signal-inf", "nem-noise",
         "nem-noise-inf"])
def test_checks_refuse_bad_values(check, value, message):
    with pytest.raises(ValueError, match=message):
        check(float(value))


def test_sweep_writes_null_for_unresolved_cell(config_path, tmp_path, monkeypatch):
    def unresolved_at_high_snr(params, scenario, seed):
        resolution = None if params.snr_at_300 == 100.0 else 1.0
        return montecarlo.TrialResult(params, resolution, False, seed, 0.0)
    monkeypatch.setattr(montecarlo, "run_trial", unresolved_at_high_snr)
    result = sweep([("snr", [30.0, 100.0])], load_config(config_path).scenario,
                   seeds_per_value=2)
    np.testing.assert_array_equal(result.mean_resolution_m, [1.0, np.nan])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--param", "snr",
                 "--values", "30,100", "--seeds-per-value", "2",
                 "--seed", "3", "--out-dir", str(out)]) == 0

    def no_constant(name):
        raise ValueError(f"sweep_summary.json holds {name}")
    summary = json.loads((out / "sweep_summary.json").read_text(),
                         parse_constant=no_constant)
    assert summary["mean_resolution_m"] == [1.0, None]
    # a second axis nests the means like the axes, null cells included
    assert main(["sweep", "--config", str(config_path), "--param", "snr",
                 "--values", "30,100", "--param", "jitter", "--values", "0.1,0.2",
                 "--seeds-per-value", "2", "--seed", "3", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text(),
                         parse_constant=no_constant)
    assert [axis["parameter"] for axis in summary["axes"]] == ["snr", "jitter"]
    assert summary["mean_resolution_m"] == [[1.0, 1.0], [None, None]]


@pytest.mark.parametrize("noise_sigma", ["nan", "inf"])
def test_measure_non_finite_noise_sigma_exits_2(config_path, tmp_path, capsys,
                                                noise_sigma):
    # measure's noise sigma is 300 / system.snr_at_300; json.load reads NaN
    # and Infinity literals, and the config's type check refuses them,
    # naming the key
    assert main(["target", "--config", str(config_path)]) == 0
    path = _system_config(tmp_path, {"snr_at_300": float(noise_sigma)})
    out = tmp_path / "meas"
    assert main(["measure", "--config", str(path),
                 "--image", str(tmp_path / "out" / "star.pgm"),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "snr_at_300" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("param, values, message", [
    ("psf_sigma", "1,inf", "assumed PSF sigma"), ("jitter", "nan,1", "jitter sigma"),
    # the second kernel would be a 466 TiB array: refused before any trial
    ("psf_sigma", "1,1e6", "larger than grid")])
def test_sweep_non_finite_value_exits_2(config_path, tmp_path, capsys, monkeypatch,
                                        param, values, message):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(montecarlo, "run_trial", no_trial)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--param", param,
                 "--values", values, "--seeds-per-value", "1",
                 "--seed", "3", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (out / "sweep.csv").exists()


def _system_config(tmp_path, system: dict):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({**CONFIG, "system": system}))
    return path


def test_montecarlo_uses_system_section(tmp_path, monkeypatch):
    seen = []

    def fake_trial(params, scenario, seed):
        seen.append(params)
        return montecarlo.TrialResult(params, 1.0, False, seed, 0.0)
    monkeypatch.setattr(montecarlo, "run_trial", fake_trial)
    path = _system_config(tmp_path, {"subarray_shift_al_lines": 4})
    assert main(["montecarlo", "--config", str(path), "--trials", "3",
                 "--seed", "7", "--out-dir", str(tmp_path / "mc")]) == 0
    assert len(seen) == 3
    assert all(params.subarray_shift_al_lines == 4 for params in seen)


def test_montecarlo_rejects_sampled_system_key(tmp_path, capsys):
    path = _system_config(tmp_path, {"snr_at_300": 80})
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(path), "--trials", "1",
                 "--seed", "7", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "snr_at_300" in err
    assert not (out / "trials.csv").exists()


def test_overflowing_beta0_exits_2_naming_key(tmp_path, capsys, observations):
    # a first step so large that float64 overflows ends the solve with one
    # error line naming beta0, and numpy warns of nothing before it
    path = tmp_path / "beta0.json"
    path.write_text(json.dumps({**CONFIG, "solver": {**CONFIG["solver"], "beta0": 1e308}}))
    out = tmp_path / "sr"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["superresolve", "--config", str(path), "--observations",
                     *observations, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver beta0 1e+308:") and err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.fixture()
def observations(config_path, tmp_path):
    """The two .npy observations simulate writes for the test config."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--seed", "42",
                 "--out-dir", str(sim)]) == 0
    return [str(sim / "obs1.npy"), str(sim / "obs2.npy")]


@pytest.mark.parametrize("command, edit, message", [
    ("superresolve", lambda cfg: [cfg], "must be a mapping"),
    ("measure", lambda cfg: [cfg], "must be a mapping"),
    ("measure", lambda cfg: {**cfg, "star": {**cfg["star"], "cycles": "a"}}, "'cycles'"),
    ("superresolve", lambda cfg: {**cfg, "system": {"subarray_shift_ax": "x"}},
     "'subarray_shift_ax'"),
    ("superresolve", lambda cfg: {**cfg, "system": {"assumed_psf_sigma": 1e6}},
     "larger than grid"),
    ("superresolve", lambda cfg: {**cfg, "grid": {"height": 256, "width": 256}},
     "not the config's grid"),
], ids=["superresolve-list-root", "measure-list-root", "cycles", "shift", "oversize-psf",
        "grid"])
def test_bad_stage_config_exits_2(tmp_path, capsys, observations, command, edit, message):
    # superresolve and measure take every value from the config: a bad one
    # is refused by key, and observations that sample another grid are refused
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edit(CONFIG)))
    out = tmp_path / "stage"
    stage = (["--observations", *observations] if command == "superresolve"
             else ["--image", observations[0]])
    assert main([command, "--config", str(path), *stage, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not out.exists()


def test_missing_input_exits_2(config_path):
    assert main(["measure", "--config", str(config_path),
                 "--image", "/nonexistent/sr.pgm"]) == 2
    assert main(["superresolve", "--config", str(config_path),
                 "--observations", "/nonexistent/obs1.npy", "/nonexistent/obs2.npy"]) == 2


def test_too_small_image_exits_2(config_path, tmp_path, capsys):
    image = tmp_path / "row.pgm"
    image.write_bytes(b"P5\n5 1\n65535\n" + bytes(10))
    out = tmp_path / "meas"
    assert main(["measure", "--config", str(config_path), "--image", str(image),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too small" in err
    assert not (out / "report.json").exists()


def test_bad_pgm_size_exits_2(config_path, tmp_path, capsys):
    image = tmp_path / "negative.pgm"
    image.write_bytes(b"P5\n-1 8\n65535\n" + bytes(16))
    out = tmp_path / "meas"
    assert main(["measure", "--config", str(config_path), "--image", str(image),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out of range" in err
    assert not (out / "report.json").exists()


def test_memory_error_exits_2(config_path, tmp_path, capsys, monkeypatch):
    # an allocation that fails (a 100000² grid asks for 74.5 GiB) is a
    # runtime failure with an error: line, not a traceback; a bare
    # MemoryError() carries no message, so the line names the command
    for exc, line in [(MemoryError("Unable to allocate 74.5 GiB"),
                       "error: Unable to allocate 74.5 GiB\n"),
                      (MemoryError(), "error: target ran out of memory\n")]:
        def no_memory(*args):
            raise exc
        monkeypatch.setattr(cli, "generate_spoke_target", no_memory)
        assert main(["target", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == line


def test_unknown_subcommand_exits_1():
    assert main(["frobnicate"]) == 1


def test_missing_config_exits_2(tmp_path):
    assert main(["target", "--config", str(tmp_path / "nope.json")]) == 2
