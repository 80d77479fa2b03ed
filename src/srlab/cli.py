"""Command-line interface: one executable, one subcommand per stage.

Subcommands: target, mtf-curves, simulate, superresolve, measure,
montecarlo, sweep.  All share one JSON config schema, every stage's
only input besides its images; they write machine-readable outputs to
files only, and log to stderr.  Exit codes: 0 success, 1 usage error,
2 runtime failure, 130 or 143 interrupted by SIGINT (Ctrl-C) or SIGTERM,
which leaves no files: every command writes once its work is done.

Determinism is a contract: campaign seeds come from --seed or the
config; there is no wall-clock fallback.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import signal
import sys
import threading
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .grid import read_image, write_pgm
from .metrology import SECTOR_COUNT, _ladder, measure_resolution
from .montecarlo import (PARAMETER_FIELDS, SEEDS_PER_VALUE, ParameterSpec, TrialResult,
                         run_campaign, sweep)
from .mtf import mtf_curve_table
from .scenario import ScenarioConfig, load_config
from .simulator import simulate_observations, subarray_observations
from .solver import super_resolve
from .target import generate_spoke_target

logger = logging.getLogger("srlab")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _file(out: Path, name: str) -> Path:
    """out / name, making out first: a command makes its output directory
    only once it writes, so one refused before that leaves none."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _fmt(value) -> str:
    """A CSV cell: every float as repr(float(v)) (numpy's repr spells its
    type), None as "", anything else (ints, bools, text) by str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_seed(args, config: ScenarioConfig) -> int:
    if args.seed is not None:
        return args.seed
    if config.montecarlo.master_seed is not None:
        return config.montecarlo.master_seed
    raise _UsageError("no seed given: pass --seed or set montecarlo.master_seed "
                      "in the config (wall-clock seeding is not supported)")


def cmd_target(args, config: ScenarioConfig, out: Path) -> int:
    star = config.scenario.star
    grid = generate_spoke_target(star, config.scenario.grid_size)
    write_pgm(_file(out, "star.pgm"), grid)
    logger.info("wrote %s", out / "star.pgm")
    return 0


def cmd_mtf_curves(args, config: ScenarioConfig, out: Path) -> int:
    header, rows = mtf_curve_table(config.system, n_points=args.points)
    _write_csv(_file(out, "mtf_curves.csv"), header, rows)
    logger.info("wrote %s", out / "mtf_curves.csv")
    return 0


def _check_measurable(scenario) -> None:
    """Refuse a star whose ring ladder measure would refuse (metrology._ladder,
    as a campaign does), before a stage of the chain reads or writes an image."""
    star = scenario.star
    _ladder(star.center, star.cycles, star.outer_radius, scenario.n_rings)


def cmd_simulate(args, config: ScenarioConfig, out: Path) -> int:
    _check_measurable(config.scenario)
    seed = _resolve_seed(args, config)
    scenario = config.scenario
    target = generate_spoke_target(scenario.star, scenario.grid_size)
    observations = simulate_observations(target, config.system, seed)
    write_pgm(_file(out, "truth.pgm"), target)
    for k, obs in enumerate(observations, 1):  # .npy for the next stage, .pgm to view
        write_pgm(_file(out, f"obs{k}.pgm"), obs.image)
        np.save(_file(out, f"obs{k}.npy"), obs.image)
    logger.info("wrote obs1/obs2 .npy and .pgm and truth.pgm (seed %d) to %s", seed, out)
    return 0


def cmd_superresolve(args, config: ScenarioConfig, out: Path) -> int:
    _check_measurable(config.scenario)
    observations = subarray_observations([read_image(p) for p in args.observations],
                                         config.system)
    grid = config.scenario.grid_size
    for path, obs in zip(args.observations, observations):
        if obs.hr_shape != grid:
            raise ValueError(f"{path}: observation of shape {obs.image.shape} samples "
                             f"an HR grid {obs.hr_shape}, not the config's grid {grid}")
    result = super_resolve(observations, cfg=config.scenario.solver)
    write_pgm(_file(out, "sr.pgm"), result.image)
    np.save(_file(out, "sr.npy"), result.image)
    _write_csv(_file(out, "cost_trace.csv"), ["iteration", "cost"],
               enumerate(result.cost_trace))
    logger.info("solver ran %d iterations (converged=%s)",
                result.iterations_run, result.converged)
    return 0


def cmd_measure(args, config: ScenarioConfig, out: Path) -> int:
    scenario, star = config.scenario, config.scenario.star
    report = measure_resolution(
        read_image(args.image), star.center, star.cycles, scenario.nem_signal,
        config.system.noise_sigma, star.outer_radius, sector=args.sector,
        n_rings=scenario.n_rings)
    _write_csv(_file(out, "curve.csv"), ["f_cyc_per_hr_px", "modulation", "nem"],
               [(f, m, report.nem) for f, m in report.curve])
    _write_json(_file(out, "report.json"),
                {key: value for key, value in asdict(report).items() if key != "curve"})
    logger.info("resolution: %s m", report.resolution_m)
    return 0


# a trial's outcome columns: TrialResult's fields in declaration order
_OUTCOME_FIELDS = [f.name for f in fields(TrialResult)
                   if f.name not in ("params", "seed", "wall_time")]
_TRIAL_COLUMNS = ["trial", "seed", *PARAMETER_FIELDS.values(), *_OUTCOME_FIELDS]


def _trial_row(index: int, trial) -> list:
    params = (getattr(trial.params, name) for name in PARAMETER_FIELDS.values())
    return [index, trial.seed, *params, *(getattr(trial, name) for name in _OUTCOME_FIELDS)]


def _write_trials(path: Path, trials) -> None:
    """The trial table of a campaign or a sweep: one _trial_row per trial,
    indexed in plan order."""
    _write_csv(path, _TRIAL_COLUMNS, [_trial_row(i, t) for i, t in enumerate(trials)])


def cmd_montecarlo(args, config: ScenarioConfig, out: Path) -> int:
    seed = _resolve_seed(args, config)
    n_trials = config.montecarlo.n_trials if args.trials is None else args.trials
    progress = None
    if args.progress:
        def progress(done, total):
            print(f"\r{done}/{total} trials", end="", file=sys.stderr, flush=True)
    try:
        campaign = run_campaign(ParameterSpec(), config.scenario, n_trials, seed,
                                bin_width_m=config.montecarlo.bin_width_m,
                                threads=args.threads, progress=progress,
                                base=config.system)
    finally:
        if args.progress:  # end the progress line, also before an error line
            print(file=sys.stderr)
    _write_trials(_file(out, "trials.csv"), campaign.trials)
    _write_csv(_file(out, "histogram.csv"), ["bin_left_m", "bin_right_m", "count"],
               [(le, le + campaign.bin_width_m, c)
                for le, c in zip(campaign.bin_edges[:-1], campaign.counts)])
    summary = {key: value for key, value in vars(campaign).items()
               if key not in ("trials", "bin_width_m", "bin_edges", "counts")}
    _write_json(_file(out, "summary.json"), {**summary, "n_trials": len(campaign.trials)})
    logger.info("campaign: mode %.3f m over %d resolved trials",
                campaign.mode_m, campaign.n_resolved)
    return 0


def cmd_sweep(args, config: ScenarioConfig, out: Path) -> int:
    if len(args.param) != len(args.values):
        raise _UsageError(f"{len(args.param)} --param but {len(args.values)} --values: "
                          "give each --param its --values")
    seed = _resolve_seed(args, config)
    axes = [(name, [float(v) for v in values.split(",")])
            for name, values in zip(args.param, args.values)]
    result = sweep(axes, config.scenario, seeds_per_value=args.seeds_per_value,
                   base=config.system, master_seed=seed, threads=args.threads)
    _write_trials(_file(out, "sweep.csv"), [trial for cell in result.trials for trial in cell])
    # JSON has no NaN: a cell that resolved nothing is written as null
    means = result.mean_resolution_m
    summary = {
        "axes": [{"parameter": name, "values": values} for name, values in result.axes],
        "mean_resolution_m": np.where(np.isnan(means), None, means).tolist(),
        "seeds_per_value": args.seeds_per_value,
        "master_seed": seed,
    }
    _write_json(_file(out, "sweep_summary.json"), summary)
    logger.info("sweep %s: %s", " x ".join(args.param), summary["mean_resolution_m"])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="srlab", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False, threaded=False):
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: config output_dir)")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed (overrides config)")
        if threaded:
            p.add_argument("--threads", type=int, default=1,
                           help="processes that run trials, this one among them "
                                "(results are identical for any count)")

    p = sub.add_parser("target", help="render the star target to star.pgm")
    common(p)
    p.set_defaults(func=cmd_target)

    p = sub.add_parser("mtf-curves", help="tabulate component MTFs to CSV")
    common(p)
    p.add_argument("--points", type=int, default=512)
    p.set_defaults(func=cmd_mtf_curves)

    p = sub.add_parser("simulate", help="simulate the two subarray observations")
    common(p, seeded=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("superresolve", help="reconstruct an HR image from observations")
    common(p)
    p.add_argument("--observations", required=True, nargs=2, metavar=("OBS1", "OBS2"),
                   help="the two subarray images from simulate (.npy or PGM)")
    p.set_defaults(func=cmd_superresolve)

    p = sub.add_parser("measure", help="measure resolution of a star image")
    common(p)
    p.add_argument("--image", required=True, help="image to measure (.npy or PGM)")
    span = f"{360 / SECTOR_COUNT:g}"
    p.add_argument("--sector", type=int, default=None, metavar="K",
                   help=f"fit sector K = 0..{SECTOR_COUNT - 1} only: pattern_angle in "
                        f"[{span}K, {span}(K+1)) degrees from the +row (along-track) "
                        "axis; in sectors 0, 3, 4 and 7 ring tangents run across track")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("montecarlo", help="run a sensitivity campaign")
    common(p, seeded=True, threaded=True)
    p.add_argument("--trials", type=int, default=None,
                   help="trial count (default: config n_trials)")
    p.add_argument("--progress", action="store_true",
                   help="report completed trials on stderr")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("sweep", help="run the product of parameter axes, others nominal")
    common(p, seeded=True, threaded=True)
    p.add_argument("--param", required=True, action="append",
                   help=" | ".join(PARAMETER_FIELDS) + "; repeat for one axis per "
                        "--param/--values pair")
    p.add_argument("--values", required=True, action="append",
                   help="comma-separated values of the matching --param")
    p.add_argument("--seeds-per-value", type=int, default=SEEDS_PER_VALUE)
    p.set_defaults(func=cmd_sweep)

    return parser


def _interrupt(signum, frame):
    """Raise what Ctrl-C raises, naming the signal."""
    raise KeyboardInterrupt(signal.Signals(signum).name)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    # SIGTERM stops a command as Ctrl-C does; only the main thread may set a handler
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _interrupt) if on_main else None
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.INFO)
        config = load_config(args.config)
        return args.func(args, config, Path(args.out_dir or config.output_dir))
    except KeyboardInterrupt as exc:  # _interrupt names SIGTERM, Ctrl-C nothing
        signum = signal.SIGTERM if str(exc) == "SIGTERM" else signal.SIGINT
        print(f"error: interrupted by {signum.name}", file=sys.stderr)
        return 128 + signum
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's names the allocation; a bare MemoryError() names nothing
        message = str(exc) or f"{args.command} ran out of memory"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
