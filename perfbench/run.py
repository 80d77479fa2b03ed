#!/usr/bin/env python3
"""srlab benchmark: campaign throughput at 1 and N workers, deep-solve
throughput, and a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-serial --seed 42 --seconds 20 --trace 0

Workloads: campaign-serial, campaign-parallel, reconstruct-deep.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run and the tracing overhead.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the
lines before it are a readable table.  Outputs that disagree with
perfbench/reference.json, or with earlier runs of the same operations,
make the run fail (exit 1).  ``--write-reference`` recomputes the stored
reference.  See perfbench/README.md.
"""

from __future__ import annotations

import hostenv

hostenv.pin_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import memory  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = hostenv.ROOT / ".perfbench_out"
PEAK_DIR = OUT_DIR / "worker-peaks"
SETUP_PROBES = 7

if __name__ != "__main__":
    # a spawn/forkserver pool worker re-imports this module
    tracing.install_in_spawned_worker()
    memory.report_at_exit()


def measure_setup(n: int) -> list[float]:
    """Launch-to-exit wall time of n fresh set-up processes."""
    probe = Path(__file__).with_name("probe_setup.py")
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(probe)], capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(elapsed)
    return times


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least 10 samples beyond it.  With 20 samples or fewer that percentile
    would not lie above the median, so the maximum stands in."""
    xs = sorted(values)
    if len(xs) <= 20:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def peak_rss_mb(units) -> float:
    """This process's peak plus the largest sum of one unit's worker
    peaks: the pool workers of a unit run at the same time."""
    return memory.own_peak_mb() + max(sum(u.worker_peaks_mb) for u in units)


def run_unit(wl, seed: int, k: int, **kw):
    unit = wl.run_unit(seed, k, **kw)
    unit.worker_peaks_mb = memory.collect_worker_peaks_mb(PEAK_DIR)
    return unit


def measure(wl, seed: int, seconds: float) -> tuple[list, list[float]]:
    """Units until their wall time adds up to seconds, with the set-up
    probes spread between them so they sample the whole run."""
    units, setup = [], measure_setup(1)
    while sum(u.wall for u in units) < seconds:
        units.append(run_unit(wl, seed, len(units)))
        if len(setup) < SETUP_PROBES:
            setup += measure_setup(1)
    return units, setup + measure_setup(SETUP_PROBES - len(setup))


def measure_traced(wl, seed: int, seconds: float, tracer):
    """Unit k untraced, then unit k traced, until seconds have passed.

    Returns (untraced units, traced units, span lists per traced unit,
    spans of the traced set-up)."""
    tracer.install()
    try:
        wl.prepare()
    finally:
        tracer.uninstall()
    setup_spans = [tracer.take()]
    plain, traced, spans = [], [], []
    start, k = time.perf_counter(), 0
    while True:
        plain.append(run_unit(wl, seed, k))
        tracer.install()
        try:
            traced.append(run_unit(wl, seed, k))
        finally:
            tracer.uninstall()
        spans.append([tracer.take()] + tracer.collect_workers())
        k += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced, spans, setup_spans


def end_to_end(wl, units, setup, peak_mb: float) -> dict:
    """Every end-to-end figure of an untraced run: (value, unit, samples, note)."""
    ops = [op for u in units for op in u.ops if not op.failed]
    n_all = sum(len(u.ops) for u in units)
    wall = sum(u.wall for u in units)
    seconds = [op.seconds for op in ops]
    tail_s, pct = tail(seconds)
    beyond = len(ops) - round(pct / 100 * len(ops))
    what = "deep trials (simulate + solve)" if wl.kind == "deep" else "trials"
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup),
                    f"median of {len(setup)} fresh processes"),
        "trials_per_s": (len(ops) / wall, "1/s", len(ops),
                         f"{what} / {wall:.2f} s of {'campaign ' if wl.kind == 'campaign' else ''}"
                         "wall"),
        "trial_s_p50": (statistics.median(seconds), "s", len(ops), "median"),
        "trial_s_tail": (tail_s, "s", len(ops),
                         f"p{pct:.1f}, {beyond} samples beyond" if pct < 100
                         else "maximum (20 or fewer samples)"),
        "failed_frac": ((n_all - len(ops)) / n_all, "ratio", n_all, "failed / attempted"),
        "peak_rss_mb": (peak_mb, "MB", 1,
                        f"main process + sum of {wl.workers} worker peaks"
                        if wl.workers > 1 else "main process"),
    }
    if wl.kind == "deep":
        solve = [op.solve_seconds for op in ops]
        metrics["solves_per_s"] = (len(solve) / wall, "1/s", len(solve),
                                   "one solve per deep trial")
        metrics["solve_s_p50"] = (statistics.median(solve), "s", len(solve),
                                  "super_resolve alone, median")
    return metrics


def per_layer(wl, plain, traced, span_lists, setup_spans, shipped, ledger, problems):
    """Per-layer metrics of a traced run; appends count drift to problems."""
    all_spans = [s for lists in span_lists for s in lists] + setup_spans
    n_ops = sum(len(u.ops) for u in traced)
    incl = tracing.inclusive_times(all_spans)
    own = tracing.self_times(all_spans)

    def per_op(*names):
        return sum(incl.get(n, 0.0) for n in names) / n_ops

    n_generate = tracing.span_count(all_spans, "generate_spoke_target")
    metrics = {
        "metrology.measure_s": per_op("measure_resolution"),
        "metrology.ring_fit_s": per_op("ring_modulation"),
        "fourier.sinc_upsample_s": per_op("sinc_upsample"),
        "solver.solve_s": per_op("super_resolve"),
        "solver.warmstart_s": per_op("bicubic_upsample"),
        "solver.btv_s": per_op("btv_gradient", "btv_penalty"),
        "simulator.simulate_s": per_op("simulate_observations"),
        "simulator.render_s": per_op("render_blurred_scene"),
        "mtf.system_otf_s": per_op("system_otf"),
        "target.generate_s": incl.get("generate_spoke_target", 0.0) / max(n_generate, 1),
        "montecarlo.sample_s": per_op("sample_parameters"),
        "montecarlo.trial_overhead_s": own.get("run_trial", 0.0) / n_ops,
    }

    # exact counts: every traced operation against the ledger; the
    # reported values are per operation over unit 0, which every run has
    prefix = None
    for unit, lists in zip(traced, span_lists):
        by_trial = tracing.counts_by_trial(lists)
        for op in unit.ops:
            if op.failed:
                continue
            if op.trial_id not in by_trial:
                problems.append(f"{op.key}: no spans recorded (worker not traced?)")
                continue
            problems += ledger.check("n/" + op.key, by_trial[op.trial_id])
        if prefix is None:
            prefix = [by_trial.get(op.trial_id, {}) for op in unit.ops if not op.failed]
    n_prefix = max(len(prefix), 1)
    for name in tracing.COUNT_NAMES:
        metrics[name] = sum(c.get(name, 0) for c in prefix) / n_prefix
    trials_ls = sum(c.get("solver.cost_evals", 0) for c in prefix) - len(prefix)
    metrics["solver.step_accept_ratio"] = (
        sum(c.get("solver.iterations", 0) for c in prefix) / trials_ls if trials_ls > 0 else 0.0)

    plain_ops = [op for u in plain for op in u.ops]
    plain_wall = sum(u.wall for u in plain)
    if wl.kind == "campaign":
        busy = sum(op.seconds for op in plain_ops)
        metrics["montecarlo.worker_busy_frac"] = busy / (wl.workers * plain_wall)
        metrics["montecarlo.dispatch_s"] = statistics.mean(
            u.wall - sum(op.seconds for op in u.ops) / wl.workers for u in plain)
    else:
        metrics["montecarlo.worker_busy_frac"] = 0.0
        metrics["montecarlo.dispatch_s"] = 0.0
    # srlab's own pool only; reconstruct-deep's pool is the benchmark's
    metrics["montecarlo.task_bytes_computed"] = (
        sum(shipped) / n_ops if wl.kind == "campaign" else 0.0)
    metrics["trace_overhead_frac"] = sum(u.wall for u in traced) / plain_wall - 1.0
    self_per_op = {name: t / n_ops for name, t in sorted(own.items(), key=lambda kv: -kv[1])}
    return metrics, self_per_op, n_ops, len(prefix)


def layer_note(name: str, n_ops: int, n_prefix: int) -> tuple[int, str]:
    """(samples, note) of a per-layer metric in the printed table."""
    if name in tracing.COUNT_NAMES or name == "solver.step_accept_ratio":
        return n_prefix, "per operation over unit 0, exact"
    if name == "target.generate_s":
        return n_ops, "per call"
    if name == "montecarlo.dispatch_s":
        return n_ops, "per campaign call, untraced passes"
    if name == "montecarlo.worker_busy_frac":
        return n_ops, "untraced passes"
    if name == "montecarlo.task_bytes_computed":
        return n_ops, "bytes pickled for the pool per trial, traced passes"
    if name == "trace_overhead_frac":
        return n_ops, "traced / untraced wall - 1, same units"
    return n_ops, "per operation, traced passes"


def write_reference(srlab):
    camp = workloads.Campaign(srlab, 1)
    deep = workloads.Deep(srlab, 2)
    deep.prepare()
    units = [run_unit(camp, inputs.DEFAULT_SEED, 0), run_unit(deep, inputs.DEFAULT_SEED, 0)]
    problems = [p for u in units for p in u.problems]
    problems += [f"{op.key} failed" for u in units for op in u.ops if op.failed]
    if problems:
        raise RuntimeError("; ".join(problems))
    ref = {"_about": {"seed": inputs.DEFAULT_SEED, "environment": hostenv.describe(),
                      "written_by": "python3 perfbench/run.py --write-reference"}}
    ref.update({op.key: checks.as_json(op.record) for u in units for op in u.ops})
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(ref) - 1} reference records to {checks.REFERENCE}")


def gated_names(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json gates for this kind of run."""
    with open(hostenv.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def print_table(title_rows, metrics, gated):
    for line in title_rows:
        print(line)
    print(f"{'metric':32s} {'value':>14s} {'unit':7s} {'samples':>7s}  note")
    for name, (value, unit, samples, note) in metrics.items():
        if name not in gated:
            note += " (printed only)"
        print(f"{name:32s} {value:14.6g} {unit:7s} {samples:7d}  {note}")


def run(args) -> int:
    srlab = hostenv.import_srlab()
    OUT_DIR.mkdir(exist_ok=True)
    memory.watch_workers(PEAK_DIR)
    if args.write_reference:
        write_reference(srlab)
        return 0
    workers = min(max(2, hostenv.nproc()), inputs.CAMPAIGN_CHUNK)
    wl = workloads.make(srlab, args.workload, workers)
    env = {**hostenv.describe(), "code_version": hostenv.code_version()}
    wl.prepare()

    # correctness at the default seed, on this workload's own path
    check_units = []
    if args.seed != inputs.DEFAULT_SEED:
        check_units = [run_unit(wl, inputs.DEFAULT_SEED, 0) if wl.kind == "deep" else
                       run_unit(wl, inputs.DEFAULT_SEED, 0, n_trials=checks.CHECK_TRIALS)]

    problems = []
    if args.trace:
        trace_dir = OUT_DIR / "worker-spans"
        trace_dir.mkdir(exist_ok=True)
        for stale in trace_dir.glob("spans-*.jsonl"):
            stale.unlink()
        tr = tracing.Tracer(trace_dir, os.getpid())
        plain, traced, span_lists, setup_spans = measure_traced(
            wl, args.seed, args.seconds, tr)
        units, setup = plain + traced, []
        ledger = checks.Ledger(OUT_DIR, env["code_version"])
        layer, self_per_op, n_ops, n_prefix = per_layer(
            wl, plain, traced, span_lists, setup_spans, tr.shipped, ledger, problems)
        tracing.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                            [s for lists in span_lists for s in lists] + setup_spans)
    else:
        units, setup = measure(wl, args.seed, args.seconds)
        # the ledger grows with every run in a checkout: take the peak
        # before loading it, and fork no pool after, or the figure grows too
        peak_mb = peak_rss_mb(units)
        ledger = checks.Ledger(OUT_DIR, env["code_version"])

    reference = checks.load_reference()
    for unit in check_units + units:
        problems += unit.problems
        ok_ops = [op for op in unit.ops if not op.failed]
        problems += checks.check_reference(ok_ops, reference)
        for op in ok_ops:
            problems += ledger.check(op.key, op.record)
    if check_units and not any(op.key in reference for u in check_units for op in u.ops):
        problems.append("reference.json has no records for this workload's check")
    ledger.save()

    attempted = sum(len(u.ops) for u in units)
    failed = sum(op.failed for u in units for op in u.ops)
    header = [f"perfbench  workload={args.workload}  seed={args.seed}  "
              f"seconds={args.seconds}  trace={args.trace}",
              "environment  " + json.dumps(env),
              "inputs  " + json.dumps(wl.resolved_inputs())]
    gated = gated_names(args.trace)
    if args.trace:
        units_of = dict(gated)
        shown = {name: (value, units_of[name], *layer_note(name, n_ops, n_prefix))
                 for name, value in layer.items()}
        record = {"per_layer": layer, "self_s_per_op": self_per_op}
    else:
        shown = end_to_end(wl, units, setup, peak_mb)
        record = {"end_to_end": {k: v[0] for k, v in shown.items()}}
    for name, unit in gated:
        if shown[name][1] != unit:
            raise RuntimeError(f"{name} is measured in {shown[name][1]}, "
                               f"BENCHMARK.json says {unit}")
    print_table(header, shown, {name for name, _ in gated})
    if args.trace:
        print("self time per operation (s): " + ", ".join(
            f"{name} {t:.4g}" for name, t in self_per_op.items()))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": shown[name][0], "unit": unit}
                          for name, unit in gated}}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "inputs": wl.resolved_inputs(),
                   "setup_s_samples": setup, "problems": problems, **record,
                   "units": [{"wall": u.wall, "op_seconds": [op.seconds for op in u.ops],
                              "worker_peaks_mb": u.worker_peaks_mb}
                             for u in units],
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute perfbench/reference.json and exit")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except ImportError as exc:
        print(f"perfbench: cannot import srlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
