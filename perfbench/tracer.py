"""In-memory span tracer that wraps srlab's public functions from outside.

``Tracer.install`` replaces each traced function wherever an ``srlab``
module (or the package itself) binds it, plus ``numpy.fft.fft2`` and
``numpy.fft.ifft2``, so every caller that looks the name up at call time
goes through a wrapper.  Each call becomes a span ``[name, start, end,
parent, trial, extra]``: parent is the index of the enclosing span in
the same process, trial is the id of the trial being run (the seed
``run_trial`` received, or the key the benchmark set), and extra holds a
count the call returned (FFT bytes, solver iterations, ring samples,
rings dropped) or ``"error"`` when the call raised.

While installed, the tracer also wraps ``ForkingPickler.dumps``, which
multiprocessing queues look up at call time, and records the size of
every object the benchmark process pickles for its pool workers.

Spans stay in memory.  Campaign worker processes inherit the wrappers by
fork, or install them at start-up from ``TRACE_DIR_ENV`` under spawn;
they drop whatever they inherited and write their own spans to
``spans-<pid>.jsonl`` in that directory when they exit.  The parent
collects those files after the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
TRACE_MAIN_PID_ENV = "PERFBENCH_TRACE_MAIN_PID"

# defining module -> public functions wrapped by the tracer
TRACED = {
    "srlab.target": ("generate_spoke_target",),
    "srlab.mtf": ("system_otf",),
    "srlab.simulator": ("simulate_observations", "render_blurred_scene"),
    "srlab.fourier": ("sinc_upsample",),
    "srlab.solver": ("super_resolve", "bicubic_upsample", "btv_gradient",
                     "btv_penalty"),
    "srlab.metrology": ("measure_resolution", "ring_modulation"),
    "srlab.montecarlo": ("sample_parameters", "run_trial"),
}
FFT_NAMES = ("fft2", "ifft2")

# the tracer installed in this process, if any; pool workers find theirs
# here to label spans with the trial they run
ACTIVE = None

# span that owns an FFT call -> layer it is charged to
FFT_OWNERS = {"super_resolve": "solver", "sinc_upsample": "fourier",
              "simulate_observations": "simulator"}


def _extra(name, args, result):
    """The count a traced call reports next to its span."""
    if name in FFT_NAMES:  # bytes in + bytes out
        return int(getattr(args[0], "nbytes", 0)) + int(result.nbytes)
    if name == "super_resolve":
        return int(result.iterations_run)
    if name == "ring_modulation":
        return int(result.n_samples)
    if name == "measure_resolution":
        return int(result.rings_dropped)
    return None


class Tracer:
    """Span recorder; one per process.  Not thread-safe: srlab traces
    run in one thread per process."""

    def __init__(self, out_dir: Path, main_pid: int):
        self.out_dir = Path(out_dir)
        self.main_pid = main_pid
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = None
        self.shipped: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _adopt_process(self):
        """First span in a worker: forget the parent's spans, flush ours
        when the worker exits."""
        from multiprocessing import util
        self.pid = os.getpid()
        self.spans, self.stack, self.trial = [], [], None
        util.Finalize(None, self.flush_worker, exitpriority=100)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_process()
            if name == "run_trial":
                tracer.trial = kwargs.get("seed", args[2] if len(args) > 2 else None)
            spans = tracer.spans
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else None, tracer.trial, "error"]
            spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                span[5] = _extra(name, args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if name == "run_trial":
                    tracer.trial = None

        return traced

    def _count_shipped(self, dumps):
        """ForkingPickler.dumps that records what the main process ships;
        the None a pool sends each worker at shutdown is left out."""
        tracer = self

        def counted(cls, obj, protocol=None):
            buf = dumps(obj, protocol)
            if obj is not None and os.getpid() == tracer.main_pid:
                tracer.shipped.append(memoryview(buf).nbytes)
            return buf

        return classmethod(counted)

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every traced function at every srlab binding, the numpy
        2-D FFTs and the pickling of pool traffic; point worker processes
        at this tracer."""
        from multiprocessing.reduction import ForkingPickler

        import numpy.fft
        originals = {}
        for modname, names in TRACED.items():
            module = sys.modules[modname]
            for name in names:
                originals[id(getattr(module, name))] = (name, getattr(module, name))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "srlab" and not modname.startswith("srlab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for name in FFT_NAMES:
            fn = getattr(numpy.fft, name)
            self._saved.append((numpy.fft, name, fn))
            setattr(numpy.fft, name, self._wrap(name, fn))
        self._saved.append((ForkingPickler, "dumps", ForkingPickler.__dict__["dumps"]))
        ForkingPickler.dumps = self._count_shipped(ForkingPickler.dumps)
        os.environ[TRACE_DIR_ENV] = str(self.out_dir)
        os.environ[TRACE_MAIN_PID_ENV] = str(self.main_pid)
        global ACTIVE
        ACTIVE = self

    def uninstall(self):
        global ACTIVE
        ACTIVE = None
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        os.environ.pop(TRACE_DIR_ENV, None)
        os.environ.pop(TRACE_MAIN_PID_ENV, None)

    # -- output ---------------------------------------------------------

    def flush_worker(self):
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def collect_workers(self) -> list[list[list]]:
        """Span lists written by worker processes that have exited."""
        lists = []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                lists.append([json.loads(line) for line in fh])
            path.unlink()
        return lists

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def set_trial(trial):
    """Label the spans that follow in this process with a trial id."""
    if ACTIVE is not None:
        if os.getpid() != ACTIVE.pid:
            ACTIVE._adopt_process()
        ACTIVE.trial = trial


def install_in_spawned_worker():
    """Trace a worker started by spawn or forkserver: such a worker
    re-imports the benchmark's main module, which calls this."""
    out_dir = os.environ.get(TRACE_DIR_ENV)
    if not out_dir or int(os.environ.get(TRACE_MAIN_PID_ENV, "0")) == os.getpid():
        return None
    import srlab.montecarlo  # noqa: F401  (loads every traced module)
    tracer = Tracer(Path(out_dir), int(os.environ[TRACE_MAIN_PID_ENV]))
    tracer._adopt_process()
    tracer.install()
    return tracer


# -- analysis -------------------------------------------------------------

def _owner(spans, idx):
    """Name of the nearest enclosing span that owns FFT work, if any."""
    parent = spans[idx][3]
    while parent is not None:
        name = spans[parent][0]
        if name in FFT_OWNERS:
            return name
        parent = spans[parent][3]
    return None


def _under(spans, idx, name):
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def self_times(span_lists) -> dict[str, float]:
    """Total self time per span name: duration minus child durations."""
    totals: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _trial, _extra in spans:
            if parent is not None:
                child[parent] += t1 - t0
        for i, (name, t0, t1, *_rest) in enumerate(spans):
            totals[name] += (t1 - t0) - child[i]
    return dict(totals)


def inclusive_times(span_lists) -> dict[str, float]:
    """Total duration per span name; warm-start time counts only inside
    super_resolve."""
    totals: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        for i, (name, t0, t1, *_rest) in enumerate(spans):
            if name == "bicubic_upsample" and not _under(spans, i, "super_resolve"):
                continue
            totals[name] += t1 - t0
    return dict(totals)


COUNT_NAMES = ("solver.fft_calls", "solver.fft_bytes_computed", "solver.cost_evals",
               "solver.iterations", "metrology.ring_fits", "metrology.rings_dropped",
               "metrology.ring_samples", "fourier.fft_calls", "simulator.fft_calls")


def counts_by_trial(span_lists) -> dict:
    """Exact per-trial counts, keyed by the span's trial id."""
    out: dict = defaultdict(lambda: dict.fromkeys(COUNT_NAMES, 0))
    for spans in span_lists:
        for i, (name, _t0, _t1, _parent, trial, extra) in enumerate(spans):
            if trial is None:
                continue
            c = out[trial]
            if name in FFT_NAMES:
                owner = _owner(spans, i)
                if owner == "super_resolve":
                    c["solver.fft_calls"] += 1
                    c["solver.fft_bytes_computed"] += extra
                elif owner is not None:
                    c[f"{FFT_OWNERS[owner]}.fft_calls"] += 1
            elif name == "btv_penalty" and _under(spans, i, "super_resolve"):
                c["solver.cost_evals"] += 1
            elif name == "super_resolve" and extra != "error":
                c["solver.iterations"] += extra
            elif name == "measure_resolution" and extra != "error":
                c["metrology.rings_dropped"] += extra
            elif name == "ring_modulation" and extra != "error":
                c["metrology.ring_fits"] += 1
                c["metrology.ring_samples"] += extra
    return {k: dict(v) for k, v in out.items()}


def span_count(span_lists, name) -> int:
    return sum(1 for spans in span_lists for s in spans if s[0] == name)


def write_spans(path: Path, span_lists):
    with open(path, "w", encoding="utf-8") as fh:
        for pid_index, spans in enumerate(span_lists):
            for span in spans:
                fh.write(json.dumps([pid_index, *span]) + "\n")
