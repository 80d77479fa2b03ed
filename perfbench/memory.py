"""Peak resident memory of the benchmark process and its pool workers.

``watch_workers`` makes every multiprocessing child of the benchmark
(the pool workers of ``run_campaign`` and of reconstruct-deep) write its
own peak RSS (``ru_maxrss``) to ``peak-<pid>`` in a directory when it
exits.  The benchmark collects those files after each unit, once the
pool has shut down, and adds up the peaks of that unit's workers.

A forked worker's peak includes the pages it still shares copy-on-write
with the parent, so the sum counts those pages once per worker: it is an
upper bound on the memory in use at once.  A change in one worker moves
it by that worker's change.
"""

from __future__ import annotations

import os
import resource
from multiprocessing import util
from pathlib import Path

PEAK_DIR_ENV = "PERFBENCH_PEAK_DIR"


def own_peak_mb() -> float:
    """Peak RSS of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_peak():
    out_dir = os.environ.get(PEAK_DIR_ENV)
    if out_dir:
        Path(out_dir, f"peak-{os.getpid()}").write_text(repr(own_peak_mb()))


def report_at_exit():
    """Write this process's peak to the peak directory when it exits."""
    util.Finalize(None, _write_peak, exitpriority=0)


def watch_workers(out_dir: Path):
    """Make every forked multiprocessing child report its peak at exit.
    A spawned worker re-imports run.py, which calls report_at_exit."""
    out_dir.mkdir(exist_ok=True)
    for stale in out_dir.glob("peak-*"):
        stale.unlink()
    os.environ[PEAK_DIR_ENV] = str(out_dir)
    # multiprocessing runs after-fork hooks in a forked child once it has
    # reset the child's finalizers; it holds the hook's owner weakly
    util.register_after_fork(report_at_exit, lambda _owner: report_at_exit())


def collect_worker_peaks_mb(out_dir: Path) -> list[float]:
    """Peaks written by workers that have exited since the last call."""
    peaks = []
    for path in sorted(out_dir.glob("peak-*")):
        peaks.append(float(path.read_text()))
        path.unlink()
    return peaks
