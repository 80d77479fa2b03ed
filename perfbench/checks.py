"""Correctness checks: the stored reference and the run-to-run ledger.

reference.json holds the outputs at the default seed, computed by
campaign-serial and reconstruct-deep (``run.py --write-reference``).
Every run recomputes the start of them and must agree to 1e-9 relative;
campaign-parallel compares its trials with the serial reference.

The ledger (``.perfbench_out/ledger-<version>.json`` in the checkout)
keeps every operation's record and, from traced runs, its exact counts.
A later run of any workload that repeats an operation must reproduce
them exactly: the same trial from campaign-serial and campaign-parallel,
and the same counts from two traced runs at one seed.  The version is
``hostenv.code_version()``, so runs of other code (a parent commit, a
change that cuts FFT calls) start their own ledger; across code versions
outputs are compared only with reference.json, to 1e-9.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
# campaign trials recomputed by every run at another seed; deep runs
# recompute their first unit (one solve per worker)
CHECK_TRIALS = 2


def mismatches(got, want, rel_tol: float, path: str = "") -> list[str]:
    """Paths where got differs from want; floats within rel_tol agree."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], rel_tol, f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, rel_tol, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if got == want or (math.isfinite(want)
                           and abs(got - want) <= rel_tol * abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def as_json(record):
    """A record as it reads back from a JSON file (tuples become lists)."""
    return json.loads(json.dumps(record))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_reference(ops, reference: dict) -> list[str]:
    """Compare operations with the stored reference, where it has them."""
    problems = []
    for op in ops:
        if op.key in reference:
            problems += [f"reference mismatch {op.key}{m}"
                         for m in mismatches(as_json(op.record), reference[op.key], REL_TOL)]
    return problems


class Ledger:
    """Records and counts of earlier runs of one code version."""

    def __init__(self, out_dir: Path, version: str):
        self.path = out_dir / f"ledger-{version}.json"
        self.entries: dict = {}
        if self.path.exists():
            try:
                with open(self.path, encoding="utf-8") as fh:
                    self.entries = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"perfbench: starting a new ledger, {self.path} unreadable: {exc}",
                      file=sys.stderr)

    def check(self, key: str, value) -> list[str]:
        """Record value under key; a different earlier value is a problem."""
        value = as_json(value)
        if key in self.entries:
            return [f"{key} differs from an earlier run{m}"
                    for m in mismatches(value, self.entries[key], 0.0)]
        self.entries[key] = value
        return []

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh)
        os.replace(tmp, self.path)
