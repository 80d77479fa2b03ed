"""Deterministic child-seed derivation for parallel campaigns.

Child streams are keyed by (master seed, index path), so results never
depend on execution order or worker count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["child_seed"]


def child_seed(master: int, *path: int) -> int:
    """Derive a stable integer seed from a master seed and an index path."""
    ss = np.random.SeedSequence([int(master), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
