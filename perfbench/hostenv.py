"""Process environment of the benchmark: BLAS threads, srlab import,
versions and the code version that exact comparisons are keyed by."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one BLAS/OpenMP thread per process, so N campaign workers on N cores do
# not oversubscribe; set before numpy is first imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def pin_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_srlab():
    """Import srlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "srlab" / "__init__.py").is_file():
        raise ImportError(f"no srlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import srlab
    if not Path(srlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"srlab was imported from {srlab.__file__}, not {SRC}")
    return srlab


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def code_version() -> str:
    """Hash of srlab's sources, the benchmark's own code, and the Python,
    numpy and scipy versions.  Runs compare their outputs exactly only
    with earlier runs of the same version."""
    import numpy
    import scipy
    h = hashlib.sha256()
    for label, base in (("src/srlab", SRC / "srlab"), ("perfbench", Path(__file__).parent)):
        for path in sorted(base.rglob("*.py")):
            h.update(f"{label}/{path.relative_to(base).as_posix()}\0".encode())
            h.update(path.read_bytes())
            h.update(b"\0")
    h.update(f"{platform.python_version()} {numpy.__version__} {scipy.__version__} "
             f"{platform.machine()}".encode())
    return h.hexdigest()[:16]


def describe() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }
