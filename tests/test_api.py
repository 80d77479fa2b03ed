"""Every exported name resolves, and so does every function the benchmark
tracer wraps, so a deletion cannot silently break either.

The package root re-exports with ``from .module import name``, which fails
at import time for a missing name, so importing it is its check.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import srlab

MODULES = ["srlab"] + sorted(f"srlab.{m.name}"
                             for m in pkgutil.iter_modules(srlab.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for modname, names in tracer.TRACED.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
