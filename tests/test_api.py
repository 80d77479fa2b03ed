"""Every exported name resolves, and so does every function the benchmark
tracer wraps, so a deletion cannot silently break any of them.  Every
exported name also has a caller, so an export that nothing uses cannot
linger.

The package root re-exports with ``from .module import name``, which fails
at import time for a missing name, so importing it is its check.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import srlab

MODULES = ["srlab"] + sorted(f"srlab.{m.name}"
                             for m in pkgutil.iter_modules(srlab.__path__))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# the code an export must be used by: the package and the acceptance
# criteria (the package root only re-exports)
CALLERS = [p for p in sorted((ROOT / "src" / "srlab").glob("*.py"))
           if p.name != "__init__.py"] + [ROOT / "tests" / "test_acceptance.py"]
PACKAGE_ROOT = str(Path(srlab.__file__).resolve().parents[1])


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{modname}.__all__ names missing attributes: {missing}"


def _load(path: Path, name: str):
    """Execute a file as a module."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = _load(TRACER, "_perfbench_tracer")
    assert tracer.TRACED
    for modname, names in tracer.TRACED.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"


def test_every_export_has_a_caller():
    # a use is a name or an attribute in code; docstrings, strings and
    # __all__ itself do not count, and neither does the definition
    used = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    traced = {name for names in _load(TRACER, "_perfbench_tracer").TRACED.values()
              for name in names}
    unused = [f"{modname}.{name}" for modname in MODULES
              for name in getattr(importlib.import_module(modname), "__all__", ())
              if name not in used | traced]
    assert not unused, f"exported but called by nothing: {unused}"


def test_import_loads_no_scipy():
    # every transform is numpy.fft's and every interpolation a spectral
    # multiplier; scipy is a test-only reference
    for module in ("srlab", "srlab.cli"):
        probe = (f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
        assert out.stdout.strip() == "[]", module
