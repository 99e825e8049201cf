"""The package namespace and the benchmark's trace points.

``ts1mc/__init__.py`` re-exports each module's ``__all__``, so a name added
there is public without a second list to keep in step; a module lists only
the names it defines, so each public name has one owner.  The benchmark's
tracer wraps functions by the module-level names their callers look up; a
rename would silently drop its per-layer metrics, so every target must
resolve.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ts1mc

MODULES = ["scalar", "matrix", "sampling", "problems", "metrics", "matrixio",
           "solvers", "bench"]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module", MODULES)
def test_module_all_is_exported_by_the_package(module):
    mod = importlib.import_module(f"ts1mc.{module}")
    missing = [name for name in mod.__all__
               if getattr(ts1mc, name, None) is not getattr(mod, name)]
    assert missing == []
    # one owner per public name: a module lists only what it defines
    borrowed = [name for name in mod.__all__
                if callable(getattr(mod, name))
                and getattr(mod, name).__module__ != mod.__name__]
    assert borrowed == []


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _tracing()
    absent = [w.target for w in tracing.WRAPS if tracing._resolve(w) is None]
    assert absent == []
