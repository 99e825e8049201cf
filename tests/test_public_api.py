"""The package namespace and the benchmark's trace points.

``ts1mc/__init__.py`` re-exports each module's ``__all__``, so a name added
there is public without a second list to keep in step; a module lists only
the names it defines, so each public name has one owner.  The benchmark's
tracer wraps functions by the module-level names their callers look up; a
rename would silently drop its per-layer metrics, so every target must
resolve.  Every SVD goes through ``ts1mc.matrix``, the one spectral backend.
"""

import ast
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


def _unread_parameters(path: Path) -> list[str]:
    """``module.function(param)`` for each parameter its body never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{path.stem}.{name}({p})" for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    # A parameter the body ignores is an option that sets nothing.
    src = Path(ts1mc.__file__).resolve().parent
    unread = [u for path in sorted(src.glob("*.py"))
              for u in _unread_parameters(path)]
    assert unread == []


SPECTRAL = {"svd", "matrix_rank", "pinv", "lstsq"}


def _numpy_spectral_calls(path: Path) -> list[str]:
    """``module:line name`` for each use of numpy's SVD-based routines."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in SPECTRAL
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            found.append(f"{path.stem}:{node.lineno} {node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and node.module == "numpy.linalg"):
            found += [f"{path.stem}:{node.lineno} {a.name}"
                      for a in node.names if a.name in SPECTRAL]
    return found


def test_matrix_takes_every_svd():
    # numpy's SVD is another LAPACK build, whose values can differ from
    # matrix's in the last bits
    src = Path(ts1mc.__file__).resolve().parent
    found = [use for path in sorted(src.glob("*.py")) if path.stem != "matrix"
             for use in _numpy_spectral_calls(path)]
    assert found == []
