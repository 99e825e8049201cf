"""Spans around the calls into each ts1mc layer, recorded from outside.

Every target in ``WRAPS`` names the module namespace a caller reads a
function from, so one function can be traced under two names: the solver's
``compute_svd`` counts as solver SVD time, while the same function called by
``problems`` to truncate an image does not.  Wrappers are installed for one
block and always restored afterwards; a target that no longer exists is
recorded as absent instead of failing, so metrics that depend on it are
dropped rather than misreported.

The program is single-threaded, so the child spans of a span never overlap
and a span's self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

SOLVE_SPAN = "solvers.solve"
SVD_SPAN = "matrix.compute_svd"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 at top level
    solve_id: int  # index of the enclosing solvers.solve span, -1 outside


@dataclass(frozen=True)
class Wrap:
    """A function as one caller looks it up: ``module.attr`` (attr may be dotted)."""

    module: str
    attr: str
    span: str
    observe: Callable | None = None  # (tracer, args, result) -> None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


def _svd_gflop(tracer, args, result) -> None:
    # Golub & Van Loan's count for a thin SVD with U1, Sigma and V (R-SVD):
    # 6 M k^2 + 20 k^3 flops for an M x k matrix, M >= k.
    big, small = max(args[0].shape), min(args[0].shape)
    tracer.counters["svd_flop"] += 6.0 * big * small ** 2 + 20.0 * small ** 3


def _file_bytes(key: str) -> Callable:
    def observe(tracer, args, result) -> None:
        tracer.counters[key] += os.path.getsize(args[0])
    return observe


def _solve_outcome(tracer, args, report) -> None:
    config = args[1]
    k = getattr(config.rank, "k", None)
    tracer.outcomes.append({
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "hit_max_iters": (not report.converged
                          and report.iterations >= config.max_iters),
        "kept_k": (k is not None and report.rank_adjusted
                   and report.rank_estimate == k),
    })


WRAPS: tuple[Wrap, ...] = (
    Wrap("ts1mc.cli", "cli_main", "cli.cli_main"),
    Wrap("ts1mc.cli", "load_config", "bench.load_config"),
    Wrap("ts1mc.cli", "run_suite", "bench.run_suite"),
    Wrap("ts1mc.cli", "emit_csv", "bench.emit_csv"),
    Wrap("ts1mc.bench", "solve", SOLVE_SPAN, _solve_outcome),
    Wrap("ts1mc", "solve", SOLVE_SPAN, _solve_outcome),
    Wrap("ts1mc.bench", "gen_gaussian_lowrank", "problems.gen_gaussian_lowrank"),
    Wrap("ts1mc.bench", "add_noise", "problems.add_noise"),
    Wrap("ts1mc.bench", "sample_uniform", "problems.sample_uniform"),
    Wrap("ts1mc.bench", "image_to_lowrank_truth", "problems.image_to_lowrank_truth"),
    Wrap("ts1mc.problems", "gen_gaussian_lowrank", "problems.gen_gaussian_lowrank"),
    Wrap("ts1mc.problems", "sample_uniform", "problems.sample_uniform"),
    Wrap("ts1mc.problems", "synthetic_test_image", "problems.synthetic_test_image"),
    Wrap("ts1mc.problems", "compute_svd", "matrix.compute_svd.image_truncation"),
    Wrap("ts1mc.sampling", "SamplingOperator.__init__", "sampling.SamplingOperator.init"),
    Wrap("ts1mc.sampling", "SamplingOperator.adjoint", "sampling.SamplingOperator.adjoint"),
    Wrap("ts1mc.solvers", "compute_svd", SVD_SPAN, _svd_gflop),
    Wrap("ts1mc.solvers", "threshold_spectrum", "matrix.threshold_spectrum"),
    Wrap("ts1mc.solvers", "ts1_s1_select_lambda", "solvers.select"),
    Wrap("ts1mc.solvers", "ts1_s2_select_params", "solvers.select"),
    Wrap("ts1mc.solvers", "eigengap_from_sigma", "solvers.eigengap"),
    Wrap("ts1mc.matrix", "h_lambda", "scalar.h_lambda"),
    Wrap("ts1mc.bench", "evaluate", "metrics.evaluate"),
    Wrap("ts1mc.metrics", "evaluate", "metrics.evaluate"),
    Wrap("ts1mc.bench", "read_pgm", "matrixio.read_pgm", _file_bytes("read_pgm_bytes")),
    Wrap("ts1mc.matrixio", "write_pgm", "matrixio.write_pgm", _file_bytes("write_pgm_bytes")),
)


def _resolve(wrap: Wrap):
    """(owner, leaf name) of a wrap target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(wrap.module)
    except ImportError:
        return None
    *path, leaf = wrap.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


@contextmanager
def patched(wraps, make_wrapper: Callable):
    """Replace each target with ``make_wrapper(original, wrap)`` for one block.

    Yields the list of targets that could not be found.  Every replaced
    attribute is put back on exit, also when the block raises.
    """
    absent, restore = [], []
    try:
        for wrap in wraps:
            found = _resolve(wrap)
            if found is None:
                absent.append(wrap)
                continue
            owner, leaf = found
            original = getattr(owner, leaf)
            restore.append((owner, leaf, original, leaf in vars(owner)))
            setattr(owner, leaf, make_wrapper(original, wrap))
        yield absent
    finally:
        for owner, leaf, original, own in reversed(restore):
            if own:
                setattr(owner, leaf, original)
            else:
                delattr(owner, leaf)


class Tracer:
    """Keeps spans, counters and solve outcomes in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.outcomes: list[dict] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._solve = -1

    @contextmanager
    def installed(self, wraps=WRAPS):
        with patched(wraps, self._wrapper) as absent:
            self.absent.update(w.span for w in absent)
            yield self

    def _wrapper(self, fn: Callable, wrap: Wrap) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            outer_solve = self._solve
            if wrap.span == SOLVE_SPAN:
                self._solve = idx
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._solve = outer_solve
                self.spans[idx] = Span(wrap.span, start, end, parent,
                                       idx if wrap.span == SOLVE_SPAN else outer_solve)
            if wrap.observe is not None:
                wrap.observe(self, args, result)
            return result
        return traced

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration, total self time)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.spans):
            row = table[s.name]
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.end - s.start - child[i]
        return {name: tuple(row) for name, row in table.items()}
