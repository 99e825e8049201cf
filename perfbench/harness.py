"""Run one workload for a fixed time, check its outputs and report metrics.

An untraced run reports the end-to-end metrics: the unit of work is
repeated until ``--seconds`` is spent and times are medians over the
repetitions, while ``setup_s`` is the median over several fresh processes
of the time from process start to the first solve.  A traced run repeats
the unit untraced, then runs it once more with every layer wrapped, and
reports the per-layer metrics and the tracing overhead.  Either way the
last line of standard output is one JSON object for the caller.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from tracing import SOLVE_SPAN, SVD_SPAN, Tracer, patched, WRAPS
from workloads import WORKLOADS, Workload

RUN_SECONDS = 35
SETUP_PROBES_PER_REP = 2
PROBE_TIMEOUT_S = 120
WORK_DIR = ".perfbench-work"  # under the checkout root; holds temp inputs and traces


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, share of median
    spans: tuple[str, ...] = ()  # per-layer only: spans the value is built from


# The time bounds sit near the 0.25 ceiling because on a shared 2-core VM
# (Intel Xeon, OpenBLAS on one thread) the speed of a fixed 100x100 SVD loop
# drifts between 1.25 and 2.1 ms over tens of seconds, and wall_s also moves
# with each seed's iteration count.  setup_s, sampled in short fresh
# processes, gets the largest bound.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.24),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ms_per_iter", "ms", "lower", 0.2),
    Metric("iterations", "count", "lower", 0.2),
    Metric("psnr_db_median", "dB", "higher", 0.05),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

# Printed with the end-to-end table but not compared between runs.
# success_rate is zero on the noisy inpainting workload by construction and
# failed_frac is zero at the seed, while a compared metric must never be
# zero; failures reach the caller as the result's ``attempted`` and
# ``failed`` counts, and any failed solve makes the run incorrect.  rel_err_median
# moves 15-20% between seeds on gauss100-suite, because a converged error is
# set by each instance's convergence rate; psnr_db_median carries the same
# error on a log scale and is compared instead.
INFO = (
    Metric("rel_err_median", "ratio", "lower"),
    Metric("success_rate", "ratio", "higher"),
    Metric("failed_frac", "ratio", "lower"),
)

_SVD, _SOLVE = (SVD_SPAN,), (SOLVE_SPAN,)
_PROBLEMS = ("problems.gen_gaussian_lowrank", "problems.add_noise",
             "problems.sample_uniform", "problems.image_to_lowrank_truth",
             "problems.synthetic_test_image")
_BENCH = ("bench.load_config", "bench.run_suite", "bench.emit_csv")
PER_LAYER = (
    Metric("matrix.compute_svd.calls", "count", "lower", spans=_SVD),
    Metric("matrix.compute_svd.s", "s", "lower", spans=_SVD),
    Metric("matrix.compute_svd.ms_per_call", "ms", "lower", spans=_SVD),
    Metric("matrix.compute_svd.share", "ratio", "lower", spans=_SVD + _SOLVE),
    Metric("matrix.svd_gflop_computed", "GFLOP", "lower", spans=_SVD),
    Metric("solvers.solve.calls", "count", "lower", spans=_SOLVE),
    Metric("solvers.solve.s", "s", "lower", spans=_SOLVE),
    Metric("solvers.solve.self_s", "s", "lower", spans=_SOLVE),
    Metric("matrix.threshold_spectrum.s", "s", "lower",
           spans=("matrix.threshold_spectrum",)),
    Metric("scalar.h_lambda.calls", "count", "lower", spans=("scalar.h_lambda",)),
    Metric("scalar.h_lambda.s", "s", "lower", spans=("scalar.h_lambda",)),
    Metric("solvers.select.s", "s", "lower", spans=("solvers.select",)),
    Metric("solvers.eigengap.calls", "count", "lower", spans=("solvers.eigengap",)),
    Metric("solvers.eigengap.s", "s", "lower", spans=("solvers.eigengap",)),
    Metric("solvers.converged_frac", "ratio", "higher", spans=_SOLVE),
    Metric("solvers.wasted_iter_frac", "ratio", "lower", spans=_SOLVE),
    Metric("solvers.rank_adjust_kept_k", "count", "lower", spans=_SOLVE),
    Metric("bench.run_suite.s", "s", "lower", spans=("bench.run_suite",)),
    Metric("bench.self_s", "s", "lower", spans=_BENCH),
    Metric("bench.emit_csv.s", "s", "lower", spans=("bench.emit_csv",)),
    Metric("cli.self_s", "s", "lower", spans=("cli.cli_main",) + _BENCH),
    Metric("problems.calls", "count", "lower", spans=_PROBLEMS),
    Metric("problems.s", "s", "lower", spans=_PROBLEMS),
    Metric("sampling.SamplingOperator.init_s", "s", "lower",
           spans=("sampling.SamplingOperator.init",)),
    Metric("sampling.SamplingOperator.adjoint_s", "s", "lower",
           spans=("sampling.SamplingOperator.adjoint",)),
    Metric("metrics.evaluate.s", "s", "lower", spans=("metrics.evaluate",)),
    Metric("matrixio.read_pgm.s", "s", "lower", spans=("matrixio.read_pgm",)),
    Metric("matrixio.read_pgm.bytes", "bytes", "lower", spans=("matrixio.read_pgm",)),
    Metric("matrixio.write_pgm.s", "s", "lower", spans=("matrixio.write_pgm",)),
    Metric("matrixio.write_pgm.bytes", "bytes", "lower",
           spans=("matrixio.write_pgm",)),
    Metric("trace.overhead_s", "s", "lower"),
)


def manifest() -> dict:
    """The content of BENCHMARK.json, built from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def environment(root: Path) -> dict:
    """Where a result was measured: code, versions, BLAS and CPU."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: value for var, value in sorted(os.environ.items())
                         if var.endswith("_NUM_THREADS")},
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


class FirstSolve(BaseException):
    """Raised by the setup probe at the first solve; not an error."""


def _stop_at_solve(fn, wrap):
    def stop(*args, **kwargs):
        raise FirstSolve
    return stop


def probe_setup(root: Path, name: str, seed: int, spawned_at: float) -> int:
    """Prepare and run the workload up to its first solve; print the elapsed time.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before it
    started this process; the monotonic clock is shared between processes.
    """
    workload = WORKLOADS[name]()
    (root / WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / WORK_DIR) as tmp:
        solve_wraps = [w for w in WRAPS if w.span == SOLVE_SPAN]
        try:
            with patched(solve_wraps, _stop_at_solve):
                workload.prepare(Path(tmp), seed)
                workload.run()
        except FirstSolve:
            print(f"setup_s {time.monotonic() - spawned_at!r}")
            return 0
    print("setup probe: the workload never reached a solve", file=sys.stderr)
    return 1


def setup_times(root: Path, name: str, seed: int, count: int) -> list[float]:
    """Time from process start to the first solve, in ``count`` fresh processes."""
    times = []
    for _ in range(count):
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", name, "--seed", str(seed),
             "--setup-probe", repr(spawned_at)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=root)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) < 2 or lines[-2] != "setup_s":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
        times.append(float(lines[-1]))
    return times


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit; targets that were absent are dropped."""
    table = tracer.span_table()

    def calls(*names): return sum(table.get(n, (0, 0.0, 0.0))[0] for n in names)
    def dur(*names): return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)
    def own(*names): return sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den): return num / den if den else 0.0

    outcomes = tracer.outcomes
    iterations = sum(o["iterations"] for o in outcomes)
    values = {
        "matrix.compute_svd.calls": calls(SVD_SPAN),
        "matrix.compute_svd.s": dur(SVD_SPAN),
        "matrix.compute_svd.ms_per_call": 1000.0 * ratio(dur(SVD_SPAN), calls(SVD_SPAN)),
        "matrix.compute_svd.share": ratio(dur(SVD_SPAN), dur(SOLVE_SPAN)),
        "matrix.svd_gflop_computed": tracer.counters["svd_flop"] / 1e9,
        "solvers.solve.calls": calls(SOLVE_SPAN),
        "solvers.solve.s": dur(SOLVE_SPAN),
        "solvers.solve.self_s": own(SOLVE_SPAN),
        "matrix.threshold_spectrum.s": dur("matrix.threshold_spectrum"),
        "scalar.h_lambda.calls": calls("scalar.h_lambda"),
        "scalar.h_lambda.s": dur("scalar.h_lambda"),
        "solvers.select.s": dur("solvers.select"),
        "solvers.eigengap.calls": calls("solvers.eigengap"),
        "solvers.eigengap.s": dur("solvers.eigengap"),
        "solvers.converged_frac": ratio(sum(o["converged"] for o in outcomes),
                                        len(outcomes)),
        "solvers.wasted_iter_frac": ratio(sum(o["iterations"] for o in outcomes
                                              if o["hit_max_iters"]), iterations),
        "solvers.rank_adjust_kept_k": sum(o["kept_k"] for o in outcomes),
        "bench.run_suite.s": dur("bench.run_suite"),
        "bench.self_s": own(*_BENCH),
        "bench.emit_csv.s": dur("bench.emit_csv"),
        "cli.self_s": own("cli.cli_main"),
        "problems.calls": calls(*_PROBLEMS),
        "problems.s": dur(*_PROBLEMS),
        "sampling.SamplingOperator.init_s": dur("sampling.SamplingOperator.init"),
        "sampling.SamplingOperator.adjoint_s": dur("sampling.SamplingOperator.adjoint"),
        "metrics.evaluate.s": dur("metrics.evaluate"),
        "matrixio.read_pgm.s": dur("matrixio.read_pgm"),
        "matrixio.read_pgm.bytes": int(tracer.counters["read_pgm_bytes"]),
        "matrixio.write_pgm.s": dur("matrixio.write_pgm"),
        "matrixio.write_pgm.bytes": int(tracer.counters["write_pgm_bytes"]),
        "trace.overhead_s": overhead_s,
    }
    return {m.name: values[m.name] for m in PER_LAYER
            if not tracer.absent.intersection(m.spans)}


def _write_spans(tracer: Tracer, path: Path) -> None:
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "start": s.start - t0,
                                 "end": s.end - t0, "parent": s.parent,
                                 "solve_id": s.solve_id}) + "\n")


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path, probes: int = SETUP_PROBES_PER_REP) -> dict:
    """Run one workload and return its checked result and metrics.

    Untraced, ``probes`` setup probes run before each repetition, so that
    setup samples are spread over the run like the repetitions are.
    """
    clock = time.perf_counter
    (root / WORK_DIR).mkdir(exist_ok=True)
    tracer = Tracer()
    probes = 0 if trace else probes
    setup = []
    with tempfile.TemporaryDirectory(dir=root / WORK_DIR) as tmp:
        with tracer.installed() if trace else contextlib.nullcontext():
            workload.prepare(Path(tmp), seed)
        # ``seconds`` bounds the time spent in units, probes aside.  Repeat
        # while one more untraced unit, plus the traced one, still fits.
        reserve = 2 if trace else 1
        walls, units = [], []
        while True:
            setup += setup_times(root, workload.name, seed, probes)
            t0 = clock()
            units.append(workload.run())
            walls.append(clock() - t0)
            if sum(walls) + reserve * statistics.median(walls) > seconds:
                break
        if trace:
            with tracer.installed():
                t0 = clock()
                units.append(workload.run())
                traced_wall = clock() - t0

    errors = []
    for unit in units:
        errors += [e for e in workload.gate(unit) if e not in errors]
    if any(unit != units[0] for unit in units):
        errors.append("outcomes (iterations, rel_err) differ between repetitions")
    attempted = sum(len(u) for u in units)
    failed = sum(s.failed for u in units for s in u)
    if failed:
        errors.append(f"{failed} of {attempted} solves failed")
    first = units[0]
    iterations = sum(s.iterations for s in first)
    wall_s = statistics.median(walls)
    if trace:
        metrics = layer_metrics(tracer, traced_wall - wall_s)
        spans_path = root / WORK_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
        _write_spans(tracer, spans_path)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup) if setup else math.nan,
            "ms_per_iter": 1000.0 * wall_s / max(iterations, 1),
            "iterations": iterations,
            "rel_err_median": statistics.median(s.rel_err for s in first),
            "psnr_db_median": statistics.median(s.psnr_db for s in first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": sum(s.success for s in first) / len(first),
            "failed_frac": failed / attempted,
        }
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "reps": len(walls), "errors": errors, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "absent": sorted(w.target for w in WRAPS if w.span in tracer.absent)}


def _number(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def report(result: dict, env: dict) -> str:
    """Human-readable table, then the one-line JSON result (returned last)."""
    compared = PER_LAYER if result["trace"] else END_TO_END
    defs = compared if result["trace"] else END_TO_END + INFO
    lines = [f"perfbench {result['workload']} seed={result['seed']} "
             f"trace={int(result['trace'])} untraced reps={result['reps']}"]
    for m in defs:
        if m.name in result["metrics"]:
            value = result["metrics"][m.name]
            lines.append(f"  {m.name:40s} {value:>14.6g} {m.unit:6s} {m.better} is better")
        else:
            lines.append(f"  {m.name:40s} {'absent':>14s}")
    for target in result["absent"]:
        lines.append(f"  absent wrap target: {target}")
    for error in result["errors"]:
        lines.append(f"  GATE FAILED: {error}")
    lines.append("env " + json.dumps(env, sort_keys=True))
    final = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": _number(result["metrics"][m.name]), "unit": m.unit}
                    for m in compared if m.name in result["metrics"]},
    }
    lines.append(json.dumps(final, allow_nan=False))
    return "\n".join(lines)


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one ts1mc benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the metric tables and exit")
    parser.add_argument("--setup-probe", type=float, metavar="SPAWNED_AT",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_manifest:
        (root / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe is not None:
        return probe_setup(root, args.workload, args.seed, args.setup_probe)
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace), root)
    print(report(result, environment(root)), flush=True)
    return 0
