"""Command-line harness: gen, solve, bench and inpaint subcommands."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import get_args, get_type_hints

import numpy as np

from .bench import (ExperimentSpec, Suite, aggregate_success, cells, emit_csv,
                    load_config, run_suite, solver_config)
from .matrix import singular_values
from .matrixio import read_matrix_csv, write_matrix_csv, write_pgm
from .metrics import evaluate
from .problems import MaskedMatrix, fr_display, make_descriptors
from .sampling import SamplingOperator
from .solvers import Algorithm, solve


# Each problem and solver flag is named after an ExperimentSpec field, or
# after the one value of a grid field, and typed by that field.  It has no
# default: an unset flag keeps the field's.
_GRID_FLAGS = {"rank": "ranks", "cov": "covs", "noise": "noises", "solver": "solvers"}
_SPEC_TYPES = get_type_hints(ExperimentSpec)
_PROBLEM_FLAGS = ("m", "n", "sr", "cov", "noise", "seed")
_SOLVER_FLAGS = ("solver", "rank", "rank_estimate", "r_min", "mu", "a", "lam",
                 "tol", "max_iters")
_FLAG_OPTIONS = {
    "solver": {"choices": [a.value for a in Algorithm]},
    "rank": {"help": "known rank r"},
    "rank_estimate": {"metavar": "K",
                      "help": "overestimated initial rank (enables estimation)"},
    "image": {"help": "PGM path, or 'synthetic' (the default) for the "
                      "built-in pattern"},
}


def _add_spec_flags(p: argparse.ArgumentParser, names, **options) -> None:
    """``--name`` for each name, typed by its field's element type: int for
    ``int``, ``int | None`` and ``tuple[int, ...]``."""
    for name in names:
        kind = _SPEC_TYPES[_GRID_FLAGS.get(name, name)]
        p.add_argument(f"--{name.replace('_', '-')}",
                       type=(get_args(kind) or (kind,))[0],
                       **{**_FLAG_OPTIONS.get(name, {}), **options})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ts1mc",
        description="Low-rank matrix completion via TS1 iterative thresholding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a problem and write it to CSV files")
    _add_spec_flags(p, _PROBLEM_FLAGS + ("rank",))
    p.add_argument("--out", required=True, metavar="PREFIX")

    p = sub.add_parser("solve", help="solve one problem and print metrics")
    _add_spec_flags(p, _PROBLEM_FLAGS + _SOLVER_FLAGS)
    p.add_argument("--in", dest="input_prefix", metavar="PREFIX",
                   help="problem files written by gen (otherwise generate)")
    p.add_argument("--out", help="write the recovered matrix to this CSV")

    p = sub.add_parser("bench", help="run an experiment suite from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--full", action="store_true",
                   help="use the full-scale trial count from the config")
    _add_spec_flags(p, ["seed"], help="override the config seed")

    p = sub.add_parser("inpaint", help="image inpainting pipeline")
    _add_spec_flags(p, ("image", "sr", "noise", "seed") + _SOLVER_FLAGS)
    p.add_argument("--out", metavar="PREFIX",
                   help="write PREFIX.recovered.pgm and PREFIX.observed.pgm")
    return parser


def _spec(args, suite: Suite, **fixed) -> ExperimentSpec:
    """One-trial suite whose first cell is the problem the set flags
    describe; ``fixed`` fields override the flags."""
    values = {}
    for name, value in vars(args).items():
        if name in _GRID_FLAGS and value is not None:
            name, value = _GRID_FLAGS[name], (value,)
        if name in _SPEC_TYPES and value is not None:
            values[name] = value
    return ExperimentSpec(**{**values, "suite": suite, "trials": 1, **fixed})


def _problem(args, suite: Suite, **fixed):
    """``_spec(args, suite, **fixed)``, its first truth matrix and problem."""
    if args.rank is None:
        raise ValueError("--rank is required")
    spec = _spec(args, suite, **fixed)
    _, truth, masked = next(cells(spec))
    return spec, truth.matrix, masked


def _solve(spec: ExperimentSpec, masked: MaskedMatrix, truth_matrix):
    """Solve the spec's first cell: (report, metrics, end of the printed
    line: `` rank_est=K`` if the solve estimated the rank, and the time)."""
    config = solver_config(spec, spec.solvers[0], spec.ranks[0], spec.noises[0])
    t0 = time.perf_counter()
    report = solve(masked, config)
    wall = time.perf_counter() - t0
    rank = "" if report.rank_estimate is None else f" rank_est={report.rank_estimate}"
    return report, evaluate(report.x_opt, truth_matrix), f"{rank} time={wall:.2f}s"


def _cmd_gen(args) -> int:
    spec, truth_matrix, masked = _problem(args, Suite.SINGLE)
    write_matrix_csv(f"{args.out}.truth.csv", truth_matrix)
    observed = np.full(masked.shape, np.nan)
    observed.reshape(-1)[masked.op.flat] = masked.values
    write_matrix_csv(f"{args.out}.observed.csv", observed)
    d = masked.descriptors
    print(f"wrote {args.out}.truth.csv and {args.out}.observed.csv "
          f"(m={spec.m} n={spec.n} r={spec.ranks[0]} p={masked.p} "
          f"SR={d.sr:.4f} FR={fr_display(spec.ranks[0], *masked.shape, masked.p)} "
          f"r_m={d.r_m})")
    return 0


def _load_problem(prefix: str, rank: int | None):
    """Problem files written by gen: (rank, truth, problem).

    Without ``rank`` the truth's numerical rank is used, as bench would:
    its count of singular values above sigma_1 * max(m, n) * eps."""
    truth_matrix = read_matrix_csv(f"{prefix}.truth.csv")
    observed = read_matrix_csv(f"{prefix}.observed.csv")
    if truth_matrix.shape != observed.shape:
        raise ValueError(f"shape mismatch: {prefix}.truth.csv is "
                         f"{truth_matrix.shape}, {prefix}.observed.csv is "
                         f"{observed.shape}")
    if not np.all(np.isfinite(truth_matrix)):
        raise ValueError(f"{prefix}.truth.csv holds a non-finite value")
    if rank is None:
        sigma = singular_values(truth_matrix)
        rank = int(np.count_nonzero(
            sigma > sigma[0] * max(truth_matrix.shape) * np.finfo(float).eps))
    op = SamplingOperator(observed.shape, np.flatnonzero(~np.isnan(observed)))
    return rank, truth_matrix, MaskedMatrix(
        op=op, values=op.apply(observed),
        descriptors=make_descriptors(*observed.shape, rank, op.p))


def _cmd_solve(args) -> int:
    if args.input_prefix:
        # the files fix the problem; --noise only sets nuclear's default lam
        given = [f"--{name}" for name in _PROBLEM_FLAGS
                 if name != "noise" and getattr(args, name) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be set with --in")
        r, truth_matrix, masked = _load_problem(args.input_prefix, args.rank)
        spec = _spec(args, Suite.SINGLE, ranks=(r,), m=masked.shape[0],
                     n=masked.shape[1])
    else:
        spec, truth_matrix, masked = _problem(args, Suite.SINGLE)
    report, met, end = _solve(spec, masked, truth_matrix)
    print(f"solver={spec.solvers[0]} rel.err={met.rel_err:.6e} "
          f"iterations={report.iterations} converged={report.converged}{end}")
    if args.out:
        write_matrix_csv(args.out, report.x_opt)
    return 0


def _cmd_bench(args) -> int:
    spec = load_config(args.config, full=args.full)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    records = run_suite(spec)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if spec.suite is Suite.SUCCESS_CURVE:
        curve_path = f"{args.out}.curve.csv"
        with open(curve_path, "w", encoding="ascii") as fh:
            fh.write("r,fr,success_rate,trials\n")
            for pt in aggregate_success(records):
                fh.write(f"{pt.r},{pt.fr:.17g},{pt.rate:.17g},{pt.trials}\n")
        print(f"wrote success curve to {curve_path}")
    return 0


def _cmd_inpaint(args) -> int:
    # m, n only size the synthetic pattern; a PGM image brings its own.
    spec, truth_matrix, masked = _problem(args, Suite.INPAINT, m=128, n=128)
    report, met, end = _solve(spec, masked, truth_matrix)
    print(f"solver={spec.solvers[0]} psnr={met.psnr:.2f}dB mse={met.mse:.3e} "
          f"rel.err={met.rel_err:.4e} iterations={report.iterations}{end}")
    if args.out:
        write_pgm(f"{args.out}.recovered.pgm",
                  np.clip(report.x_opt, 0.0, 1.0))
        write_pgm(f"{args.out}.observed.pgm",
                  np.clip(masked.observed_fill(), 0.0, 1.0))
        print(f"wrote {args.out}.recovered.pgm and {args.out}.observed.pgm")
    return 0


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"gen": _cmd_gen, "solve": _cmd_solve,
                "bench": _cmd_bench, "inpaint": _cmd_inpaint}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, IndexError) as exc:
        print(f"ts1mc {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
