"""Command-line harness: gen, solve, bench and inpaint subcommands."""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .bench import (ExperimentSpec, Suite, aggregate_success, build_problem,
                    emit_csv, load_config, run_suite, solver_config)
from .matrixio import read_matrix_csv, write_matrix_csv, write_pgm
from .metrics import evaluate
from .problems import MaskedMatrix, make_descriptors
from .sampling import SamplingOperator
from .solvers import Algorithm, solve


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", default="ts1-s2",
                   choices=[a.value for a in Algorithm])
    p.add_argument("--rank", type=int, help="known rank r")
    p.add_argument("--rank-estimate", type=int, metavar="K",
                   help="overestimated initial rank (enables estimation)")
    p.add_argument("--r-min", type=int, default=1)
    p.add_argument("--mu", type=float, default=0.99)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=5000)


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--sr", type=float, default=0.4)
    p.add_argument("--cov", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ts1mc",
        description="Low-rank matrix completion via TS1 iterative thresholding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a problem and write it to CSV files")
    _add_gen_flags(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out", required=True, metavar="PREFIX")

    p = sub.add_parser("solve", help="solve one problem and print metrics")
    _add_gen_flags(p)
    _add_solver_flags(p)
    p.add_argument("--in", dest="input_prefix", metavar="PREFIX",
                   help="problem files written by gen (otherwise generate)")
    p.add_argument("--out", help="write the recovered matrix to this CSV")

    p = sub.add_parser("bench", help="run an experiment suite from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--full", action="store_true",
                   help="use the full-scale trial count from the config")
    p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("inpaint", help="image inpainting pipeline")
    p.add_argument("--image", default="synthetic",
                   help="PGM path, or 'synthetic' for the built-in pattern")
    p.add_argument("--sr", type=float, default=0.4)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_flags(p)
    p.add_argument("--out", metavar="PREFIX",
                   help="write PREFIX.recovered.pgm and PREFIX.observed.pgm")
    return parser


def _spec(args, suite: Suite, **fields) -> ExperimentSpec:
    """One-trial suite whose first cell is the problem the flags describe."""
    return ExperimentSpec(suite=suite, ranks=(args.rank,), sr=args.sr,
                          noises=(args.noise,), trials=1, seed=args.seed,
                          **fields)


def _solve(args, spec: ExperimentSpec, masked: MaskedMatrix, truth_matrix):
    """Solve with the solver flags' settings: (report, metrics, seconds)."""
    spec = replace(spec, mu=args.mu, a=args.a, lam=args.lam, tol=args.tol,
                   max_iters=args.max_iters, rank_estimate=args.rank_estimate,
                   r_min=args.r_min)
    t0 = time.perf_counter()
    report = solve(masked, solver_config(spec, args.solver, args.rank, args.noise))
    wall = time.perf_counter() - t0
    return report, evaluate(report.x_opt, truth_matrix), wall


def _cmd_gen(args) -> int:
    spec = _spec(args, Suite.SINGLE, m=args.m, n=args.n, covs=(args.cov,))
    truth, masked = build_problem(spec, 0, 0)
    write_matrix_csv(f"{args.out}.truth.csv", truth.matrix)
    observed = np.full(masked.shape, math.nan)
    observed[masked.op.rows, masked.op.cols] = masked.values
    write_matrix_csv(f"{args.out}.observed.csv", observed)
    d = masked.descriptors
    print(f"wrote {args.out}.truth.csv and {args.out}.observed.csv "
          f"(m={args.m} n={args.n} r={args.rank} p={masked.p} "
          f"SR={d.sr:.4f} FR={d.fr:.4f} r_m={d.r_m})")
    return 0


def _load_problem(prefix: str, rank: int | None):
    """Problem files written by gen; descriptors need the known ``rank``."""
    truth_matrix = read_matrix_csv(f"{prefix}.truth.csv")
    observed = read_matrix_csv(f"{prefix}.observed.csv")
    rows, cols = np.nonzero(~np.isnan(observed))
    op = SamplingOperator(shape=observed.shape, rows=rows, cols=cols)
    descriptors = (None if rank is None
                   else make_descriptors(*observed.shape, rank, op.p))
    return truth_matrix, MaskedMatrix(op=op, values=observed[rows, cols],
                                      descriptors=descriptors)


def _cmd_solve(args) -> int:
    spec = _spec(args, Suite.SINGLE, m=args.m, n=args.n, covs=(args.cov,))
    if args.input_prefix:
        truth_matrix, masked = _load_problem(args.input_prefix, args.rank)
    else:
        if args.rank is None:
            print("solve: --rank is required when generating a problem",
                  file=sys.stderr)
            return 1
        truth, masked = build_problem(spec, 0, 0)
        truth_matrix = truth.matrix
    report, met, wall = _solve(args, spec, masked, truth_matrix)
    extra = ""
    if report.rank_estimate is not None:
        extra = f" rank_est={report.rank_estimate}"
    print(f"solver={args.solver} rel.err={met.rel_err:.6e} "
          f"iterations={report.iterations} converged={report.converged}"
          f"{extra} time={wall:.2f}s")
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
    if args.rank is None:
        print("inpaint: --rank is required", file=sys.stderr)
        return 1
    # m, n only size the synthetic pattern; a PGM image brings its own.
    spec = _spec(args, Suite.INPAINT, m=128, n=128, image=args.image)
    truth, masked = build_problem(spec, 0, 0)
    report, met, wall = _solve(args, spec, masked, truth.matrix)
    print(f"solver={args.solver} psnr={met.psnr:.2f}dB mse={met.mse:.3e} "
          f"rel.err={met.rel_err:.4e} iterations={report.iterations} "
          f"time={wall:.2f}s")
    if args.out:
        write_pgm(f"{args.out}.recovered.pgm",
                  np.clip(report.x_opt, 0.0, 1.0))
        write_pgm(f"{args.out}.observed.pgm",
                  np.clip(masked.observed_fill(), 0.0, 1.0))
        print(f"wrote {args.out}.recovered.pgm and {args.out}.observed.pgm")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
