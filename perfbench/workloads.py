"""The benchmark's workloads: inputs made from a seed, one unit of work, gates.

A workload writes its inputs once (``prepare``), then ``run`` performs one
unit of work and returns every solve it attempted.  A unit is deterministic
given the seed, so the harness repeats it to time it and requires the
outcomes to repeat exactly.  Each workload calls ts1mc only through its
public entry points, looked up at call time so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ts1mc
import ts1mc.cli
import ts1mc.matrixio
import ts1mc.metrics
import ts1mc.problems

# Relative error below which a solve counts as a recovery (the paper's rule).
SUCCESS_REL_ERR = 5e-3


@dataclass(frozen=True)
class Solved:
    """One attempted solve as the gates see it."""

    label: str
    rel_err: float
    psnr_db: float
    success: bool
    iterations: int
    failed: bool


def _failed(label: str) -> Solved:
    return Solved(label, math.inf, -math.inf, False, 0, True)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _write_config(path: Path, experiment: dict, solver: dict) -> None:
    lines = ["[experiment]"] + [f"{k} = {v}" for k, v in experiment.items()]
    lines += ["", "[solver]"] + [f"{k} = {v}" for k, v in solver.items()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _cell_label(suite, solver, r, noise, trial) -> str:
    """Name of one bench cell, built from the columns that identify its row."""
    return f"{suite} {solver} r={int(r)} noise={float(noise):g} trial={int(trial)}"


def _run_bench(config: Path, labels: list[str]) -> list[Solved]:
    """``ts1mc bench`` through cli_main; one Solved per expected cell label.

    Each CSV row is matched to a label by its own suite, solver, r,
    sigma_noise and trial columns, so the row order does not matter.  A
    missing, unparsable or non-finite row, or a nonzero exit, counts as a
    failed solve.
    """
    out = config.with_suffix(".csv")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = ts1mc.cli.cli_main(["bench", "--config", str(config),
                                       "--out", str(out)])
    except Exception:  # a failed suite is counted, never aborts the run
        traceback.print_exc(file=sys.stderr)
        code = None
    if code != 0:
        return [_failed(label) for label in labels]
    try:
        with open(out, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    found: dict[str, Solved] = {}
    for row in rows:
        try:
            label = _cell_label(row["suite"], row["solver"], row["r"],
                                row["sigma_noise"], row["trial"])
            rel_err, psnr_db = float(row["rel_err"]), float(row["psnr"])
            iterations = int(row["iterations"])
        except (KeyError, TypeError, ValueError):
            continue
        finite = math.isfinite(rel_err) and math.isfinite(psnr_db)
        found[label] = (Solved(label, rel_err, psnr_db, row["success"] == "1",
                               iterations, False) if finite else _failed(label))
    return [found.get(label) or _failed(label) for label in labels]


class Workload:
    name = ""
    why = ""

    def prepare(self, workdir: Path, seed: int) -> None:
        raise NotImplementedError

    def run(self) -> list[Solved]:
        raise NotImplementedError

    def gate(self, solved: list[Solved]) -> list[str]:
        """Correctness failures of one unit, as messages."""
        errors = []
        for s in solved:
            if not s.failed and s.success != (s.rel_err < SUCCESS_REL_ERR):
                errors.append(f"{s.label}: success flag disagrees with "
                              f"rel_err {s.rel_err:.3e}")
        return errors


class Gauss100Suite(Workload):
    """``ts1mc bench`` on known-rank and rank-estimation Gaussian suites."""

    name = "gauss100-suite"
    why = ("many short independent solves through cli_main: bench "
           "orchestration, problem generation and per-iteration Python "
           "overhead are at their largest share")

    # (suite, ranks, trials, max_iters), scaled down from the repo's own
    # 100 x 100 Gaussian suites by running fewer trials: table1.cfg (known
    # rank; easy block 5..10, high-FR block 14..18) and table5.cfg (rank
    # estimation from K = floor(1.5 r), ranks 10..15).  Ranks and max_iters
    # are theirs.  At the seed every rank-estimation ts1-s2 cell runs to
    # max_iters.
    GRIDS = (("table-known-rank", (5, 15), 1, 2000),
             ("table-rank-estimate", (10,), 1, 2000))
    # Far below the recovery limit: every solver must recover these cells.
    EASY_RANKS = range(5, 11)

    def __init__(self, size=100, grids=GRIDS, easy_ranks=EASY_RANKS):
        self.size, self.grids, self.easy_ranks = size, grids, easy_ranks
        self.suites: list[tuple[Path, list[str]]] = []
        self.easy: set[str] = set()

    def prepare(self, workdir: Path, seed: int) -> None:
        solvers = ("ts1-s1", "ts1-s2")
        self.suites, self.easy = [], set()
        for i, ((suite, ranks, trials, max_iters), grid_seed) in enumerate(
                zip(self.grids, _seeds(seed, len(self.grids)))):
            path = workdir / f"grid{i}.cfg"
            _write_config(path, {
                "suite": suite, "m": self.size, "n": self.size, "sr": 0.4,
                "ranks": " ".join(map(str, ranks)), "trials": trials,
                "solvers": " ".join(solvers), "seed": grid_seed,
            }, {"mu": 0.99, "tol": 1e-6, "max_iters": max_iters, "r_min": 1})
            labels = [_cell_label(suite, solver, r, 0.0, t) for r in ranks
                      for t in range(trials) for solver in solvers]
            self.suites.append((path, labels))
            if suite == "table-known-rank":
                self.easy.update(_cell_label(suite, solver, r, 0.0, t)
                                 for r in ranks if r in self.easy_ranks
                                 for t in range(trials) for solver in solvers)

    def run(self) -> list[Solved]:
        return [s for path, labels in self.suites for s in _run_bench(path, labels)]

    def gate(self, solved: list[Solved]) -> list[str]:
        errors = super().gate(solved)
        for s in solved:
            if s.label in self.easy and not s.success:
                errors.append(f"{s.label}: easy known-rank cell not recovered "
                              f"(rel_err {s.rel_err:.3e})")
        return errors


class Gauss500Solve(Workload):
    """One library solve of a 500 x 500 rank-20 problem, known rank."""

    name = "gauss500-solve"
    why = ("one large library solve() where the dense SVD dominates and only "
           "the top r+1 of min(m, n) triplets are used; bypasses bench and cli")

    def __init__(self, size=500, rank=20, sr=0.3, max_iters=600):
        self.size, self.rank, self.sr, self.max_iters = size, rank, sr, max_iters
        self.seeds = (0, 0)

    def prepare(self, workdir: Path, seed: int) -> None:
        self.seeds = tuple(_seeds(seed, 2))

    def run(self) -> list[Solved]:
        label = f"ts1-s2 {self.size}x{self.size} r={self.rank} sr={self.sr}"
        truth = ts1mc.problems.gen_gaussian_lowrank(self.size, self.size,
                                                   self.rank, 0.0, self.seeds[0])
        masked = ts1mc.problems.sample_uniform(truth, self.sr, self.seeds[1])
        config = ts1mc.SolverConfig(algorithm=ts1mc.Algorithm.TS1_S2,
                                    rank=ts1mc.KnownRank(self.rank),
                                    max_iters=self.max_iters)
        try:
            report = ts1mc.solve(masked, config)
        except Exception:  # a failed solve is counted, never aborts the run
            traceback.print_exc(file=sys.stderr)
            return [_failed(label)]
        x = report.x_opt
        if not np.all(np.isfinite(x)):
            return [_failed(label)]
        # rel_err is computed here, independently of the metrics layer, so
        # the base gate also checks the success flag evaluate() returns.
        met = ts1mc.metrics.evaluate(x, truth.matrix)
        rel_err = float(np.linalg.norm(x - truth.matrix) / np.linalg.norm(truth.matrix))
        return [Solved(label, rel_err, met.psnr, met.success, report.iterations, False)]

    def gate(self, solved: list[Solved]) -> list[str]:
        # solve() stops before max_iters only when it has converged.
        errors = super().gate(solved)
        for s in solved:
            if s.failed or not s.rel_err < SUCCESS_REL_ERR or s.iterations >= self.max_iters:
                errors.append(f"{s.label}: must converge with rel_err < "
                              f"{SUCCESS_REL_ERR:g}, got {s.rel_err:.3e} after "
                              f"{s.iterations} iterations")
        return errors


class Inpaint128Noisy(Workload):
    """The inpaint suite on the synthetic image, read back from a PGM file."""

    name = "inpaint128-noisy"
    why = ("noisy inpainting through cli_main with a fixed iteration count; "
           "the nuclear baseline keeps most of the spectrum; only user of matrixio")

    def __init__(self, size=128, rank=10, noises=(0.05, 0.10, 0.20), iters=400):
        self.size, self.rank = size, rank
        self.noises, self.iters = noises, iters
        self.solvers = ("ts1-s2", "nuclear")
        self.suite: tuple[Path, list[str]] | None = None
        self.denoise_limit: dict[str, float] = {}

    def prepare(self, workdir: Path, seed: int) -> None:
        image = workdir / "image.pgm"
        ts1mc.matrixio.write_pgm(
            image, ts1mc.problems.synthetic_test_image(self.size, self.size))
        path = workdir / "inpaint.cfg"
        _write_config(path, {
            "suite": "inpaint", "m": self.size, "n": self.size, "sr": 0.4,
            "ranks": self.rank, "noises": " ".join(map(str, self.noises)),
            "trials": 1, "solvers": " ".join(self.solvers), "seed": seed,
            "image": image,
        }, {"mu": 0.99, "tol": 1e-6, "max_iters": self.iters})
        labels = [_cell_label("inpaint", solver, self.rank, noise, 0)
                  for noise in self.noises for solver in self.solvers]
        self.suite = (path, labels)
        # ts1-s2 must denoise: its error stays well inside 1.5x the noise level.
        self.denoise_limit = {_cell_label("inpaint", "ts1-s2", self.rank, noise, 0):
                              1.5 * noise for noise in self.noises}

    def run(self) -> list[Solved]:
        return _run_bench(*self.suite)

    def gate(self, solved: list[Solved]) -> list[str]:
        errors = super().gate(solved)
        for s in solved:
            limit = self.denoise_limit.get(s.label)
            if limit is not None and not s.rel_err < limit:
                errors.append(f"{s.label}: rel_err {s.rel_err:.3e} not below "
                              f"1.5 x noise ({limit:g})")
        return errors


WORKLOADS = {w.name: w for w in (Gauss100Suite, Gauss500Solve, Inpaint128Noisy)}
