"""Experiment suites: generate, solve, measure, and serialize as CSV.

A suite is a grid of problem parameters crossed with a trial index and a
list of solvers.  Every trial derives its generator seeds from
(suite seed, combo index, trial index) so records are reproducible and
independent of execution order; the CLI builds its problems the same way.
Wall time is measured per solve and is the only column excluded from
byte-level determinism guarantees.
"""

from __future__ import annotations

import configparser
import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .matrixio import read_pgm
from .metrics import evaluate
from .problems import (GroundTruth, MaskedMatrix, add_noise,
                       gen_gaussian_lowrank, image_to_lowrank_truth,
                       sample_uniform, synthetic_test_image)
from .solvers import (Algorithm, KnownRank, RankEstimate, SolveReport,
                      SolverConfig, solve)

__all__ = [
    "Suite",
    "ExperimentSpec",
    "ExperimentRecord",
    "SuccessPoint",
    "run_suite",
    "build_problem",
    "solver_config",
    "aggregate_success",
    "emit_csv",
    "read_csv",
    "load_config",
    "CSV_COLUMNS",
]

# Baseline soft-threshold level when none is configured: noise-proportional
# for noisy runs, a fixed moderate level otherwise.
def default_nuclear_lam(sigma_noise: float) -> float:
    return 0.01 * sigma_noise if sigma_noise > 0 else 0.15


class Suite(str, enum.Enum):
    TABLE_KNOWN_RANK = "table-known-rank"
    TABLE_COV_KNOWN_RANK = "table-cov-known-rank"
    TABLE_RANK_ESTIMATE = "table-rank-estimate"
    SUCCESS_CURVE = "success-curve"
    INPAINT = "inpaint"
    SINGLE = "single"


@dataclass(frozen=True)
class ExperimentSpec:
    suite: Suite
    m: int = 100
    n: int = 100
    ranks: tuple[int, ...] = (5,)
    sr: float = 0.4
    covs: tuple[float, ...] = (0.0,)
    noises: tuple[float, ...] = (0.0,)
    trials: int = 5
    solvers: tuple[str, ...] = ("ts1-s2",)
    seed: int = 0
    mu: float = 0.99
    tol: float = 1e-6
    max_iters: int = 5000
    a: float | None = None
    lam: float | None = None
    rank_estimate: int | None = None
    r_min: int = 1
    image: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.ranks or not self.covs or not self.noises or not self.solvers:
            raise ValueError("parameter lists must be nonempty")
        for name in self.solvers:
            Algorithm(name)  # raises on unknown solver


@dataclass(frozen=True)
class ExperimentRecord:
    suite: str
    solver: str
    m: int
    n: int
    r: int
    sr: float
    fr: float
    cov: float
    sigma_noise: float
    trial: int
    rel_err: float
    psnr: float
    mse: float
    success: bool
    iterations: int
    wall_time_seconds: float
    rank_estimated: int | None


@dataclass(frozen=True)
class SuccessPoint:
    r: int
    fr: float
    rate: float
    trials: int


CSV_COLUMNS = [f.strip() for f in (
    "suite solver m n r sr fr cov sigma_noise trial rel_err psnr mse "
    "success iterations wall_time_seconds rank_estimated").split()]


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(
        1, dtype=np.uint64)[0])


def solver_config(spec: ExperimentSpec, name: str, r: int | None,
                  noise: float) -> SolverConfig:
    """Solver settings of one cell; ``r`` is None when the rank is unknown."""
    alg = Algorithm(name)
    estimating = (spec.rank_estimate is not None
                  or spec.suite is Suite.TABLE_RANK_ESTIMATE)
    if estimating and alg in (Algorithm.TS1_S1, Algorithm.TS1_S2):
        k = spec.rank_estimate if spec.rank_estimate is not None else int(1.5 * r)
        rank = RankEstimate(k=k, r_min=spec.r_min)
    else:
        rank = KnownRank(r=r) if r is not None else None
    lam = spec.lam
    if alg is Algorithm.NUCLEAR and lam is None:
        lam = default_nuclear_lam(noise)
    return SolverConfig(algorithm=alg, rank=rank, mu=spec.mu, a=spec.a,
                        lam=lam, tol=spec.tol, max_iters=spec.max_iters)


def _combos(spec: ExperimentSpec):
    if spec.suite is Suite.TABLE_COV_KNOWN_RANK:
        return [(r, cov, spec.noises[0]) for r in spec.ranks for cov in spec.covs]
    if spec.suite is Suite.INPAINT:
        return [(spec.ranks[0], 0.0, noise) for noise in spec.noises]
    if spec.suite is Suite.SINGLE:
        return [(spec.ranks[0], spec.covs[0], spec.noises[0])]
    return [(r, spec.covs[0], spec.noises[0]) for r in spec.ranks]


def _load_image(spec: ExperimentSpec) -> np.ndarray:
    if spec.image in (None, "synthetic"):
        return synthetic_test_image(spec.m, spec.n)
    return read_pgm(spec.image)


def build_problem(spec: ExperimentSpec, combo_idx: int, trial: int,
                  image: np.ndarray | None = None
                  ) -> tuple[GroundTruth, MaskedMatrix]:
    """Clean truth and observed problem of one cell (``image``: the spec's)."""
    r, cov, noise = _combos(spec)[combo_idx]
    if spec.suite is Suite.INPAINT:
        truth = image_to_lowrank_truth(
            _load_image(spec) if image is None else image, r)
    else:
        truth = gen_gaussian_lowrank(
            spec.m, spec.n, r, cov, _derive_seed(spec.seed, combo_idx, trial, 0))
    noisy = add_noise(truth, noise, _derive_seed(spec.seed, combo_idx, trial, 1))
    masked = sample_uniform(noisy, spec.sr,
                            _derive_seed(spec.seed, combo_idx, trial, 2))
    return truth, masked


def _run_one(spec: ExperimentSpec, truth: GroundTruth, masked: MaskedMatrix,
             trial: int, r: int, cov: float, noise: float,
             solver_name: str) -> ExperimentRecord:
    cfg = solver_config(spec, solver_name, r, noise)
    t0 = time.perf_counter()
    try:
        report: SolveReport | None = solve(masked, cfg)
        x_opt = report.x_opt
    except (ValueError, np.linalg.LinAlgError):
        report, x_opt = None, None
    wall = time.perf_counter() - t0
    d = masked.descriptors
    if report is None:
        return ExperimentRecord(
            suite=spec.suite.value, solver=solver_name, m=spec.m, n=spec.n,
            r=r, sr=d.sr, fr=d.fr, cov=cov, sigma_noise=noise, trial=trial,
            rel_err=math.inf, psnr=-math.inf, mse=math.inf, success=False,
            iterations=0, wall_time_seconds=wall, rank_estimated=None)
    met = evaluate(x_opt, truth.matrix)
    return ExperimentRecord(
        suite=spec.suite.value, solver=solver_name, m=spec.m, n=spec.n, r=r,
        sr=d.sr, fr=d.fr, cov=cov, sigma_noise=noise, trial=trial,
        rel_err=met.rel_err, psnr=met.psnr, mse=met.mse, success=met.success,
        iterations=report.iterations, wall_time_seconds=wall,
        rank_estimated=report.rank_estimate)


def run_suite(spec: ExperimentSpec) -> list[ExperimentRecord]:
    """Run every (combo, trial, solver) cell of the suite.

    Per-trial solver failures become rows with infinite error; they never
    abort the suite.  Records are deterministic given the spec (modulo the
    wall-time column).
    """
    records: list[ExperimentRecord] = []
    image = _load_image(spec) if spec.suite is Suite.INPAINT else None
    for combo_idx, (r, cov, noise) in enumerate(_combos(spec)):
        for trial in range(spec.trials):
            truth, masked = build_problem(spec, combo_idx, trial, image)
            for name in spec.solvers:
                records.append(_run_one(spec, truth, masked, trial,
                                        r, cov, noise, name))
    return records


def aggregate_success(records: list[ExperimentRecord]) -> list[SuccessPoint]:
    """Mean success rate per (rank, solver-pooled) group, ordered by rank."""
    groups: dict[int, list[ExperimentRecord]] = {}
    for rec in records:
        groups.setdefault(rec.r, []).append(rec)
    out = []
    for r in sorted(groups):
        rows = groups[r]
        out.append(SuccessPoint(r=r, fr=rows[0].fr,
                                rate=sum(rec.success for rec in rows) / len(rows),
                                trials=len(rows)))
    return out


def _fmt(rec: ExperimentRecord) -> list[str]:
    return [
        rec.suite, rec.solver, str(rec.m), str(rec.n), str(rec.r),
        f"{rec.sr:.17g}", f"{rec.fr:.17g}", f"{rec.cov:.17g}",
        f"{rec.sigma_noise:.17g}", str(rec.trial), f"{rec.rel_err:.17g}",
        f"{rec.psnr:.6g}", f"{rec.mse:.6g}", "1" if rec.success else "0",
        str(rec.iterations), f"{rec.wall_time_seconds:.2f}",
        "" if rec.rank_estimated is None else str(rec.rank_estimated),
    ]


def emit_csv(records: list[ExperimentRecord], path) -> None:
    """Write records with a fixed header and column order."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rec in records:
                fh.write(",".join(_fmt(rec)) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def read_csv(path) -> list[ExperimentRecord]:
    """Read records written by emit_csv."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        out = []
        for line in fh:
            v = line.rstrip("\n").split(",")
            out.append(ExperimentRecord(
                suite=v[0], solver=v[1], m=int(v[2]), n=int(v[3]), r=int(v[4]),
                sr=float(v[5]), fr=float(v[6]), cov=float(v[7]),
                sigma_noise=float(v[8]), trial=int(v[9]), rel_err=float(v[10]),
                psnr=float(v[11]), mse=float(v[12]), success=v[13] == "1",
                iterations=int(v[14]), wall_time_seconds=float(v[15]),
                rank_estimated=None if v[16] == "" else int(v[16])))
    return out


def load_config(path, full: bool = False) -> ExperimentSpec:
    """Parse a flat key-value config file into an ExperimentSpec.

    With ``full`` the trial count falls back to the full-scale
    ``full_trials`` value when the file provides one.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise OSError(f"cannot read config file {path}")
    exp = parser["experiment"]
    sol = parser["solver"] if parser.has_section("solver") else {}

    def ints(raw): return tuple(int(v) for v in raw.split())
    def floats(raw): return tuple(float(v) for v in raw.split())

    trials = exp.getint("trials", 5)
    if full and "full_trials" in exp:
        trials = exp.getint("full_trials")
    get = sol.get
    return ExperimentSpec(
        suite=Suite(exp.get("suite")),
        m=exp.getint("m", 100), n=exp.getint("n", 100),
        ranks=ints(exp.get("ranks", "5")),
        sr=exp.getfloat("sr", 0.4),
        covs=floats(exp.get("covs", "0.0")),
        noises=floats(exp.get("noises", "0.0")),
        trials=trials,
        solvers=tuple(exp.get("solvers", "ts1-s2").split()),
        seed=exp.getint("seed", 0),
        image=exp.get("image", None),
        mu=float(get("mu", 0.99)),
        tol=float(get("tol", 1e-6)),
        max_iters=int(get("max_iters", 5000)),
        a=float(get("a")) if get("a") else None,
        lam=float(get("lam")) if get("lam") else None,
        rank_estimate=int(get("rank_estimate")) if get("rank_estimate") else None,
        r_min=int(get("r_min", 1)),
    )
