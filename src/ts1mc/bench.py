"""Experiment suites: generate, solve, measure, and serialize as CSV.

Every suite is the grid ranks x covs x noises x trials x solvers; the
suite name only picks image truth (inpaint), the default rank estimate
(table-rank-estimate) and the CLI's curve file (success-curve).  Trials
derive their seeds from (suite seed, combo index, trial index), so records
are reproducible and independent of execution order; the CLI builds its
problems the same way.  Config keys and CSV columns are the field names of
ExperimentSpec and ExperimentRecord.  Wall time is the only column outside
the byte-level determinism guarantee.
"""

from __future__ import annotations

import configparser
import enum
import itertools
import math
import time
from dataclasses import MISSING, dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .matrixio import read_pgm
from .metrics import evaluate
from .problems import (GroundTruth, MaskedMatrix, add_noise,
                       gen_gaussian_lowrank, image_to_lowrank_truth,
                       sample_uniform, synthetic_test_image)
from .solvers import Algorithm, KnownRank, RankEstimate, SolverConfig, solve

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


CSV_COLUMNS = [f.name for f in fields(ExperimentRecord)]
_RECORD_TYPES = get_type_hints(ExperimentRecord)
_SPEC_TYPES = get_type_hints(ExperimentSpec)
# Display columns written at reduced precision; other floats round-trip.
_CSV_FORMATS = {"psnr": ".6g", "mse": ".6g", "wall_time_seconds": ".2f"}


def _parse(kind, raw: str):
    """Config or CSV text as a ``kind`` value; "" is None for ``X | None``."""
    if type(None) in get_args(kind):
        if raw == "":
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) is tuple:
        return tuple(get_args(kind)[0](v) for v in raw.split())
    if kind is bool:
        return raw == "1"
    return kind(raw)


def _format(name: str, value) -> str:
    kind = _RECORD_TYPES[name]
    if value is None:
        return ""
    if kind is bool:
        return str(int(value))
    return format(value, _CSV_FORMATS.get(name, ".17g" if kind is float else ""))


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


def _combos(spec: ExperimentSpec) -> list[tuple[int, float, float]]:
    return list(itertools.product(spec.ranks, spec.covs, spec.noises))


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
        report = solve(masked, cfg)
    except (ValueError, np.linalg.LinAlgError):
        report = None
    wall = time.perf_counter() - t0
    d = masked.descriptors
    failed = ExperimentRecord(
        suite=spec.suite.value, solver=solver_name, m=spec.m, n=spec.n, r=r,
        sr=d.sr, fr=d.fr, cov=cov, sigma_noise=noise, trial=trial,
        rel_err=math.inf, psnr=-math.inf, mse=math.inf, success=False,
        iterations=0, wall_time_seconds=wall, rank_estimated=None)
    if report is None:
        return failed
    met = evaluate(report.x_opt, truth.matrix)
    return replace(failed, rel_err=met.rel_err, psnr=met.psnr, mse=met.mse,
                   success=met.success, iterations=report.iterations,
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


def emit_csv(records: list[ExperimentRecord], path) -> None:
    """Write records with a fixed header and column order."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rec in records:
                fh.write(",".join(_format(name, getattr(rec, name))
                                  for name in CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def read_csv(path) -> list[ExperimentRecord]:
    """Read records written by emit_csv."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        out = []
        for lineno, line in enumerate(fh, start=2):
            values = line.rstrip("\n").split(",")
            if len(values) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: line {lineno} has {len(values)} "
                                 f"fields, expected {len(CSV_COLUMNS)}")
            out.append(ExperimentRecord(**{
                name: _parse(_RECORD_TYPES[name], raw)
                for name, raw in zip(CSV_COLUMNS, values, strict=True)}))
    return out


def load_config(path, full: bool = False) -> ExperimentSpec:
    """Parse a key-value config file into an ExperimentSpec.

    Keys are ExperimentSpec field names, in an ``[experiment]`` or
    ``[solver]`` section, each parsed by its field's type; unset keys keep
    the field default and an empty value means None for optional fields.
    ``full_trials`` is the full-scale trial count, used instead of
    ``trials`` with ``full``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not found:
        raise OSError(f"cannot read config file {path}")
    raw: dict[str, str] = {}
    for section in parser.sections():
        for key, text in parser.items(section):
            if key in raw:
                raise ValueError(f"{path}: key {key!r} is set twice")
            raw[key] = text
    full_trials = raw.pop("full_trials", None)
    if full and full_trials is not None:
        raw["trials"] = full_trials
    values = {}
    for key, text in raw.items():
        if key not in _SPEC_TYPES:
            raise ValueError(f"{path}: unknown config key {key!r}")
        try:
            values[key] = _parse(_SPEC_TYPES[key], text)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc
    for f in fields(ExperimentSpec):
        if f.default is MISSING and f.name not in values:
            raise ValueError(f"{path}: missing required key {f.name!r}")
    return ExperimentSpec(**values)
