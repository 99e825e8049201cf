"""Experiment suites: generate, solve, measure, and serialize as CSV.

Every suite is the grid ranks x covs x noises x trials x solvers; the
suite name only picks image truth (inpaint), the default rank estimate
(table-rank-estimate) and the CLI's curve file (success-curve).  Trials
derive their seeds from (suite seed, combo index, trial index), so records
are reproducible and independent of execution order.  ``cells`` yields
them in CSV row order; the CLI solves the first cell of a one-trial suite.
Config keys and CSV columns are the field names of ExperimentSpec and
ExperimentRecord.  Wall time is the only column outside the byte-level
determinism guarantee.
"""

from __future__ import annotations

import configparser
import enum
import itertools
import math
import time
from collections.abc import Iterator
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
    "cells",
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
    mu: float = SolverConfig.mu
    tol: float = SolverConfig.tol
    max_iters: int = SolverConfig.max_iters
    a: float | None = None
    lam: float | None = None
    rank_estimate: int | None = None
    r_min: int = RankEstimate.r_min
    image: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.ranks or not self.covs or not self.noises or not self.solvers:
            raise ValueError("parameter lists must be nonempty")
        for name in self.solvers:
            Algorithm(name)  # raises on unknown solver
        # A grid value no cell's generator accepts fails here, with its
        # message; an inpaint image's shape is known once it is read.
        if not 0.0 < self.sr <= 1.0:
            raise ValueError(f"sampling ratio must lie in (0, 1], got {self.sr}")
        for cov in self.covs:
            if not 0.0 <= cov < 1.0:
                raise ValueError(f"cov must lie in [0, 1), got {cov}")
        for s in self.noises:
            if not (math.isfinite(s) and s >= 0):
                raise ValueError(f"noise level must be finite and nonnegative, got {s}")
        top = math.inf if self.suite is Suite.INPAINT else min(self.m, self.n)
        for r in self.ranks:
            if not 1 <= r <= top:
                dims = "" if top == math.inf else f" for dims {(self.m, self.n)}"
                raise ValueError(f"rank r={r} out of range{dims}")


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


def solver_config(spec: ExperimentSpec, name: str, r: int,
                  noise: float) -> SolverConfig:
    """Solver settings of one cell of rank ``r`` and noise level ``noise``."""
    alg = Algorithm(name)
    estimating = (spec.rank_estimate is not None
                  or spec.suite is Suite.TABLE_RANK_ESTIMATE)
    if estimating and alg in (Algorithm.TS1_S1, Algorithm.TS1_S2):
        # K = floor(1.5 r), and at least r + 1 so that r = 1 has a gap to test
        k = (spec.rank_estimate if spec.rank_estimate is not None
             else max(int(1.5 * r), r + 1))
        rank = RankEstimate(k=k, r_min=spec.r_min)
    else:
        rank = KnownRank(r=r)
    lam = spec.lam
    if alg is Algorithm.NUCLEAR and lam is None:
        lam = default_nuclear_lam(noise)
    return SolverConfig(algorithm=alg, rank=rank, mu=spec.mu, a=spec.a,
                        lam=lam, tol=spec.tol, max_iters=spec.max_iters)


def cells(spec: ExperimentSpec) -> Iterator[
        tuple[tuple[int, float, float, int], GroundTruth, MaskedMatrix]]:
    """Every (combo, trial) cell of the suite in CSV row order: its
    (r, cov, noise, trial), clean truth and observed problem.  An inpaint
    suite's truth depends only on the rank, so its image is read once and
    truncated once per rank."""
    if spec.suite is Suite.INPAINT:
        image = (synthetic_test_image(spec.m, spec.n)
                 if spec.image in (None, "synthetic") else read_pgm(spec.image))
        truths = {r: image_to_lowrank_truth(image, r) for r in spec.ranks}
    for combo_idx, (r, cov, noise) in enumerate(
            itertools.product(spec.ranks, spec.covs, spec.noises)):
        for trial in range(spec.trials):
            key = (spec.seed, combo_idx, trial)
            if spec.suite is Suite.INPAINT:
                truth = truths[r]
            else:
                truth = gen_gaussian_lowrank(spec.m, spec.n, r, cov,
                                             _derive_seed(*key, 0))
            noisy = add_noise(truth, noise, _derive_seed(*key, 1))
            masked = sample_uniform(noisy, spec.sr, _derive_seed(*key, 2))
            yield (r, cov, noise, trial), truth, masked


def _run_one(spec: ExperimentSpec, truth: GroundTruth, masked: MaskedMatrix,
             trial: int, r: int, cov: float, noise: float,
             cfg: SolverConfig) -> ExperimentRecord:
    t0 = time.perf_counter()
    try:
        report = solve(masked, cfg)
    except (ValueError, np.linalg.LinAlgError):
        report = None
    wall = time.perf_counter() - t0
    d = masked.descriptors
    m, n = masked.shape
    failed = ExperimentRecord(
        suite=spec.suite.value, solver=cfg.algorithm.value, m=m, n=n, r=r,
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
    """Run every solver on every cell of the suite, in CSV row order.

    A setting no problem can use aborts the suite before the first solve:
    the spec rejects a bad grid value when built, and every cell's solver
    settings are built first.  Per-trial solver failures become rows with
    infinite error.  Records are deterministic given the spec (modulo the
    wall-time column).
    """
    configs = {(r, noise, name): solver_config(spec, name, r, noise)
               for r in spec.ranks for noise in spec.noises
               for name in spec.solvers}
    records: list[ExperimentRecord] = []
    for (r, cov, noise, trial), truth, masked in cells(spec):
        for name in spec.solvers:
            records.append(_run_one(spec, truth, masked, trial, r, cov, noise,
                                    configs[r, noise, name]))
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
