"""Iterative thresholding solvers for TS1-regularized matrix completion.

All schemes iterate the fixed-point map X <- G(B_mu(X)): a gradient step
toward data consistency followed by singular-value thresholding.  They
differ in how the threshold parameters are chosen each iteration:

* ``ts1-it``   — fixed (lam, a) supplied by the caller; the basic scheme.
* ``ts1-s1``   — semi-adaptive: ``a`` fixed, ``lam`` selected each step
  from the spectrum of the gradient-step matrix so the threshold lands
  between the working rank's singular value and the next one.
* ``ts1-s2``   — fully adaptive: the penalty weight and ``a`` are both
  derived from the spectrum, pinned at the critical pairing where the two
  candidate thresholds coincide.
* ``nuclear``  — soft-thresholding of singular values at a fixed level;
  a plain nuclear-norm baseline for comparisons.

The working rank is either supplied (known-rank mode) or maintained by a
one-shot eigengap estimator that may lower an overestimate once.

Every scheme runs one kernel, ``fixed_point_step``: gradient step, SVD
``(u, sigma, vt)``, a per-scheme ``select(sigma) -> (g, Threshold)``
policy, reconstruction ``(u * g) @ vt``.  The kernel asks ``compute_svd``
for the k triplets the policy reads: ts1-s1/ts1-s2 threshold at or above
sigma_{rank+1}, so they need only the top rank + 1 (K + 1 while the
eigengap test is pending); ts1-it and nuclear keep every sigma above a
fixed level and take the full spectrum.  ``scalar.Threshold`` carries the
step's (a, lambda_mu, t, keep_boundary) to ``threshold_spectrum`` and into
the iteration history.  A new spectral backend belongs behind
``compute_svd``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .matrix import compute_svd, threshold_spectrum
from .problems import MaskedMatrix
from .sampling import (ObjectiveContext, SamplingOperator, check_penalty,
                       gradient_step)
from .scalar import Threshold, make_threshold_params

__all__ = [
    "Algorithm",
    "KnownRank",
    "RankEstimate",
    "SolverConfig",
    "IterationRecord",
    "SolveReport",
    "solve",
    "fixed_point_step",
    "ts1_it_step",
    "ts1_s1_select_lambda",
    "ts1_s2_select_params",
    "eigengap_from_sigma",
    "resolve_a",
]

# Floor on the product lam * mu when the working spectrum tail is exactly
# zero; keeps the prox well defined without altering the iterate visibly.
LAMBDA_MU_FLOOR = 1e-12

# Floor on eigenvalue quotient denominators; quotients whose denominator
# needed flooring are excluded from the eigengap statistics.
EIGENVALUE_FLOOR = 1e-30

# Dominance level the eigengap statistic must exceed (strictly) to adjust.
TAU_THRESHOLD = 10.0

# Shape parameter used once the rank estimate has been pinned down; the
# known-rank-optimal choice.
KNOWN_RANK_DEFAULT_A = 1.0

# A keep-boundary threshold sits on a singular value, so a truncated
# spectrum's last value within this fraction of sigma_1 below it may be a
# tie that the full spectrum keeps.  The truncated and dense SVDs' singular
# values agree to about 1e-15 sigma_1.
TIE_RTOL = 1e-12


class Algorithm(str, enum.Enum):
    TS1_IT = "ts1-it"
    TS1_S1 = "ts1-s1"
    TS1_S2 = "ts1-s2"
    NUCLEAR = "nuclear"


@dataclass(frozen=True)
class KnownRank:
    r: int


@dataclass(frozen=True)
class RankEstimate:
    k: int
    r_min: int = 1


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm choice and iteration parameters.

    ``a`` is consumed by ts1-it and ts1-s1 (ts1-s2 adapts it); ``lam`` by
    ts1-it (lam * mu > 0) and nuclear (lam >= 0).  Leaving ``a`` unset
    applies the empirical policy: 1 for known rank; for rank estimation
    1000 when the freedom ratio is below 0.6, otherwise 10.  In
    rank-estimation mode ts1-s1 switches to the known-rank value a = 1
    after the one permitted adjustment.
    """

    algorithm: Algorithm
    rank: KnownRank | RankEstimate | None = None
    mu: float = 0.99
    a: float | None = None
    lam: float | None = None
    tol: float = 1e-6
    max_iters: int = 5000

    def __post_init__(self):
        """Reject a setting no problem can use; ``solve`` checks the data
        and the rank against the problem's shape."""
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not self.tol > 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")
        check_penalty(self.lam, self.a)
        if self.algorithm in (Algorithm.TS1_S1, Algorithm.TS1_S2):
            if not isinstance(self.rank, (KnownRank, RankEstimate)):
                raise ValueError(f"{self.algorithm.value} requires a rank input")
            if (isinstance(self.rank, RankEstimate)
                    and not 1 <= self.rank.r_min < self.rank.k):
                raise ValueError("rank estimate needs 1 <= r_min < K, got "
                                 f"r_min={self.rank.r_min} K={self.rank.k}")
        elif self.lam is None:
            raise ValueError(f"{self.algorithm.value} requires a fixed lam")
        elif self.algorithm is Algorithm.TS1_IT and not self.lam * self.mu > 0:
            raise ValueError(f"ts1-it requires lam * mu > 0, got lam={self.lam}")


class IterationRecord(NamedTuple):
    residual: float
    lambda_mu: float
    a: float
    t: float
    rank: int


@dataclass(frozen=True)
class SolveReport:
    """A solve's result.  ``history[i].rank`` is ts1-s1/ts1-s2's working rank
    or ts1-it/nuclear's count of kept singular values; ``rank_estimate`` is
    the eigengap test's rank, None unless the rank was estimated."""

    x_opt: np.ndarray
    converged: bool
    history: list[IterationRecord]
    rank_estimate: int | None = None
    rank_adjusted: bool = False
    tau: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def final_params(self) -> IterationRecord:
        return self.history[-1]


def ts1_s1_select_lambda(sigma_b, r: int, mu: float, a: float) -> Threshold:
    """Per-step penalty weight for the semi-adaptive scheme.

    With sigma_b the spectrum of the gradient-step matrix, the candidate
    weights are lam1 = a sigma_{r+1} / (mu (a+1)) and
    lam2 = (a + 2 sigma_r)^2 / (8 (a+1) mu).  lam1 is used while it stays
    below the critical value a^2/(2(a+1)mu), putting the threshold at
    t2* = sigma_{r+1}; beyond that lam2 applies and the threshold is
    t3* = sigma_r (both identities are exact, so the thresholds are
    computed directly from the spectrum).
    """
    sigma_b = np.asarray(sigma_b, dtype=float)
    if not 1 <= r < sigma_b.size:
        raise IndexError(f"need 1 <= r < {sigma_b.size} singular values, got r={r}")
    s_r1 = sigma_b[r]
    lam1 = a * s_r1 / (mu * (a + 1.0))
    if lam1 <= a * a / (2.0 * (a + 1.0) * mu):
        if lam1 * mu < LAMBDA_MU_FLOOR:
            return make_threshold_params(a, LAMBDA_MU_FLOOR / mu * mu)
        return Threshold(a, lam1 * mu, s_r1)
    s_r = sigma_b[r - 1]
    lam2 = (a + 2.0 * s_r) ** 2 / (8.0 * (a + 1.0) * mu)
    return Threshold(a, lam2 * mu, s_r, keep_boundary=True)


def ts1_s2_select_params(sigma_b, r: int) -> Threshold:
    """Per-step penalty weight and shape for the fully adaptive scheme.

    The product lambda*mu is set to 2 sigma_{r+1}^2 / (1 + 2 sigma_{r+1})
    and ``a`` to the value making that weight exactly critical, so the two
    candidate thresholds coincide at t = sigma_{r+1} = a / 2 (an exact
    identity; t is taken from the spectrum unless lambda*mu was floored).
    """
    sigma_b = np.asarray(sigma_b, dtype=float)
    if not 1 <= r < sigma_b.size:
        raise IndexError(f"need 1 <= r < {sigma_b.size} singular values, got r={r}")
    s_r1 = sigma_b[r]
    lambda_mu = 2.0 * s_r1 * s_r1 / (1.0 + 2.0 * s_r1)
    floored = lambda_mu < LAMBDA_MU_FLOOR
    if floored:
        lambda_mu = LAMBDA_MU_FLOOR
    a = lambda_mu + np.sqrt(lambda_mu * lambda_mu + 2.0 * lambda_mu)
    return Threshold(a, lambda_mu, a / 2.0 if floored else s_r1)


def eigengap_from_sigma(sigma, k: int, r_min: int = 1) -> tuple[int, bool, float]:
    """Rank-decreasing eigengap test on a nonincreasing spectrum.

    Forms the eigenvalues lam_i = sigma_i^2 for i = r_min .. k+1 and their
    consecutive quotients.  Quotients whose denominator fell below
    EIGENVALUE_FLOOR are dropped (exact-zero tails would otherwise win
    spuriously).  Returns (k_new, adjusted, tau): the index of the largest
    quotient becomes the new estimate when its dominance statistic tau
    strictly exceeds 10.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not 1 <= r_min < k <= sigma.size - 1:
        raise IndexError(f"need r_min < k <= {sigma.size - 1}, got r_min={r_min} k={k}")
    lam = sigma ** 2
    num = lam[r_min - 1:k]
    den = lam[r_min:k + 1]
    valid = den >= EIGENVALUE_FLOOR
    if int(valid.sum()) < 2:
        return k, False, 0.0
    quotients = num[valid] / den[valid]
    indices = np.arange(r_min, k + 1)[valid]
    j = int(np.argmax(quotients))
    others = np.delete(quotients, j)
    tau = float(quotients.size * quotients[j] / np.sum(others))
    if tau > TAU_THRESHOLD:
        return int(indices[j]), True, tau
    return k, False, tau


def fixed_point_step(x: np.ndarray, op: SamplingOperator, b: np.ndarray,
                     mu: float, select: Callable) -> tuple[np.ndarray, tuple]:
    """One step X <- G(B_mu(X)); ``select`` maps sigma to (g, Threshold).

    A policy that reads only the top of the spectrum names the number of
    triplets it needs as ``select.triplets``, and the step reconstructs
    from those alone.  That is exact unless the threshold keeps the last
    of them: a singular value the truncated SVD never returned may tie with
    it and be kept too, so the step is redone on the full spectrum.  Under
    ``keep_boundary`` a last value within ``TIE_RTOL`` sigma_1 of the
    threshold counts as kept, since rounding can split a tie.  On the redo
    ``select`` sees what the dense path sees: an eigengap test it ran on
    the truncated spectrum either adjusted the rank, and runs no more, or
    changed nothing but tau, which it recomputes.
    """
    y = gradient_step(x, op, b, mu)
    u, sigma, vt = compute_svd(y, getattr(select, "triplets", None))
    g, th = select(sigma)
    if sigma.size < min(y.shape) and (
            sigma[-1] >= th.t - TIE_RTOL * sigma[0] if th.keep_boundary
            else g[-1] > 0):
        u, sigma, vt = compute_svd(y)
        g, th = select(sigma)
    return (u * g) @ vt, (g, th)


def _ts1_threshold(a: float, lambda_mu: float) -> Callable:
    """ts1-it's policy: the TS1 prox at fixed (a, lambda_mu)."""
    th = make_threshold_params(a, lambda_mu)
    return lambda sigma: (threshold_spectrum(sigma, th), th)


def _soft_threshold(lambda_mu: float) -> Callable:
    """nuclear's policy: soft-thresholding by lambda_mu."""
    th = Threshold(0.0, lambda_mu, lambda_mu)
    return lambda sigma: (np.maximum(sigma - lambda_mu, 0.0), th)


class _AdaptiveThreshold:
    """ts1-s1/ts1-s2: parameters from each spectrum, after the eigengap test."""

    def __init__(self, config: SolverConfig, problem: MaskedMatrix):
        self.config = config
        self.a = resolve_a(config, problem)
        self.estimating = isinstance(config.rank, RankEstimate)
        self.rank = config.rank.k if self.estimating else config.rank.r
        self.adjusted, self.tau = False, 0.0

    @property
    def triplets(self) -> int:
        """Singular triplets the next call reads: sigma_1 .. sigma_{rank+1}."""
        return self.rank + 1

    def __call__(self, sigma):
        cfg = self.config
        if self.estimating and not self.adjusted:
            self.rank, self.adjusted, self.tau = eigengap_from_sigma(
                sigma, self.rank, cfg.rank.r_min)
            if self.adjusted and cfg.a is None:
                self.a = KNOWN_RANK_DEFAULT_A
        if cfg.algorithm is Algorithm.TS1_S2:
            th = ts1_s2_select_params(sigma, self.rank)
        else:
            th = ts1_s1_select_lambda(sigma, self.rank, cfg.mu, self.a)
        return threshold_spectrum(sigma, th), th


def ts1_it_step(x: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """One basic iteration: TS1 prox of the gradient step at fixed (lam, a)."""
    return fixed_point_step(x, ctx.op, ctx.b, ctx.mu,
                            _ts1_threshold(ctx.a, ctx.lam * ctx.mu))[0]


def resolve_a(config: SolverConfig, problem: MaskedMatrix) -> float:
    """Shape parameter for ts1-s1/ts1-it, applying the policy when unset."""
    if config.a is not None:
        return config.a
    if isinstance(config.rank, RankEstimate):
        d = problem.descriptors
        return 1000.0 if d is not None and d.fr < 0.6 else 10.0
    return KNOWN_RANK_DEFAULT_A


def _validate(problem: MaskedMatrix, config: SolverConfig) -> None:
    """The checks that need the problem; ``SolverConfig`` makes the rest."""
    if not np.all(np.isfinite(problem.values)):
        raise ValueError("observed values must be finite")
    top = min(problem.shape) - 1
    if config.algorithm in (Algorithm.TS1_S1, Algorithm.TS1_S2):
        if isinstance(config.rank, KnownRank) and not 1 <= config.rank.r <= top:
            raise ValueError(f"known rank {config.rank.r} out of range")
        if isinstance(config.rank, RankEstimate) and config.rank.k > top:
            raise ValueError(f"rank estimate needs 1 <= r_min < K <= {top}")


def solve(problem: MaskedMatrix, config: SolverConfig) -> SolveReport:
    """Run the configured scheme from the observed-entry fill matrix.

    Stops when ||X_{n+1} - X_n||_F / max(||X_n||_F, 1) <= tol or after
    ``max_iters`` iterations.  One SVD of the gradient-step matrix (its
    top rank + 1 triplets for ts1-s1/ts1-s2) is computed per iteration and
    shared by the parameter selection, the eigengap estimator and the
    thresholding itself.
    """
    _validate(problem, config)
    alg = config.algorithm
    if alg is Algorithm.TS1_IT:
        select = _ts1_threshold(resolve_a(config, problem), config.lam * config.mu)
    elif alg is Algorithm.NUCLEAR:
        select = _soft_threshold(config.lam * config.mu)
    else:
        select = _AdaptiveThreshold(config, problem)
    adaptive = isinstance(select, _AdaptiveThreshold)
    x = problem.observed_fill()

    history: list[IterationRecord] = []
    converged = False
    for _ in range(config.max_iters):
        x_next, (g, th) = fixed_point_step(
            x, problem.op, problem.values, config.mu, select)
        residual = float(np.linalg.norm(x_next - x)
                         / max(np.linalg.norm(x), 1.0))
        history.append(IterationRecord(
            residual=residual, lambda_mu=th.lambda_mu, a=th.a, t=th.t,
            rank=select.rank if adaptive else int(np.count_nonzero(g))))
        x = x_next
        if residual <= config.tol:
            converged = True
            break

    return SolveReport(x_opt=x, converged=converged, history=history,
                       rank_estimate=(select.rank if adaptive and select.estimating
                                      else None),
                       rank_adjusted=adaptive and select.adjusted,
                       tau=select.tau if adaptive else 0.0)
