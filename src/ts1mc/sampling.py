"""Entry-sampling measurement operator, gradient-step map and objectives.

The measurement operator reads a fixed set of matrix entries; its adjoint
scatters a vector back onto those entries.  The observed set is stored
once, as a flat index ``i * n + j`` into the C-ordered m x n matrix, so
each gather and scatter indexes a 1-D view; ``np.unravel_index(flat,
shape)`` recovers the 2-D index.  Since each measurement reads one
distinct entry, the operator norm is exactly 1, so any step size mu in
(0, 1) keeps the surrogate objective a majorizer of mu times the
penalized objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import singular_values, ts1_penalty

__all__ = [
    "SamplingOperator",
    "ObjectiveContext",
    "gradient_step",
    "check_penalty",
]


@dataclass(frozen=True)
class SamplingOperator:
    """Reads entries ``flat[k]`` of an m x n matrix's C-order ravel, in order.

    ``flat`` must be 1-D, nonempty and of an integer dtype, lie in [0, m n)
    and hold no duplicates.  The operator keeps a read-only copy of it.
    """

    shape: tuple[int, int]
    flat: np.ndarray

    def __post_init__(self):
        flat = np.asarray(self.flat)
        m, n = self.shape
        if flat.ndim != 1:
            raise ValueError(f"flat index must be 1-D, got shape {flat.shape}")
        if flat.size == 0:
            raise ValueError("sampling operator needs at least one observation")
        if not np.issubdtype(flat.dtype, np.integer):
            raise ValueError(f"flat index must hold integers, got {flat.dtype}")
        flat = flat.astype(np.intp)
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)
        ordered = np.sort(flat)
        if ordered[0] < 0 or ordered[-1] >= m * n:
            raise ValueError(f"observation indices out of bounds [0, {m * n})")
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate observation indices")

    @property
    def p(self) -> int:
        """Number of observed entries."""
        return int(self.flat.size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Observed entries of ``x`` in operator order."""
        x = np.asarray(x)
        if x.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {x.shape}")
        return x.reshape(-1)[self.flat]

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Matrix with ``v`` scattered onto the observed entries."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ValueError(f"expected vector of length {self.p}, got {v.shape}")
        out = np.zeros(self.shape)
        out.reshape(-1)[self.flat] = v
        return out


def gradient_step(z: np.ndarray, op: SamplingOperator, b: np.ndarray,
                  mu: float) -> np.ndarray:
    """Gradient step Z + mu A*(b - A(Z)) toward data consistency.

    Unobserved entries pass through unchanged; an observed entry becomes
    (1 - mu) Z_ij + mu b_ij.
    """
    out = np.array(z, dtype=float, order="C")
    view = out.reshape(-1)
    obs = view[op.flat]
    view[op.flat] = obs + mu * (b - obs)
    return out


def check_penalty(lam: float | None, a: float | None) -> None:
    """Require 0 <= lam < inf and 0 < a < inf; None means chosen later."""
    if ((lam is not None and not 0.0 <= lam < math.inf)
            or (a is not None and not 0.0 < a < math.inf)):
        raise ValueError("lam must be nonnegative and a positive, both finite, "
                         f"got lam={lam}, a={a}")


@dataclass(frozen=True)
class ObjectiveContext:
    """Measurement operator, data and penalty parameters for one problem.

    Accepts mu in (0, 1]; the closure point mu = 1 is the exact data
    fill.  Surrogate domination holds strictly only for mu < 1, which the
    solvers enforce.
    """

    op: SamplingOperator
    b: np.ndarray
    lam: float
    mu: float
    a: float

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.shape != (self.op.p,):
            raise ValueError("data vector length does not match the operator")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        check_penalty(self.lam, self.a)

    def b_mu_step(self, z: np.ndarray) -> np.ndarray:
        """Gradient step toward data consistency (see ``gradient_step``)."""
        return gradient_step(z, self.op, self.b, self.mu)

    def c_lambda(self, x: np.ndarray) -> float:
        """Penalized objective (1/2)||A(X) - b||^2 + lam * T(X)."""
        resid = self.op.apply(x) - self.b
        return float(0.5 * np.dot(resid, resid)
                     + self.lam * ts1_penalty(singular_values(x), self.a))

    def c_lambda_mu(self, x: np.ndarray, z: np.ndarray) -> float:
        """Surrogate mu {C_lam(X) - (1/2)||A(X) - A(Z)||^2} + (1/2)||X - Z||_F^2.

        Coincides with mu * C_lam(X) at X = Z and dominates it whenever
        mu < 1.
        """
        dx = self.op.apply(x) - self.op.apply(z)
        return float(self.mu * (self.c_lambda(x) - 0.5 * np.dot(dx, dx))
                     + 0.5 * np.sum((np.asarray(x) - np.asarray(z)) ** 2))
