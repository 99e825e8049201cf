"""Entry-sampling measurement operator, gradient-step map and objectives.

The measurement operator reads a fixed set of matrix entries; its adjoint
scatters a vector back onto those entries.  Observed entries are addressed
by one flat index ``rows * n + cols`` into the C-ordered matrix, so each
gather and scatter indexes a 1-D view.  Since each measurement reads
one distinct entry, the operator norm is exactly 1, so any step size
mu in (0, 1) keeps the surrogate objective a majorizer of mu times the
penalized objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Reads entries (rows[k], cols[k]) of an m x n matrix, in order.

    ``flat`` holds the same entries as indices into the matrix's C-order
    ravel; it is derived from ``rows`` and ``cols``.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        m, n = self.shape
        if rows.size == 0:
            raise ValueError("sampling operator needs at least one observation")
        if rows.size != cols.size:
            raise ValueError("rows and cols must have equal length")
        if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
            raise ValueError("observation indices out of bounds")
        flat = rows * n + cols
        if np.unique(flat).size != flat.size:
            raise ValueError("duplicate observation indices")
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_flat(cls, shape: tuple[int, int], flat_indices) -> "SamplingOperator":
        rows, cols = np.unravel_index(np.asarray(flat_indices, dtype=np.intp), shape)
        return cls(shape=shape, rows=rows, cols=cols)

    @property
    def p(self) -> int:
        """Number of observed entries."""
        return int(self.rows.size)

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
    """Require lam >= 0 and a > 0; None marks a value chosen later."""
    if (lam is not None and not lam >= 0.0) or (a is not None and not a > 0.0):
        raise ValueError(f"lam must be nonnegative and a positive, got {lam}, {a}")


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
