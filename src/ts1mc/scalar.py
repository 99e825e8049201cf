"""Scalar TL1 penalty and its exact one-dimensional thresholding operator.

The penalty is the linear-to-linear rational function

    rho_a(x) = (a + 1) x / (a + x),   x >= 0, a > 0,

which interpolates between a sparsity count (a -> 0) and the absolute
value (a -> infinity).  The proximal map

    y* = argmin_y  (1/2)(y - x)^2 + lambda_mu * rho_a(|y|)

is available in closed form: it is zero below a threshold ``t`` and a
trigonometric expression ``h_lambda`` above it.  Which of two candidate
thresholds is active depends on whether ``lambda_mu`` is below or above
the critical value a^2 / (2(a+1)); the prox is continuous in the first
(sub-critical) regime and jumps in the second (super-critical) regime.

``Threshold`` records one such map; the solvers' per-step selectors return
it, and ``ts1_prox_scalar`` and ``matrix.threshold_spectrum`` apply it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "Threshold",
    "rho_a",
    "critical_lambda_mu",
    "make_threshold_params",
    "h_lambda",
    "ts1_prox_scalar",
]

# Tolerance for the arccos argument in h_lambda: rounding near |x| ~ t can
# push it marginally outside [-1, 1]; beyond this we treat it as a caller bug.
ARCCOS_CLAMP_TOL = 1e-9


class Threshold(NamedTuple):
    """Shape, penalty weight and active threshold of one TS1 prox.

    ``t1``, ``t2`` and ``t3`` are the candidate thresholds of (a, lambda_mu);
    they satisfy t1 <= t3 <= t2, with equality exactly at the critical
    lambda_mu.  The active ``t`` is t2 in the sub-critical regime and t3 in
    the super-critical one.  With ``keep_boundary`` an input of magnitude
    exactly ``t`` maps through ``h_lambda`` rather than to zero.
    """

    a: float
    lambda_mu: float
    t: float
    keep_boundary: bool = False

    @property
    def t1(self) -> float:
        return (3.0 / 2.0 ** (2.0 / 3.0)
                * (self.lambda_mu * self.a * (self.a + 1.0)) ** (1.0 / 3.0) - self.a)

    @property
    def t2(self) -> float:
        return self.lambda_mu * (self.a + 1.0) / self.a

    @property
    def t3(self) -> float:
        return math.sqrt(2.0 * self.lambda_mu * (self.a + 1.0)) - self.a / 2.0


def rho_a(x, a):
    """TL1 penalty (a+1)x / (a+x) for x >= 0.

    Parameters
    ----------
    x : float or ndarray
        Nonnegative argument(s).
    a : float
        Positive shape parameter.

    Returns
    -------
    float or ndarray
        Penalty value(s), monotone increasing in x, in [0, a+1).
    """
    if a <= 0:
        raise ValueError(f"shape parameter a must be positive, got {a}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("rho_a is defined for nonnegative arguments only")
    out = (a + 1.0) * x / (a + x)
    return float(out) if out.ndim == 0 else out


def critical_lambda_mu(a: float) -> float:
    """Critical penalty weight a^2 / (2(a+1)) separating the two regimes."""
    return a * a / (2.0 * (a + 1.0))


def make_threshold_params(a: float, lambda_mu: float) -> Threshold:
    """The TS1 prox of (a, lambda_mu): t = t2 = lambda_mu (a+1)/a when
    lambda_mu <= a^2/(2(a+1)), else t = t3 = sqrt(2 lambda_mu (a+1)) - a/2.
    """
    if a <= 0:
        raise ValueError(f"shape parameter a must be positive, got {a}")
    if lambda_mu <= 0:
        raise ValueError(f"penalty weight lambda_mu must be positive, got {lambda_mu}")
    th = Threshold(a, lambda_mu, 0.0)
    return th._replace(t=th.t2 if lambda_mu <= critical_lambda_mu(a) else th.t3)


def h_lambda(x, a, lambda_mu):
    """Above-threshold branch of the TL1 thresholding function.

    Evaluates sgn(x) { (2/3)(a+|x|) cos(phi/3) - 2a/3 + |x|/3 } with
    phi = arccos(1 - 27 lambda_mu a (a+1) / (2 (a+|x|)^3)).

    Only meaningful for |x| at or above the active threshold of
    (a, lambda_mu); there |h_lambda(x)| <= |x| and the sign matches x.
    Below the smallest candidate threshold t1 the arccos argument leaves
    [-1, 1] and a ValueError is raised.
    """
    if a <= 0:
        raise ValueError(f"shape parameter a must be positive, got {a}")
    if lambda_mu <= 0:
        raise ValueError(f"penalty weight lambda_mu must be positive, got {lambda_mu}")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    arg = 1.0 - 27.0 * lambda_mu * a * (a + 1.0) / (2.0 * (a + ax) ** 3)
    if np.any(arg < -1.0 - ARCCOS_CLAMP_TOL) or np.any(arg > 1.0 + ARCCOS_CLAMP_TOL):
        raise ValueError(
            "arccos argument outside [-1, 1]: |x| below the admissible threshold"
        )
    phi = np.arccos(np.clip(arg, -1.0, 1.0))
    mag = (2.0 / 3.0) * (a + ax) * np.cos(phi / 3.0) - 2.0 * a / 3.0 + ax / 3.0
    out = np.sign(x) * mag
    return float(out) if out.ndim == 0 else out


def ts1_prox_scalar(x, th: Threshold):
    """Exact minimizer of (1/2)(y-x)^2 + lambda_mu rho_a(|y|), entrywise.

    Zero for |x| < t and h_lambda(x) for |x| > t.  At |x| = t in the
    super-critical regime the minimizer is non-unique (0 and h_lambda(t)
    tie); ``th.keep_boundary`` picks h_lambda, otherwise zero is returned.
    """
    x = np.asarray(x, dtype=float)
    keep = np.abs(x) >= th.t if th.keep_boundary else np.abs(x) > th.t
    out = np.zeros_like(x)
    if np.any(keep):
        out[keep] = h_lambda(x[keep], th.a, th.lambda_mu)
    return float(out) if out.ndim == 0 else out
