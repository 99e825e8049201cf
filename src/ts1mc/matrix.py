"""Transformed Schatten-1 penalty on matrices and its SVD thresholding map.

The penalty of a matrix is the scalar TL1 penalty summed over its singular
values.  Its proximal operator factors through the SVD: threshold each
singular value with the scalar operator and reassemble.  Partial traces and
Ky Fan norms are provided because the trace inequality tr_k(X) <= ||X||_Fk
is what makes the spectral reduction exact, and tests exercise it directly.
``compute_svd`` returns LAPACK's economy factors ``(u, sigma, vt)`` as they
come, so a thresholded reconstruction is ``(u * g) @ vt``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import svd as _svd

from .scalar import h_lambda, make_threshold_params, rho_a

__all__ = [
    "compute_svd",
    "singular_values",
    "ts1_penalty",
    "threshold_spectrum",
    "ts1_prox_matrix",
    "shrinkage_identity",
    "partial_trace",
    "ky_fan_norm",
]

def compute_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``(u, sigma, vt)``; LAPACK's gesdd returns sigma nonincreasing."""
    return _svd(np.asarray(x, dtype=float), full_matrices=False,
                lapack_driver="gesdd")


def singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values of ``x`` in nonincreasing order (as gesdd returns them)."""
    return _svd(np.asarray(x, dtype=float), compute_uv=False)


def ts1_penalty(sigma, a: float) -> float:
    """Sum of rho_a over a vector of singular values.

    Parameters
    ----------
    sigma : array_like
        Nonnegative singular values (any order).
    a : float
        Positive shape parameter.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("singular values must be nonnegative")
    return float(np.sum(rho_a(sigma, a)))


def threshold_spectrum(sigma, a, lambda_mu, t, keep_boundary=False):
    """The scalar prox of ``Threshold(a, lambda_mu, t, keep_boundary)`` on
    a nonnegative spectrum; called as ``threshold_spectrum(sigma, *th)``.

    Values strictly above ``t`` map to ``h_lambda``; the rest map to zero.
    With ``keep_boundary`` values equal to ``t`` also map through
    ``h_lambda`` — at a super-critical threshold both branches minimize
    the prox objective, and iterative schemes whose threshold lands
    exactly on a singular value need the surviving selection.
    """
    sigma = np.asarray(sigma, dtype=float)
    keep = sigma >= t if keep_boundary else sigma > t
    out = np.zeros_like(sigma)
    if np.any(keep):
        out[keep] = h_lambda(sigma[keep], a, lambda_mu)
    return out


def ts1_prox_matrix(y: np.ndarray, a: float, lambda_mu: float) -> np.ndarray:
    """Global minimizer of (1/2)||X - Y||_F^2 + lambda_mu * T(X).

    Computes the SVD of ``y`` and thresholds its singular values with the
    scalar operator; the rank of the result is the number of singular
    values strictly above the active threshold.
    """
    th = make_threshold_params(a, lambda_mu)
    u, sigma, vt = compute_svd(y)
    return (u * threshold_spectrum(sigma, *th)) @ vt


def shrinkage_identity(m: int, n: int, k: int) -> np.ndarray:
    """m x n matrix with ones on the first k diagonal entries."""
    if not 1 <= k <= min(m, n):
        raise IndexError(f"k={k} out of range for dims ({m}, {n})")
    out = np.zeros((m, n))
    out[np.arange(k), np.arange(k)] = 1.0
    return out


def partial_trace(x: np.ndarray, k: int) -> float:
    """Sum of the first k diagonal entries of ``x``."""
    x = np.asarray(x)
    if not 1 <= k <= min(x.shape):
        raise IndexError(f"k={k} out of range for shape {x.shape}")
    return float(np.trace(x[:k, :k]))


def ky_fan_norm(sigma, k: int) -> float:
    """Sum of the k largest singular values."""
    sigma = np.asarray(sigma, dtype=float)
    if not 1 <= k <= sigma.size:
        raise IndexError(f"k={k} out of range for {sigma.size} singular values")
    return float(np.sum(np.sort(sigma)[::-1][:k]))
