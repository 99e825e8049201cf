"""Transformed Schatten-1 penalty on matrices and its SVD thresholding map.

The penalty of a matrix is the scalar TL1 penalty summed over its singular
values.  Its proximal operator factors through the SVD: threshold each
singular value with the scalar operator and reassemble.  Partial traces and
Ky Fan norms are provided because the trace inequality tr_k(X) <= ||X||_Fk
is what makes the spectral reduction exact, and tests exercise it directly.
``compute_svd`` returns economy factors ``(u, sigma, vt)`` with sigma
nonincreasing, so a thresholded reconstruction is ``(u * g) @ vt``.  Asked
for ``k`` triplets it returns only the top k, from PROPACK's Lanczos
bidiagonalization (scipy's ``svds``) when k < min(m, n); each of its
callbacks is one gemv, on the matrix or on its transpose view.  The full
SVD comes from LAPACK's gesdd, or from gesvd when gesdd fails to converge.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg import svd as _svd
from scipy.sparse.linalg import LinearOperator, svds

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

# Seed of PROPACK's Lanczos start vector; a fixed start makes every
# truncated SVD, and so every solve, repeat bit for bit.
PROPACK_SEED = 0


class _DenseOperator(LinearOperator):
    """A dense matrix as PROPACK's Lanczos callbacks read it.

    Each product is one gemv on ``a`` or on its ``.T.conj()`` view: the
    arithmetic of scipy's ``MatrixLinearOperator``, without the chain of
    generic shape and type checks it runs on every call.
    """

    def __init__(self, a: np.ndarray):
        super().__init__(a.dtype, a.shape)
        self._a, self._ah = a, a.T.conj()

    def _matvec(self, x):
        return self._a.dot(x.reshape(-1, 1)).reshape(-1)

    def _rmatvec(self, x):
        return self._ah.dot(x.reshape(-1, 1)).reshape(-1)

    matvec, rmatvec = _matvec, _rmatvec


def compute_svd(x: np.ndarray, k: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``(u, sigma, vt)`` with sigma nonincreasing: the top ``k``
    triplets, or the economy SVD when ``k`` is unset or >= min(m, n).

    PROPACK gives up when its Lanczos budget (10 k steps) runs out before
    the k-th triplet converges, as on a flat noise tail; the top k then
    come from the full SVD.  That is gesdd's, or when gesdd does not
    converge, the slower but more robust gesvd's.  Non-finite input raises
    ``ValueError`` on either path.
    """
    x = np.asarray(x, dtype=float)
    if k is not None and k < min(x.shape):
        op = _DenseOperator(np.asarray_chkfinite(x))
        try:
            u, sigma, vt = svds(op, k, solver="propack",
                                rng=np.random.default_rng(PROPACK_SEED))
        except LinAlgError:
            pass
        else:
            order = np.argsort(-sigma, kind="stable")
            return u[:, order], sigma[order], vt[order]
    try:
        u, sigma, vt = _svd(x, full_matrices=False, lapack_driver="gesdd")
    except LinAlgError:
        u, sigma, vt = _svd(x, full_matrices=False, lapack_driver="gesvd")
    return u[:, :k], sigma[:k], vt[:k]


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
