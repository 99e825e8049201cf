"""Transformed Schatten-1 penalty on matrices and its SVD thresholding map.

The penalty of a matrix is the scalar TL1 penalty summed over its singular
values.  Its proximal operator factors through the SVD: threshold each
singular value with the scalar operator and reassemble.  Partial traces and
Ky Fan norms are provided because the trace inequality tr_k(X) <= ||X||_Fk
is what makes the spectral reduction exact, and tests exercise it directly.
``compute_svd`` returns economy factors ``(u, sigma, vt)`` with sigma
nonincreasing, so a thresholded reconstruction is ``(u * g) @ vt``.  Asked
for ``k`` triplets it returns only the top k, from PROPACK's Lanczos
bidiagonalization when k < min(m, n): one call of its ``dlansvd``, with the
arguments scipy's ``svds(x, k, solver="propack")`` passes it, whose every
callback is one gemv into PROPACK's own buffer.  The full SVD comes from
LAPACK's gesdd, or from gesvd when gesdd fails to converge.

Both routines are read from scipy's compiled f2py modules, loaded straight
from their files: importing ``scipy.linalg`` or ``scipy.sparse.linalg``
would run their Python packages, whose array-API layer alone costs about
0.2 s in every process.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .scalar import Threshold, h_lambda, make_threshold_params, rho_a

__all__ = [
    "compute_svd",
    "singular_values",
    "ts1_penalty",
    "threshold_spectrum",
    "ts1_prox_matrix",
    "partial_trace",
    "ky_fan_norm",
]


def _compiled(name: str):
    """scipy's compiled module ``scipy.<name>``, loaded from its file without
    importing the packages around it.  Loading enters ``_flapack``, but not
    ``scipy.linalg`` or ``_propack``, in ``sys.modules``."""
    base = Path(scipy.__file__).parent.joinpath(*name.split("."))
    for suffix in EXTENSION_SUFFIXES:
        path = base.with_name(base.name + suffix)
        if path.is_file():
            spec = spec_from_file_location(f"scipy.{name}", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"ts1mc needs scipy >= 1.17: no compiled scipy.{name} "
                      f"in {base.parent}")


_flapack = _compiled("linalg._flapack")
_dlansvd = _compiled("sparse.linalg._propack").dlansvd


# Seed of PROPACK's Lanczos start vector; a fixed start makes every
# truncated SVD, and so every solve, repeat bit for bit.
PROPACK_SEED = 0


# PROPACK's options as scipy's ``svds`` sets them: the orthogonality level
# sqrt(eps), the purge cutoff eps^0.75 and ||A|| = 0 ("estimate it").  Its
# block size for the LAPACK calls it makes is 32.
_EPS = np.finfo(float).eps
_DOPTION = (np.sqrt(_EPS), _EPS ** 0.75, 0.0)
_NB = 32


@lru_cache(maxsize=16)
def _propack_start(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lanczos start vector and the seed of PROPACK's own generator for an
    m-row matrix, drawn from ``default_rng(PROPACK_SEED)`` as ``svds``
    draws them.  Read-only: PROPACK gets copies."""
    rng = np.random.default_rng(PROPACK_SEED)
    start = rng.uniform(size=m)
    state = rng.integers(low=0, high=np.iinfo(np.int64).max, size=4,
                         dtype=np.uint64)
    start.flags.writeable = state.flags.writeable = False
    return start, state


def _lansvd(x: np.ndarray, k: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top ``k`` triplets of a finite ``x`` from PROPACK's ``dlansvd``, in
    the order it returns them; ``LinAlgError`` when they do not converge
    within its budget of ``min(m + 1, n + 1, 10 k)`` Lanczos steps.

    Every array it writes is fresh: it overwrites its state and its ||A||
    estimate in ``doption``, so a reused one would change the next call.
    """
    m, n = x.shape
    kmax = min(m + 1, n + 1, 10 * k)
    lwork = (m + n + 5 * kmax**2 + 9 * kmax + 4
             + max(3 * kmax**2 + 4 * kmax + 4, _NB * max(m, n)))
    start, state = _propack_start(m)
    u = np.zeros((m, kmax + 1), order="F")
    u[:, 0] = start
    v = np.zeros((n, kmax), order="F")
    sigma, bounds = np.zeros(k), np.zeros(k)
    xt = x.T

    def aprod(*args):
        # (transa, m, n, z, y): y <- x z, or x^T z when transa is set
        transa, _, _, z, y = args
        np.dot(xt if transa else x, z, out=y)

    info = _dlansvd(1, 1, m, n, k, kmax, 0.0, aprod, u, sigma, bounds, v,
                    np.empty(lwork), np.empty(8 * kmax, dtype=np.int32),
                    np.array(_DOPTION), np.array((0, 1), dtype=np.int32),
                    np.empty(1), np.empty(1, dtype=np.int32), state.copy())
    if info != 0:
        # > 0: an invariant subspace of that dimension; < 0: budget spent
        raise LinAlgError(f"PROPACK found no {k} singular triplets "
                          f"(info={info})")
    return u[:, :k], sigma, v[:, :k].T


def _svd(x: np.ndarray, compute_uv: bool = True):
    """``scipy.linalg.svd(x, full_matrices=False, compute_uv=compute_uv)`` of
    a float64 ``x``: the same two LAPACK calls, the workspace query and the
    decomposition, with the same arguments.  When gesdd does not converge
    the slower but more robust gesvd makes them again; ``LinAlgError`` only
    when both fail."""
    x = np.asarray_chkfinite(x)
    for routine in ("gesdd", "gesvd"):
        lwork, _ = getattr(_flapack, f"d{routine}_lwork")(
            *x.shape, compute_uv=compute_uv, full_matrices=0)
        u, sigma, vt, info = getattr(_flapack, f"d{routine}")(
            x, compute_uv=compute_uv, lwork=int(lwork), full_matrices=0,
            overwrite_a=0)
        if info <= 0:
            return (u, sigma, vt) if compute_uv else sigma
    raise LinAlgError("SVD did not converge (gesdd, gesvd)")


def compute_svd(x: np.ndarray, k: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``(u, sigma, vt)`` with sigma nonincreasing: the top ``k``
    triplets, or the economy SVD when ``k`` is unset or >= min(m, n).

    PROPACK gives up when its Lanczos budget (10 k steps) runs out before
    the k-th triplet converges, as on a flat noise tail; the top k then
    come from the full SVD.  Non-finite input and k < 1 raise
    ``ValueError``.
    """
    if k is not None and k < 1:
        raise ValueError(f"need k >= 1 singular triplets, got k={k}")
    x = np.asarray(x, dtype=float)
    if k is not None and k < min(x.shape):
        try:
            return _lansvd(np.asarray_chkfinite(x), k)
        except LinAlgError:
            pass
    u, sigma, vt = _svd(x)
    return u[:, :k], sigma[:k], vt[:k]


def singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values of ``x`` in nonincreasing order, from ``_svd``."""
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
    return float(np.sum(rho_a(sigma, a)))


def threshold_spectrum(sigma, th: Threshold):
    """The scalar prox of ``th`` on a nonnegative spectrum.

    Values strictly above ``th.t`` map to ``h_lambda``; the rest map to
    zero.  With ``th.keep_boundary`` values equal to ``th.t`` also map
    through ``h_lambda`` — at a super-critical threshold both branches
    minimize the prox objective, and iterative schemes whose threshold
    lands exactly on a singular value need the surviving selection.
    """
    sigma = np.asarray(sigma, dtype=float)
    keep = sigma >= th.t if th.keep_boundary else sigma > th.t
    out = np.zeros_like(sigma)
    if np.any(keep):
        out[keep] = h_lambda(sigma[keep], th.a, th.lambda_mu)
    return out


def ts1_prox_matrix(y: np.ndarray, a: float, lambda_mu: float) -> np.ndarray:
    """Global minimizer of (1/2)||X - Y||_F^2 + lambda_mu * T(X).

    Computes the SVD of ``y`` and thresholds its singular values with the
    scalar operator; the rank of the result is the number of singular
    values strictly above the active threshold.
    """
    th = make_threshold_params(a, lambda_mu)
    u, sigma, vt = compute_svd(y)
    return (u * threshold_spectrum(sigma, th)) @ vt


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
