"""Recovery quality: relative error, MSE and PSNR at peak 1, from evaluate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUCCESS_REL_ERR",
    "RecoveryMetrics",
    "evaluate",
]

# A trial counts as a successful recovery below this relative error.
SUCCESS_REL_ERR = 5e-3


@dataclass(frozen=True)
class RecoveryMetrics:
    rel_err: float
    mse: float
    psnr: float
    success: bool


def evaluate(x_opt: np.ndarray, m_truth: np.ndarray) -> RecoveryMetrics:
    """Every measure of a recovery X of M: ||X - M||_F / ||M||_F, the mean
    squared entrywise error, and PSNR = 10 log10(1 / mse), +inf when exact
    and -inf when the squared error overflows.  A zero M has no relative
    error and raises ``ValueError``, as do mismatched shapes."""
    x_opt = np.asarray(x_opt, dtype=float)
    m_truth = np.asarray(m_truth, dtype=float)
    if x_opt.shape != m_truth.shape:
        raise ValueError(f"shape mismatch: {x_opt.shape} vs {m_truth.shape}")
    denom = np.linalg.norm(m_truth)
    if denom == 0.0:
        raise ValueError("reference matrix is zero; relative error undefined")
    diff = x_opt - m_truth
    rel = float(np.linalg.norm(diff) / denom)
    err = float(np.mean(diff ** 2))
    if err == 0.0:
        psnr = math.inf
    elif err == math.inf:
        psnr = -math.inf
    else:
        psnr = float(10.0 * math.log10(1.0 / err))
    return RecoveryMetrics(rel_err=rel, mse=err, psnr=psnr,
                           success=rel < SUCCESS_REL_ERR)
