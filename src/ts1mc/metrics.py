"""Recovery quality: relative error, MSE and evaluate's PSNR at peak 1."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUCCESS_REL_ERR",
    "RecoveryMetrics",
    "relative_error",
    "mse",
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


def relative_error(x_opt: np.ndarray, m_truth: np.ndarray) -> float:
    """||X - M||_F / ||M||_F."""
    x_opt = np.asarray(x_opt, dtype=float)
    m_truth = np.asarray(m_truth, dtype=float)
    if x_opt.shape != m_truth.shape:
        raise ValueError(f"shape mismatch: {x_opt.shape} vs {m_truth.shape}")
    denom = np.linalg.norm(m_truth)
    if denom == 0.0:
        raise ValueError("reference matrix is zero; relative error undefined")
    return float(np.linalg.norm(x_opt - m_truth) / denom)


def mse(x_opt: np.ndarray, m_truth: np.ndarray) -> float:
    """Mean squared entrywise error."""
    x_opt = np.asarray(x_opt, dtype=float)
    m_truth = np.asarray(m_truth, dtype=float)
    if x_opt.shape != m_truth.shape:
        raise ValueError(f"shape mismatch: {x_opt.shape} vs {m_truth.shape}")
    return float(np.mean((x_opt - m_truth) ** 2))


def evaluate(x_opt: np.ndarray, m_truth: np.ndarray) -> RecoveryMetrics:
    """All measures at once; PSNR is 10 log10(1 / mse), +inf when exact and
    -inf when the squared error overflows."""
    rel = relative_error(x_opt, m_truth)
    err = mse(x_opt, m_truth)
    if err == 0.0:
        psnr = math.inf
    elif err == math.inf:
        psnr = -math.inf
    else:
        psnr = float(10.0 * math.log10(1.0 / err))
    return RecoveryMetrics(rel_err=rel, mse=err, psnr=psnr,
                           success=rel < SUCCESS_REL_ERR)
