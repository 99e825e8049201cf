"""Synthetic problem generation, difficulty descriptors and ground truth.

Random low-rank matrices are built as M_L @ M_R.T where the rows of each
factor are i.i.d. draws from N(0, Sigma) with the equicorrelation matrix
Sigma = (1 - cov) I + cov * 11^T; cov = 0 reduces to i.i.d. standard
normal entries.  Observation sets are sampled uniformly without
replacement, as a sorted flat index into the C-ordered matrix that
becomes the sampling operator.  Difficulty is summarized by the sampling
ratio SR = p/mn, the freedom ratio FR = r(m+n-r)/p and the largest
recoverable rank r_m (the largest r with FR <= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import compute_svd
from .sampling import SamplingOperator

__all__ = [
    "GroundTruth",
    "Descriptors",
    "MaskedMatrix",
    "gen_gaussian_lowrank",
    "sample_uniform",
    "max_recoverable_rank",
    "add_noise",
    "image_to_lowrank_truth",
    "synthetic_test_image",
    "make_descriptors",
    "fr_display",
]


@dataclass(frozen=True)
class GroundTruth:
    """Full matrix with its nominal rank."""

    matrix: np.ndarray
    rank: int


@dataclass(frozen=True)
class Descriptors:
    sr: float
    fr: float
    r_m: int


@dataclass(frozen=True)
class MaskedMatrix:
    """Observed entries of a matrix: the completion problem instance."""

    op: SamplingOperator
    values: np.ndarray
    descriptors: Descriptors | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape

    @property
    def p(self) -> int:
        return self.op.p

    def observed_fill(self) -> np.ndarray:
        """Dense matrix with observed values and zeros elsewhere."""
        return self.op.adjoint(self.values)


def gen_gaussian_lowrank(m: int, n: int, r: int, cov: float = 0.0,
                         seed: int = 0) -> GroundTruth:
    """Random rank-<=r matrix from correlated Gaussian factors.

    Both factors are drawn independently with rows ~ N(0, Sigma),
    Sigma = (1 - cov) I + cov * 11^T of size r x r, realized through its
    Cholesky factor.  Requires 0 <= cov < 1 so Sigma is positive definite.
    """
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank r={r} out of range for dims ({m}, {n})")
    if not 0.0 <= cov < 1.0:
        raise ValueError(f"cov must lie in [0, 1), got {cov}")
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky((1.0 - cov) * np.eye(r) + cov * np.ones((r, r)))
    ml = rng.standard_normal((m, r)) @ chol.T
    mr = rng.standard_normal((n, r)) @ chol.T
    return GroundTruth(matrix=ml @ mr.T, rank=r)


def sample_uniform(truth: GroundTruth, sr: float, seed: int = 0) -> MaskedMatrix:
    """Observe round(sr * m * n) distinct entries chosen uniformly."""
    if not 0.0 < sr <= 1.0:
        raise ValueError(f"sampling ratio must lie in (0, 1], got {sr}")
    m, n = truth.matrix.shape
    p = max(1, int(round(sr * m * n)))
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(m * n, size=p, replace=False))
    op = SamplingOperator((m, n), flat)
    return MaskedMatrix(op=op, values=op.apply(truth.matrix),
                        descriptors=make_descriptors(m, n, truth.rank, p))


def make_descriptors(m: int, n: int, r: int, p: int) -> Descriptors:
    return Descriptors(sr=p / (m * n), fr=r * (m + n - r) / p,
                       r_m=max_recoverable_rank(m, n, p))


def max_recoverable_rank(m: int, n: int, p: int) -> int:
    """Largest rank r with freedom ratio r(m+n-r)/p <= 1."""
    if p > m * n:
        raise ValueError("cannot observe more entries than the matrix has")
    if p <= 0:
        return 0
    return int(math.floor((m + n - math.sqrt((m + n) ** 2 - 4 * p)) / 2.0))


def fr_display(r: int, m: int, n: int, p: int) -> str:
    """Freedom ratio truncated (not rounded) to 4 decimals, exactly.

    Uses integer arithmetic so e.g. FR = 0.819 displays as 0.8190 rather
    than falling to 0.8189 through the binary representation.
    """
    q = (r * (m + n - r) * 10_000) // p
    return f"{q // 10_000}.{q % 10_000:04d}"


def add_noise(truth: GroundTruth, sigma_noise: float, seed: int = 0) -> GroundTruth:
    """Perturb M to M + sigma (||M||_F / ||eps||_F) eps with Gaussian eps.

    The relative Frobenius perturbation equals sigma_noise exactly.
    """
    if not (math.isfinite(sigma_noise) and sigma_noise >= 0):
        raise ValueError(
            f"noise level must be finite and nonnegative, got {sigma_noise}")
    if sigma_noise == 0.0:
        return truth
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(truth.matrix.shape)
    scale = sigma_noise * np.linalg.norm(truth.matrix) / np.linalg.norm(eps)
    return GroundTruth(matrix=truth.matrix + scale * eps, rank=truth.rank)


def image_to_lowrank_truth(pixels: np.ndarray, target_rank: int) -> GroundTruth:
    """Best rank-``target_rank`` approximation of a grayscale image.

    Pixel values must lie in [0, 1], as ``read_pgm`` returns them.
    """
    pixels = np.asarray(pixels, dtype=float)
    if pixels.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    m, n = pixels.shape
    if not 1 <= target_rank <= min(m, n):
        raise ValueError(f"target rank {target_rank} out of range for {pixels.shape}")
    if not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
        raise ValueError("pixel values must lie in [0, 1]")
    u, sigma, vt = compute_svd(pixels)
    k = target_rank
    return GroundTruth(matrix=(u[:, :k] * sigma[:k]) @ vt[:k], rank=k)


def synthetic_test_image(m: int = 128, n: int = 128) -> np.ndarray:
    """Deterministic grayscale test pattern in [0, 1].

    Smooth trigonometric shading plus a rectangle and a disc, giving a
    spectrum that decays but is not exactly low rank; used by the image
    pipeline when no photograph is supplied.
    """
    i = np.linspace(0.0, 1.0, m)[:, None]
    j = np.linspace(0.0, 1.0, n)[None, :]
    img = (0.35
           + 0.30 * np.sin(2.2 * np.pi * i) * np.cos(1.7 * np.pi * j)
           + 0.20 * i * j
           + 0.15 * np.cos(3.0 * np.pi * i) * np.ones((1, n)))
    img = img + 0.18 * ((i > 0.6) & (j < 0.4))
    img = img + 0.12 * (((i - 0.3) ** 2 + (j - 0.7) ** 2) < 0.04)
    return np.clip(img, 0.0, 1.0)
