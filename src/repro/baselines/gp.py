"""Gaussian-process regression for the Bayesian-optimization baseline.

A compact exact-GP implementation: RBF kernel with a median-heuristic
lengthscale (optionally refined by a small grid search over the marginal
likelihood), Cholesky-based posterior, and the closed-form expected
improvement acquisition.  Matches what latent-space BO pipelines
(Tripp et al.; Jin et al.) use as their surrogate.

numpy only: :meth:`GaussianProcess.fit` factors the kernel matrix with
``np.linalg.cholesky`` and forms the inverse factor ``L^-1`` once by
blocked forward substitution (:func:`solve_lower`; numpy has no
triangular solve, and ``np.linalg.solve`` would LU-factor the triangle
with pivoting), so :meth:`~GaussianProcess.predict` is one GEMM.  The
normal CDF of :func:`expected_improvement` goes through ``math.erf``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "rbf_kernel",
    "median_lengthscale",
    "solve_lower",
    "GaussianProcess",
    "expected_improvement",
]


def rbf_kernel(a: np.ndarray, b: np.ndarray, lengthscale: float, variance: float) -> np.ndarray:
    """Squared-exponential kernel matrix between row sets ``a`` and ``b``."""
    sq = (
        np.sum(a ** 2, axis=1)[:, None]
        + np.sum(b ** 2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return variance * np.exp(-0.5 * np.maximum(sq, 0.0) / lengthscale ** 2)


def median_lengthscale(x: np.ndarray, rng: Optional[np.random.Generator] = None) -> float:
    """Median pairwise distance — the standard kernel-width heuristic."""
    if len(x) > 256 and rng is not None:
        x = x[rng.choice(len(x), size=256, replace=False)]
    diffs = x[:, None, :] - x[None, :, :]
    dists = np.sqrt((diffs ** 2).sum(-1))
    upper = dists[np.triu_indices(len(x), k=1)]
    med = float(np.median(upper)) if len(upper) else 1.0
    return med if med > 1e-9 else 1.0


#: :func:`solve_lower` substitutes blocks of at most this many rows row by row
_LEAF_ROWS = 32


def solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``l @ x == b`` for a lower-triangular ``l``.

    Recursive blocked forward substitution: the top half of the rows is
    solved first, its contribution leaves the bottom half's right-hand
    side in one GEMM, and blocks of at most ``_LEAF_ROWS`` rows
    substitute row by row.  ``b`` is a vector or a matrix of columns.
    """
    n = len(l)
    if n <= _LEAF_ROWS:
        x = np.empty(np.shape(b))
        for i in range(n):
            x[i] = (b[i] - l[i, :i] @ x[:i]) / l[i, i]
        return x
    half = n // 2
    top = solve_lower(l[:half, :half], b[:half])
    bottom = solve_lower(l[half:, half:], b[half:] - l[half:, :half] @ top)
    return np.concatenate([top, bottom])


class GaussianProcess:
    """Exact GP regression with an RBF kernel and fixed noise."""

    def __init__(self, lengthscale: float = 1.0, variance: float = 1.0, noise: float = 1e-2):
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.lengthscale = lengthscale
        self.variance = variance
        self.noise = noise
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        #: inverse of the kernel matrix's lower Cholesky factor
        self._chol_inv: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        self._y_mean = float(y.mean())
        std = float(y.std())
        self._y_std = std if std > 1e-9 else 1.0
        y_normalized = (y - self._y_mean) / self._y_std
        k = rbf_kernel(x, x, self.lengthscale, self.variance)
        k[np.diag_indices_from(k)] += self.noise
        chol_inv = solve_lower(np.linalg.cholesky(k), np.eye(len(k)))
        self._chol_inv = chol_inv
        self._alpha = chol_inv.T @ (chol_inv @ y_normalized)
        self._x = x
        return self

    def predict(self, x_star: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points."""
        if self._x is None:
            raise RuntimeError("fit() the GP first")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=np.float64))
        k_star = rbf_kernel(x_star, self._x, self.lengthscale, self.variance)
        mean = k_star @ self._alpha
        # k*^T K^-1 k* = |L^-1 k*|^2, one column per query point
        w = self._chol_inv @ k_star.T
        var = self.variance + self.noise - np.sum(w * w, axis=0)
        var = np.maximum(var, 1e-12)
        return mean * self._y_std + self._y_mean, np.sqrt(var) * self._y_std


_erf = np.frompyfunc(math.erf, 1, 1)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise."""
    return 0.5 * (1.0 + np.asarray(_erf(x / np.sqrt(2.0)), dtype=np.float64))


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """Closed-form EI for *minimization*: E[max(best - f - xi, 0)]."""
    std = np.maximum(std, 1e-12)
    improvement = best - mean - xi
    z = improvement / std
    return improvement * _norm_cdf(z) + std * _norm_pdf(z)
