"""Tests for the GP surrogate and EI acquisition (repro.baselines.gp)."""

import math

import numpy as np
import pytest

from repro.baselines.gp import (
    GaussianProcess,
    _norm_cdf,
    expected_improvement,
    median_lengthscale,
    rbf_kernel,
    solve_lower,
)


def _kernel_problem(n, seed=0, dim=8, noise=1e-2):
    """Training points and their noisy RBF kernel matrix, as BO fits it."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    k = rbf_kernel(x, x, median_lengthscale(x), 1.0)
    k[np.diag_indices_from(k)] += noise
    return rng, x, k


class TestKernel:
    def test_diagonal_is_variance(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        k = rbf_kernel(x, x, lengthscale=1.0, variance=2.0)
        np.testing.assert_allclose(np.diag(k), 2.0)

    def test_symmetric_psd(self):
        x = np.random.default_rng(1).standard_normal((10, 4))
        k = rbf_kernel(x, x, 1.5, 1.0)
        np.testing.assert_allclose(k, k.T)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-10

    def test_decays_with_distance(self):
        a = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[5.0, 0.0]])
        assert rbf_kernel(a, near, 1.0, 1.0)[0, 0] > rbf_kernel(a, far, 1.0, 1.0)[0, 0]


class TestMedianLengthscale:
    def test_positive(self):
        x = np.random.default_rng(2).standard_normal((30, 3))
        assert median_lengthscale(x) > 0

    def test_scales_with_data(self):
        x = np.random.default_rng(3).standard_normal((30, 3))
        assert median_lengthscale(10 * x) > 5 * median_lengthscale(x)


class TestSolveLower:
    """Blocked forward substitution against ``np.linalg.solve`` (LU) on
    Cholesky factors of noisy RBF kernel matrices.

    Tolerance: 1e-12 in the Frobenius norm, relative.  Both routes are
    backward stable, so they differ by about cond(L) * n * eps (at most
    ~7e-12 for cond(L) ~ 125 at n = 256); measured differences are
    below 2e-15.
    """

    @pytest.mark.parametrize("n", [1, 66, 256])
    def test_matches_lu_solve(self, n):
        rng, x, k = _kernel_problem(n)
        chol = np.linalg.cholesky(k)
        k_star = rbf_kernel(x, rng.standard_normal((512, x.shape[1])), 1.0, 1.0)
        for b in (k_star, np.eye(n), rng.standard_normal(n)):
            got = solve_lower(chol, b)
            want = np.linalg.solve(chol, b)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestNormCdf:
    def test_matches_erfc_reference_to_1e15(self):
        """Absolute error at most 1e-15 on [-40, 40], tails included
        (the reference 0.5 * erfc(-x / sqrt 2) has no cancellation)."""
        x = np.concatenate([np.linspace(-40.0, 40.0, 16001), [-8.3, -37.5, 8.3, 37.5]])
        want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
        got = _norm_cdf(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        assert got[0] == 0.0 and got[16000] == 1.0


class TestGP:
    def test_interpolates_training_data(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 2))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        gp = GaussianProcess(lengthscale=1.0, noise=1e-6).fit(x, y)
        mean, std = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.1)

    def test_uncertainty_grows_away_from_data(self):
        x = np.zeros((5, 2))
        y = np.zeros(5)
        gp = GaussianProcess(lengthscale=1.0).fit(x, y)
        _, std_near = gp.predict(np.array([[0.1, 0.0]]))
        _, std_far = gp.predict(np.array([[10.0, 0.0]]))
        assert std_far[0] > std_near[0]

    def test_posterior_matches_dense_solve(self):
        """The Cholesky route equals the textbook posterior through
        ``np.linalg.solve`` on the kernel matrix."""
        rng, x, k = _kernel_problem(66, seed=1)
        y = rng.standard_normal(66)
        candidates = rng.standard_normal((128, x.shape[1]))
        lengthscale = median_lengthscale(x)
        gp = GaussianProcess(lengthscale=lengthscale, noise=1e-2).fit(x, y)
        mean, std = gp.predict(candidates)
        k_star = rbf_kernel(candidates, x, lengthscale, 1.0)
        y_std = y.std()
        want_mean = k_star @ np.linalg.solve(k, (y - y.mean()) / y_std) * y_std + y.mean()
        want_var = 1.0 + 1e-2 - np.sum(k_star * np.linalg.solve(k, k_star.T).T, axis=1)
        np.testing.assert_allclose(mean, want_mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(std, np.sqrt(want_var) * y_std, rtol=1e-9)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_mismatched_xy_raises(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            GaussianProcess(noise=0.0)

    def test_generalizes_smooth_function(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, size=(60, 1))
        y = np.sin(2 * x[:, 0])
        gp = GaussianProcess(lengthscale=0.8, noise=1e-4).fit(x, y)
        x_test = np.linspace(-1.8, 1.8, 20)[:, None]
        mean, _ = gp.predict(x_test)
        np.testing.assert_allclose(mean, np.sin(2 * x_test[:, 0]), atol=0.1)


class TestEI:
    def test_zero_when_far_worse(self):
        ei = expected_improvement(np.array([100.0]), np.array([0.01]), best=0.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_predicted_better(self):
        ei = expected_improvement(np.array([-1.0]), np.array([0.1]), best=0.0)
        assert ei[0] > 0.9

    def test_uncertainty_increases_ei_at_same_mean(self):
        low = expected_improvement(np.array([0.5]), np.array([0.01]), best=0.0)
        high = expected_improvement(np.array([0.5]), np.array([2.0]), best=0.0)
        assert high[0] > low[0]
