"""Tests for loss functions (repro.nn.losses, repro.nn.functional)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import losses


class TestBCEWithLogits:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 5))
        targets = (rng.random((4, 5)) > 0.5).astype(float)
        out = F.binary_cross_entropy_with_logits(
            nn.Tensor(logits), nn.Tensor(targets)
        ).numpy()
        p = 1 / (1 + np.exp(-logits))
        ref = -(targets * np.log(p) + (1 - targets) * np.log(1 - p))
        np.testing.assert_allclose(out, ref, rtol=1e-10)

    def test_stable_at_extreme_logits(self):
        logits = nn.Tensor(np.array([1000.0, -1000.0]))
        targets = nn.Tensor(np.array([1.0, 0.0]))
        out = F.binary_cross_entropy_with_logits(logits, targets).numpy()
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


class TestGaussianKL:
    def test_zero_at_standard_normal(self):
        mu = nn.Tensor(np.zeros((3, 8)))
        logvar = nn.Tensor(np.zeros((3, 8)))
        np.testing.assert_allclose(F.gaussian_kl(mu, logvar).numpy(), 0.0)

    def test_positive_elsewhere(self):
        mu = nn.Tensor(np.ones((2, 4)))
        logvar = nn.Tensor(np.full((2, 4), -1.0))
        assert (F.gaussian_kl(mu, logvar).numpy() > 0).all()

    def test_closed_form_value(self):
        # KL(N(1, e^0) || N(0,1)) per dim = 0.5 * (1 + 1 - 0 - 1) = 0.5
        mu = nn.Tensor(np.ones((1, 4)))
        logvar = nn.Tensor(np.zeros((1, 4)))
        assert F.gaussian_kl(mu, logvar).item() == pytest.approx(2.0)


class TestWeightedLosses:
    def test_reconstruction_loss_sums_cells(self):
        logits = nn.Tensor(np.zeros((2, 3, 3)))
        target = nn.Tensor(np.ones((2, 3, 3)))
        # 9 cells * log(2) per sample
        out = losses.reconstruction_loss(logits, target)
        assert out.item() == pytest.approx(9 * np.log(2.0))

    def test_cost_prediction_loss(self):
        pred = nn.Tensor(np.array([1.0, 2.0]))
        out = losses.cost_prediction_loss(pred, nn.Tensor(np.array([0.0, 0.0])))
        assert out.item() == pytest.approx((1.0 + 4.0) / 2)

    def test_mse_loss(self):
        a = nn.Tensor(np.array([1.0, 3.0]))
        b = nn.Tensor(np.array([0.0, 0.0]))
        assert F.mse_loss(a, b).item() == pytest.approx(5.0)
