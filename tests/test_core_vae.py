"""Tests for the CircuitVAE model (repro.core.vae)."""

import numpy as np
import pytest

from repro import nn
from repro.core.vae import CircuitVAEModel, VAEConfig
from repro.prefix import PrefixGraph, sklansky
from repro.prefix.legalize import legalize


@pytest.fixture(scope="module")
def model():
    return CircuitVAEModel(VAEConfig(n=8, latent_dim=6, base_channels=4, hidden_dim=32), np.random.default_rng(0))


def grids(n, count=3):
    return np.stack([sklansky(n).grid.astype(float)] * count)


class TestShapes:
    def test_encode_shapes(self, model):
        mu, logvar = model.encode(grids(8))
        assert mu.shape == (3, 6) and logvar.shape == (3, 6)

    def test_decode_shapes(self, model):
        logits = model.decode(nn.Tensor(np.zeros((5, 6))))
        assert logits.shape == (5, 8, 8)

    def test_forward_shapes(self, model):
        rng = np.random.default_rng(1)
        logits, mu, logvar, z, cost = model(grids(8), rng)
        assert logits.shape == (3, 8, 8)
        assert z.shape == (3, 6)
        assert cost.shape == (3,)

    def test_nonmultiple_of_four_width(self):
        """Gray tasks use widths like 13/26/31; padding must handle them."""
        m = CircuitVAEModel(VAEConfig(n=13, latent_dim=4, base_channels=4, hidden_dim=16), np.random.default_rng(2))
        mu, _ = m.encode(grids(13, 2))
        assert mu.shape == (2, 4)
        logits = m.decode(mu)
        assert logits.shape == (2, 13, 13)


class TestReparameterization:
    def test_zero_variance_is_deterministic(self, model):
        mu = nn.Tensor(np.ones((4, 6)))
        logvar = nn.Tensor(np.full((4, 6), -40.0))
        z = model.reparameterize(mu, logvar, np.random.default_rng(3))
        np.testing.assert_allclose(z.numpy(), 1.0, atol=1e-8)

    def test_samples_have_requested_moments(self, model):
        mu = nn.Tensor(np.zeros((4000, 6)))
        logvar = nn.Tensor(np.zeros((4000, 6)))
        z = model.reparameterize(mu, logvar, np.random.default_rng(4)).numpy()
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05

    def test_gradient_flows_through_mu(self, model):
        mu = nn.Tensor(np.zeros((2, 6)), requires_grad=True)
        logvar = nn.Tensor(np.zeros((2, 6)))
        z = model.reparameterize(mu, logvar, np.random.default_rng(5))
        z.sum().backward()
        np.testing.assert_allclose(mu.grad, 1.0)


class TestDesignSampling:
    def test_designs_are_legal(self, model):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((4, 6))
        designs = model.sample_designs(z, rng)
        assert len(designs) == 4
        assert all(d.is_legal() for d in designs)
        assert all(d.n == 8 for d in designs)

    def test_deterministic_threshold_mode(self, model):
        z = np.random.default_rng(7).standard_normal((2, 6))
        a = model.sample_designs(z)
        b = model.sample_designs(z)
        assert a == b

    @pytest.mark.parametrize("sampled", [True, False], ids=["rng", "threshold"])
    def test_batched_legalization_matches_per_design_loop(self, model, sampled):
        """One ``legalize_grids`` call per decoded batch gives exactly the
        designs of legalizing each raw grid on its own."""
        z = np.random.default_rng(8).standard_normal((16, 6))
        with nn.no_grad():
            probs = 1.0 / (1.0 + np.exp(-model.decode(nn.Tensor(z)).data))
        if sampled:
            raw = np.random.default_rng(9).random(probs.shape) < probs
        else:
            raw = probs > 0.5
        expected = [legalize(grid) for grid in raw]
        designs = model.sample_designs(z, np.random.default_rng(9) if sampled else None)
        assert [d.grid.tolist() for d in designs] == [e.grid.tolist() for e in expected]
        # legalization had work to do: it inserted missing parents
        assert any(
            not PrefixGraph(r, validate=False).is_legal() for r in raw
        )


class TestCostHead:
    def test_normalizer_roundtrip(self, model):
        model.set_cost_normalizer(10.0, 2.0)
        standardized = model.standardize_costs(np.array([14.0]))
        np.testing.assert_allclose(standardized, [2.0])
        z = nn.Tensor(np.zeros((3, 6)))
        raw = model.predict_cost_raw(z)
        with nn.no_grad():
            std_pred = model.predict_cost(z).numpy()
        np.testing.assert_allclose(raw, std_pred * 2.0 + 10.0)
        model.set_cost_normalizer(0.0, 1.0)

    def test_degenerate_std_guard(self, model):
        model.set_cost_normalizer(5.0, 0.0)
        assert model.cost_std == 1.0
        model.set_cost_normalizer(0.0, 1.0)

    def test_gradient_wrt_latent_exists(self, model):
        z = nn.Tensor(np.zeros((1, 6)), requires_grad=True)
        model.predict_cost(z).sum().backward()
        assert z.grad is not None
        assert z.grad.shape == (1, 6)


class TestPersistence:
    def test_state_dict_roundtrip(self, model, tmp_path):
        clone = CircuitVAEModel(model.config, np.random.default_rng(99))
        path = str(tmp_path / "vae.npz")
        nn.save_state(model.state_dict(), path)
        clone.load_state_dict(nn.load_state(path))
        x = grids(8, 2)
        a_mu, _ = model.encode(x)
        b_mu, _ = clone.encode(x)
        np.testing.assert_allclose(a_mu.numpy(), b_mu.numpy())
