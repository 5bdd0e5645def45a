"""Tests for Module/layers (repro.nn.layers) and serialization."""

import numpy as np
import pytest

from repro import nn


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestModuleDiscovery:
    def test_named_parameters_nested(self, rng):
        mlp = nn.MLP([4, 8, 2], rng)
        names = [name for name, _ in mlp.named_parameters()]
        assert "net.layers.0.weight" in names
        assert "net.layers.0.bias" in names
        assert "net.layers.2.weight" in names
        assert len(names) == 4

    def test_num_parameters(self, rng):
        layer = nn.Linear(10, 5, rng)
        assert layer.num_parameters() == 10 * 5 + 5

    def test_zero_grad_clears_all(self, rng):
        mlp = nn.MLP([3, 4, 1], rng)
        out = mlp(nn.Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert all(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_train_eval_propagates(self, rng):
        seq = nn.Sequential(nn.Linear(2, 2, rng), nn.ReLU())
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())


class TestStateDict:
    def test_roundtrip(self, rng):
        a = nn.MLP([4, 8, 2], rng)
        b = nn.MLP([4, 8, 2], np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = np.ones((3, 4))
        np.testing.assert_allclose(a(nn.Tensor(x)).numpy(), b(nn.Tensor(x)).numpy())

    def test_mismatch_keys_raises(self, rng):
        a = nn.Linear(2, 3, rng)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((3, 2))})

    def test_mismatch_shape_raises(self, rng):
        a = nn.Linear(2, 3, rng)
        state = a.state_dict()
        state["weight"] = np.zeros((4, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_save_load_file(self, rng, tmp_path):
        a = nn.MLP([3, 5, 1], rng)
        path = str(tmp_path / "model.npz")
        nn.save_state(a.state_dict(), path)
        b = nn.MLP([3, 5, 1], np.random.default_rng(1))
        b.load_state_dict(nn.load_state(path))
        x = np.ones((2, 3))
        np.testing.assert_allclose(a(nn.Tensor(x)).numpy(), b(nn.Tensor(x)).numpy())


class TestLayers:
    def test_linear_shapes(self, rng):
        layer = nn.Linear(6, 4, rng)
        out = layer(nn.Tensor(np.zeros((5, 6))))
        assert out.shape == (5, 4)

    def test_linear_no_bias(self, rng):
        layer = nn.Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1

    def test_conv_layers_shapes(self, rng):
        conv = nn.Conv2d(1, 4, 3, rng, stride=2, padding=1)
        out = conv(nn.Tensor(np.zeros((2, 1, 8, 8))))
        assert out.shape == (2, 4, 4, 4)
        deconv = nn.ConvTranspose2d(4, 1, 4, rng, stride=2, padding=1)
        back = deconv(out)
        assert back.shape == (2, 1, 8, 8)

    def test_sequential_indexing(self, rng):
        seq = nn.Sequential(nn.Linear(2, 3, rng), nn.ReLU())
        assert isinstance(seq[1], nn.ReLU)
        assert len(seq) == 2

    def test_mlp_validation(self, rng):
        with pytest.raises(ValueError):
            nn.MLP([5], rng)

    def test_mlp_output_activation(self, rng):
        mlp = nn.MLP([2, 4, 1], rng, output_activation=nn.ReLU())
        assert isinstance(mlp.net[-1], nn.ReLU)
        out = mlp(nn.Tensor(rng.standard_normal((16, 2)))).numpy()
        assert np.all(out >= 0)

    def test_activation_modules(self):
        x = nn.Tensor(np.array([-1.0, 2.0]))
        assert nn.ReLU()(x).numpy().tolist() == [0.0, 2.0]
