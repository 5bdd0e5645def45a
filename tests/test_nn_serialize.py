"""Round-trip and atomicity tests for repro.nn.serialize."""

import os

import numpy as np
import pytest

from repro import nn
from repro.core.dataset import CircuitDataset
from repro.core.training import TrainConfig, train_model
from repro.core.vae import CircuitVAEModel, VAEConfig
from repro.prefix import random_graph


def trained_vae(tmp_seed=0):
    rng = np.random.default_rng(tmp_seed)
    ds = CircuitDataset()
    while len(ds) < 20:
        g = random_graph(8, rng, rng.random() * 0.6)
        ds.add(g, float(g.node_count()))
    model = CircuitVAEModel(
        VAEConfig(n=8, latent_dim=4, base_channels=4, hidden_dim=16),
        np.random.default_rng(1),
    )
    train_model(model, ds, np.random.default_rng(2), TrainConfig(epochs=2, batch_size=8))
    return model


class TestRoundTrip:
    def test_trained_vae_roundtrip_values_shapes_dtypes(self, tmp_path):
        model = trained_vae()
        path = str(tmp_path / "vae.npz")
        nn.save_state(model.state_dict(), path)
        clone = CircuitVAEModel(
            VAEConfig(n=8, latent_dim=4, base_channels=4, hidden_dim=16),
            np.random.default_rng(99),
        )
        clone.load_state_dict(nn.load_state(path))
        for (name_a, p_a), (name_b, p_b) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert name_a == name_b
            assert p_a.data.shape == p_b.data.shape
            assert p_a.data.dtype == p_b.data.dtype
            np.testing.assert_array_equal(p_a.data, p_b.data)

    def test_parameter_order_preserved(self, tmp_path):
        model = trained_vae()
        path = str(tmp_path / "vae.npz")
        nn.save_state(model.state_dict(), path)
        loaded = nn.load_state(path)
        assert list(loaded) == [name for name, _ in model.named_parameters()]

    def test_dtype_preserved_for_float32_state(self, tmp_path):
        path = str(tmp_path / "state.npz")
        state = {
            "a.weight": np.ones((2, 3), dtype=np.float32),
            "b.bias": np.zeros(4, dtype=np.float64),
        }
        nn.save_state(state, path)
        loaded = nn.load_state(path)
        assert loaded["a.weight"].dtype == np.float32
        assert loaded["b.bias"].dtype == np.float64

    def test_exact_path_no_suffix_magic(self, tmp_path):
        """save_state(path) writes exactly path, so load_state(path) works."""
        path = str(tmp_path / "checkpoint")  # deliberately no .npz suffix
        nn.save_state({"x": np.arange(3.0)}, path)
        assert os.path.exists(path)
        np.testing.assert_array_equal(nn.load_state(path)["x"], np.arange(3.0))


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "m.npz")
        nn.save_state({"x": np.ones(5)}, path)
        assert sorted(os.listdir(tmp_path)) == ["m.npz"]

    def test_overwrite_is_all_or_nothing(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous archive intact."""
        path = str(tmp_path / "m.npz")
        nn.save_state({"x": np.zeros(4)}, path)
        before = open(path, "rb").read()

        import repro.utils.io as io_mod

        def boom(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(io_mod.os, "replace", boom)
        with pytest.raises(OSError):
            nn.save_state({"x": np.ones(4)}, path)
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        np.testing.assert_array_equal(nn.load_state(path)["x"], np.zeros(4))
        # ... and the failed attempt's temp file was cleaned up.
        assert sorted(os.listdir(tmp_path)) == ["m.npz"]

    def test_parent_directories_created(self, tmp_path):
        path = str(tmp_path / "nested" / "deep" / "m.npz")
        nn.save_state({"x": np.ones(2)}, path)
        assert os.path.exists(path)
