"""Tests for the method registry (repro.api.registry)."""

import pytest

from repro.api import available_methods, build_config, get_method
from repro.baselines import GAConfig, GeneticAlgorithm, LatentBO
from repro.core import CircuitVAEOptimizer
from repro.prefix import sklansky


class TestRegistration:
    def test_builtins_registered_at_import(self):
        assert {"CircuitVAE", "GA", "RL", "BO", "Random"} <= set(available_methods())

    def test_unknown_method_lists_available(self):
        with pytest.raises(ValueError, match="GA"):
            get_method("definitely-not-registered")


class TestConfigBuilding:
    def test_defaults_when_params_empty(self):
        config = build_config("GA", {})
        assert config == GAConfig()

    def test_flat_and_nested_overrides(self):
        config = build_config(
            "CircuitVAE", {"latent_dim": 8, "train": {"epochs": 3}}
        )
        assert config.latent_dim == 8
        assert config.train.epochs == 3
        # unlisted nested fields keep their defaults
        assert config.train.beta == pytest.approx(0.01)

    def test_doubly_nested_config(self):
        config = build_config("BO", {"vae": {"latent_dim": 8, "search": {"num_steps": 5}}})
        assert config.vae.latent_dim == 8
        assert config.vae.search.num_steps == 5

    def test_unknown_param_rejected_with_dotted_path(self):
        with pytest.raises(ValueError, match="CircuitVAE.train.epochz"):
            build_config("CircuitVAE", {"train": {"epochz": 1}})

    def test_structure_name_resolves_to_graph(self):
        config = build_config("CircuitVAE", {"fixed_init_graph": "sklansky"}, n=8)
        assert config.fixed_init_graph == sklansky(8)

    def test_structure_name_needs_bitwidth(self):
        with pytest.raises(ValueError, match="bitwidth"):
            build_config("CircuitVAE", {"fixed_init_graph": "sklansky"})

    def test_build_algorithm_types(self):
        def build(name, params):
            return get_method(name).factory(build_config(name, params))

        assert isinstance(build("GA", {"population_size": 6}), GeneticAlgorithm)
        assert isinstance(build("CircuitVAE", {}), CircuitVAEOptimizer)
        assert isinstance(build("BO", {}), LatentBO)
