"""Tests for the latent Bayesian-optimization baseline (repro.baselines.bo)."""

import numpy as np
import pytest

from helpers import latent_bo_reference

import repro.core.algorithm as algorithm
from repro.baselines import BOConfig, LatentBO
from repro.baselines.random_search import RandomSearch, RandomSearchConfig
from repro.circuits import adder_task
from repro.core import CircuitVAEConfig, SearchConfig, TrainConfig
from repro.opt import CircuitSimulator


def small_bo():
    vae = CircuitVAEConfig(
        latent_dim=6, base_channels=4, hidden_dim=32, initial_samples=20,
        first_round_epochs=6, train=TrainConfig(epochs=3, batch_size=16),
        search=SearchConfig(num_parallel=6),
    )
    return LatentBO(BOConfig(vae=vae, batch_per_round=6, candidate_pool=96, gp_max_points=64))


class TestLatentBO:
    def test_run_exhausts_budget(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=60)
        best = small_bo().run(sim, np.random.default_rng(0))
        assert sim.num_simulations == 60
        assert best.cost == sim.best().cost

    def test_improves_over_initial_dataset(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=80)
        best = small_bo().run(sim, np.random.default_rng(1))
        initial_best = min(e.cost for e in sim.history[:20])
        assert best.cost <= initial_best

    def test_reproducible(self):
        def run(seed):
            sim = CircuitSimulator(adder_task(8, 0.66), budget=45)
            small_bo().run(sim, np.random.default_rng(seed))
            return [e.cost for e in sim.history]

        assert run(2) == run(2)

    def test_method_name(self):
        assert small_bo().method_name == "BO"


def tiny_bo_config(initial_samples, gp_max_points):
    vae = CircuitVAEConfig(
        latent_dim=4, base_channels=2, hidden_dim=16, initial_samples=initial_samples,
        first_round_epochs=3, train=TrainConfig(epochs=2, batch_size=16),
    )
    return BOConfig(
        vae=vae, batch_per_round=6, candidate_pool=48, gp_max_points=gp_max_points
    )


class TestSharedLoopParity:
    """LatentBO on the shared Algorithm-1 loop queries the same designs,
    in the same order, and leaves the rng where the written-out loop of
    :func:`helpers.latent_bo_reference` does."""

    @pytest.mark.parametrize(
        "n,budget,config,stalls",
        [
            # 5-bit: the decoder soon returns known designs only, so the
            # stall fallback (mutate the dataset) must fire.
            (5, 40, tiny_bo_config(12, 64), True),
            # 8-bit, GP fitted on the best 16 of a larger dataset.
            (8, 45, tiny_bo_config(20, 16), False),
        ],
    )
    def test_history_and_rng_match_reference(self, n, budget, config, stalls, monkeypatch):
        explore = []
        real_mutate = algorithm.mutate

        def spy(graph, rng, rate=0.03):
            if rate == 0.05:  # the stall fallback's rate (D_0 uses 0.03)
                explore.append(graph.key())
            return real_mutate(graph, rng, rate=rate)

        monkeypatch.setattr(algorithm, "mutate", spy)
        for seed in range(3):
            runs = []
            for bo in (LatentBO(config), latent_bo_reference(config)):
                sim = CircuitSimulator(adder_task(n, 0.66), budget=budget)
                rng = np.random.default_rng(seed)
                bo.run(sim, rng)
                history = [(e.graph.key(), e.cost, e.sim_index) for e in sim.history]
                runs.append((history, rng.bit_generator.state))
            assert len(runs[0][0]) == budget
            assert runs[0] == runs[1], seed
        assert bool(explore) == stalls


class TestRandomSearch:
    def test_run_and_improve(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=80)
        best = RandomSearch().run(sim, np.random.default_rng(3))
        assert sim.num_simulations == 80
        # Should at least match the best classical seed it starts from.
        classic_best = min(e.cost for e in sim.history[:6])
        assert best.cost <= classic_best

    def test_random_fraction_explores(self):
        config = RandomSearchConfig(random_fraction=1.0)
        sim = CircuitSimulator(adder_task(8, 0.66), budget=30)
        RandomSearch(config).run(sim, np.random.default_rng(4))
        assert sim.num_simulations == 30
