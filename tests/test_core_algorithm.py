"""Tests for the CircuitVAE outer loop (repro.core.algorithm)."""

import numpy as np
import pytest

from repro.circuits import adder_task
from repro.core import (
    CircuitVAEConfig,
    CircuitVAEOptimizer,
    SearchConfig,
    TrainConfig,
    build_initial_dataset,
)
from repro.opt import CircuitSimulator

from helpers import build_initial_dataset_serial


def small_config(**overrides):
    base = dict(
        latent_dim=6,
        base_channels=4,
        hidden_dim=32,
        initial_samples=24,
        first_round_epochs=8,
        train=TrainConfig(epochs=4, batch_size=16),
        search=SearchConfig(num_parallel=8, num_steps=20, capture_every=10),
    )
    base.update(overrides)
    return CircuitVAEConfig(**base)


class TestInitialDataset:
    def test_contains_classics_and_respects_size(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=100)
        ds = build_initial_dataset(sim, 30, np.random.default_rng(0))
        assert len(ds) == 30
        from repro.prefix import sklansky

        assert sklansky(8) in ds

    def test_stops_at_budget(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=10)
        ds = build_initial_dataset(sim, 50, np.random.default_rng(1))
        assert len(ds) == 10
        assert sim.exhausted()


class TestInitialDatasetSeedBatch:
    """The batched seed phase gives what one query per seed gives: the same
    dataset, history, rng state, and stopping point."""

    @staticmethod
    def _build(builder, n, budget, size, seed, prefill=0):
        sim = CircuitSimulator(adder_task(n, 0.66), budget=budget)
        rng = np.random.default_rng(seed)
        dataset = None
        if prefill:
            from repro.core import CircuitDataset
            from repro.opt.variation import random_population

            dataset = CircuitDataset()
            pre = random_population(n, prefill, np.random.default_rng(seed + 99))
            dataset.add_evaluations(sim.query_many(pre))
        dataset = builder(sim, size, rng, dataset=dataset)
        return (
            [g.key() for g in dataset.graphs],
            dataset.costs_list,
            [(e.graph.key(), e.sim_index) for e in sim.history],
            rng.random(),
        )

    @pytest.mark.parametrize(
        "n,budget,size,prefill",
        [
            (8, 100, 30, 0),  # seeds run out before size: mutation phase
            (8, 100, 3, 0),  # size < #seeds: break inside the seeds
            (8, 4, 30, 0),  # budget < #seeds: refusal ends the build
            (8, 0, 10, 0),  # no budget at all
            (4, 40, 5, 0),  # n=4: classical seeds coincide (duplicates)
            (4, 40, 3, 0),
            (8, 100, 6, 6),  # pre-populated dataset already holds size
            (8, 100, 10, 5),  # pre-populated, a few seeds still needed
            (8, 7, 20, 5),  # pre-populated, budget runs out in the seeds
        ],
    )
    def test_matches_serial_reference(self, n, budget, size, prefill):
        for seed in range(3):
            ours = self._build(build_initial_dataset, n, budget, size, seed, prefill)
            ref = self._build(build_initial_dataset_serial, n, budget, size, seed, prefill)
            assert ours == ref, seed


class TestOptimizer:
    def test_full_run_exhausts_budget_and_improves(self):
        task = adder_task(8, 0.66)
        sim = CircuitSimulator(task, budget=80)
        optimizer = CircuitVAEOptimizer(small_config())
        best = optimizer.run(sim, np.random.default_rng(2))
        assert sim.num_simulations == 80
        # Must improve on the best classical seed.
        from repro.prefix import STRUCTURES

        classic_best = min(task.cost(task.synthesize(b(8))) for b in STRUCTURES.values())
        assert best.cost <= classic_best

    def test_traces_recorded(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=60)
        optimizer = CircuitVAEOptimizer(small_config())
        optimizer.run(sim, np.random.default_rng(3))
        assert optimizer.traces  # at least one search round happened
        assert optimizer.dataset is not None and len(optimizer.dataset) > 0

    def test_seeded_runs_are_reproducible(self):
        def run(seed):
            sim = CircuitSimulator(adder_task(8, 0.66), budget=50)
            CircuitVAEOptimizer(small_config()).run(sim, np.random.default_rng(seed))
            return [e.cost for e in sim.history]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_budget_smaller_than_initial_dataset(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=5)
        best = CircuitVAEOptimizer(small_config()).run(sim, np.random.default_rng(4))
        assert sim.num_simulations == 5
        assert best.cost > 0

    def test_method_name(self):
        assert CircuitVAEOptimizer().method_name == "CircuitVAE"
