"""Tests for the genetic-algorithm baseline (repro.baselines.ga)."""

import numpy as np
import pytest

from helpers import per_child_ga

from repro.baselines import GAConfig, GeneticAlgorithm
from repro.circuits import adder_task
from repro.opt import CircuitSimulator


class TestConfig:
    def test_elite_validation(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(GAConfig(population_size=4, elite_count=4))


class TestRun:
    def test_exhausts_budget(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=60)
        GeneticAlgorithm(GAConfig(population_size=12)).run(sim, np.random.default_rng(0))
        assert sim.num_simulations == 60

    def test_improves_over_first_generation(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=120)
        ga = GeneticAlgorithm(GAConfig(population_size=12))
        best = ga.run(sim, np.random.default_rng(1))
        first_gen_best = min(e.cost for e in sim.history[:12])
        assert best.cost <= first_gen_best
        assert ga.generation > 1

    def test_classics_seeded(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=20)
        GeneticAlgorithm(GAConfig(population_size=10)).run(sim, np.random.default_rng(2))
        from repro.prefix import sklansky

        assert any(e.graph == sklansky(8) for e in sim.history)

    def test_no_classics_option(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=15)
        GeneticAlgorithm(
            GAConfig(population_size=10, seed_with_classics=False)
        ).run(sim, np.random.default_rng(3))
        from repro.prefix import sklansky, kogge_stone

        graphs = {e.graph for e in sim.history[:10]}
        assert not {sklansky(8), kogge_stone(8)} <= graphs

    def test_reproducible(self):
        def run(seed):
            sim = CircuitSimulator(adder_task(8, 0.66), budget=40)
            GeneticAlgorithm(GAConfig(population_size=8)).run(sim, np.random.default_rng(seed))
            return [e.cost for e in sim.history]

        assert run(5) == run(5)


class RecordingSimulator(CircuitSimulator):
    """Plain simulator that keeps every submitted batch's design keys."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def query_plan(self, designs):
        designs = list(designs)
        self.batches.append([design.key() for design in designs])
        return super().query_plan(designs)


class TestPopulationLevelVariation:
    @pytest.mark.parametrize(
        "n,budget,config",
        [
            (8, 80, GAConfig(population_size=12)),
            (16, 80, GAConfig()),
            (16, 50, GAConfig(population_size=10, crossover_prob=1.0, seed_with_classics=False)),
            (32, 40, GAConfig(population_size=12, crossover_prob=0.0)),
        ],
    )
    def test_children_match_per_child_loop(self, n, budget, config):
        """Every generation submits the same designs, in the same order,
        as the child-by-child crossover/mutate loop."""
        for seed in range(3):
            runs = []
            for ga in (GeneticAlgorithm(config), per_child_ga(config)):
                sim = RecordingSimulator(adder_task(n, 0.66), budget=budget)
                ga.run(sim, np.random.default_rng(seed))
                runs.append(sim.batches)
            assert len(runs[0]) > 2
            assert runs[0] == runs[1], seed
