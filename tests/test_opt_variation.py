"""Tests + property tests for variation operators (repro.opt.variation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_population_per_member
from repro.opt.variation import breed, crossover, mutate, random_population
from repro.prefix import check_adder, random_graph, sklansky


class TestMutate:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), rate=st.floats(0.001, 0.5))
    def test_property_children_are_legal_and_functional(self, seed, rate):
        rng = np.random.default_rng(seed)
        parent = random_graph(10, rng, 0.3)
        child = mutate(parent, rng, rate)
        assert child.is_legal()
        assert check_adder(child, rng, trials=8)

    def test_forces_at_least_one_flip(self):
        rng = np.random.default_rng(0)
        parent = sklansky(8)
        # Even at rate 0 a flip is forced (result may legalize back, but
        # usually differs).
        children = [mutate(parent, rng, rate=0.0) for _ in range(20)]
        assert any(c != parent for c in children)


class TestCrossover:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_property_children_are_legal(self, seed):
        rng = np.random.default_rng(seed)
        a = random_graph(10, rng, 0.25)
        b = random_graph(10, rng, 0.45)
        child = crossover(a, b, rng)
        assert child.is_legal()

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            crossover(sklansky(8), sklansky(16), rng)

    def test_identical_parents_reproduce(self):
        rng = np.random.default_rng(2)
        a = sklansky(8)
        assert crossover(a, a, rng) == a


class TestRandomPopulation:
    def test_size_and_legality(self):
        rng = np.random.default_rng(3)
        pop = random_population(12, 10, rng)
        assert len(pop) == 10
        assert all(g.is_legal() for g in pop)

    def test_densities_vary(self):
        rng = np.random.default_rng(4)
        pop = random_population(12, 30, rng, density_range=(0.0, 0.8))
        counts = {g.node_count() for g in pop}
        assert len(counts) > 5


class TestPopulationLevel:
    """breed and random_population equal their per-design loops."""

    @pytest.mark.parametrize("n,size", [(1, 3), (2, 0), (3, 4), (8, 9), (32, 6), (64, 3)])
    def test_random_population_matches_per_member(self, n, size):
        for seed in range(3):
            ours = random_population(n, size, np.random.default_rng(seed))
            ref = random_population_per_member(n, size, np.random.default_rng(seed))
            assert [g.key() for g in ours] == [g.key() for g in ref]

    def test_random_population_leaves_rng_in_same_state(self):
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        random_population(16, 5, rng_a)
        random_population_per_member(16, 5, rng_b)
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("n", [3, 8, 16, 64])
    @pytest.mark.parametrize("crossover_prob", [0.0, 0.7, 1.0])
    def test_breed_matches_per_child_operators(self, n, crossover_prob):
        for seed in range(3):
            parents = random_population(n, 6, np.random.default_rng(seed))
            fitness = np.arange(len(parents))[::-1].astype(float)

            def selector(rng):
                def select():
                    contenders = rng.integers(0, len(parents), size=2)
                    return int(min(contenders, key=lambda i: fitness[i]))

                return select

            rng = np.random.default_rng(seed + 50)
            ours = breed(
                parents, 10, selector(rng), rng,
                crossover_prob=crossover_prob, mutation_rate=0.05,
            )
            ref_rng = np.random.default_rng(seed + 50)
            pick = selector(ref_rng)
            ref = []
            for _ in range(10):
                child = parents[pick()]
                if ref_rng.random() < crossover_prob:
                    child = crossover(child, parents[pick()], ref_rng)
                ref.append(mutate(child, ref_rng, rate=0.05))
            assert [g.key() for g in ours] == [g.key() for g in ref]
            assert rng.random() == ref_rng.random()

    def test_breed_zero_children(self):
        rng = np.random.default_rng(0)
        assert breed([sklansky(8)], 0, lambda: 0, rng, 0.5, 0.02) == []
