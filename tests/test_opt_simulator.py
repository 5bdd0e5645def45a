"""Tests for the budgeted simulator facade (repro.opt.simulator)."""

import numpy as np
import pytest

from repro.circuits import adder_task
from repro.opt import BudgetExhausted, CircuitSimulator
from repro.prefix import brent_kung, ripple_carry, sklansky


@pytest.fixture
def sim():
    return CircuitSimulator(adder_task(8, 0.66), budget=5)


class TestCaching:
    def test_duplicate_query_is_free(self, sim):
        first = sim.query(sklansky(8))
        second = sim.query(sklansky(8))
        assert sim.num_simulations == 1
        assert first is second

    def test_equivalent_encodings_share_entry(self, sim):
        sim.query(sklansky(8))
        # Same circuit arriving as a raw grid.
        sim.query(sklansky(8).grid.astype(np.float64))
        assert sim.num_simulations == 1

    def test_legalization_applied_to_raw_grids(self, sim):
        raw = np.zeros((8, 8))
        raw[5, 2] = 1.0  # needs parents inserted
        evaluation = sim.query(raw)
        assert evaluation.graph.is_legal()


class TestBudget:
    def test_budget_enforced(self, sim):
        designs = [ripple_carry(8), sklansky(8), brent_kung(8)]
        for d in designs:
            sim.query(d)
        assert sim.budget - sim.num_simulations == 2
        rng = np.random.default_rng(0)
        from repro.prefix import random_graph

        sim.query(random_graph(8, rng, 0.3))
        sim.query(random_graph(8, rng, 0.5))
        with pytest.raises(BudgetExhausted):
            sim.query(random_graph(8, rng, 0.7))

    def test_cached_queries_allowed_after_exhaustion(self, sim):
        rng = np.random.default_rng(1)
        from repro.prefix import random_graph

        graphs = []
        while not sim.exhausted():
            g = random_graph(8, rng, rng.random() * 0.5)
            sim.query(g)
            graphs.append(g)
        # Cache hit must still work.
        assert sim.query(graphs[0]) is not None

    def test_query_many_stops_at_budget(self, sim):
        rng = np.random.default_rng(2)
        from repro.prefix import random_graph

        designs = [random_graph(8, rng, 0.1 * i) for i in range(1, 10)]
        out = sim.query_many(designs)
        assert sim.num_simulations <= 5
        assert len(out) <= len(designs)

    def test_query_many_serves_cache_hits_past_exhaustion(self, sim):
        from helpers import unique_random_graphs

        designs = unique_random_graphs(8, 7, seed=3)
        # Duplicates placed *after* the budget-exhausting prefix must be
        # served from cache, not dropped (the docstring's promise).
        batch = designs + [designs[0], designs[4]]
        out = sim.query_many(batch)
        assert sim.num_simulations == 5
        assert len(out) == 7  # 5 new + 2 cached duplicates
        assert out[-2] is out[0]
        assert out[-1] is out[4]

    def test_query_plan_marks_refusals(self, sim):
        from helpers import unique_random_graphs

        designs = unique_random_graphs(8, 7, seed=4)
        plan = sim.query_plan(designs)
        assert [e is None for e in plan] == [False] * 5 + [True] * 2

    def test_unlimited_budget(self):
        sim = CircuitSimulator(adder_task(8, 0.5), budget=None)
        sim.query(ripple_carry(8))
        assert not sim.exhausted()


class TestHistory:
    def test_history_and_best(self, sim):
        sim.query(ripple_carry(8))
        sim.query(sklansky(8))
        assert len(sim.history) == 2
        best = sim.best()
        assert best.cost == min(e.cost for e in sim.history)

    def test_best_cost_curve_monotone(self, sim):
        for g in (ripple_carry(8), sklansky(8), brent_kung(8)):
            sim.query(g)
        curve = sim.best_cost_curve()
        assert len(curve) == 3
        assert all(a >= b for a, b in zip(curve[:-1], curve[1:]))

    def test_best_on_empty_raises(self, sim):
        with pytest.raises(ValueError):
            sim.best()

    def test_sim_index_increments(self, sim):
        e1 = sim.query(ripple_carry(8))
        e2 = sim.query(sklansky(8))
        assert (e1.sim_index, e2.sim_index) == (1, 2)
