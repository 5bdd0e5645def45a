"""Tests for run records and paper statistics (repro.opt.results)."""

import numpy as np
import pytest

from repro.opt.results import (
    RunRecord,
    aggregate_curves,
    best_cost_at,
    median_iqr,
    sims_to_reach,
    vae_speedup,
)


def record(costs, method="X", seed=0):
    costs = np.asarray(costs, dtype=float)
    return RunRecord(
        method=method,
        task_name="t",
        seed=seed,
        costs=costs,
        areas=costs * 100,
        delays=costs / 10,
    )


class TestRunRecord:
    def test_best_metrics(self):
        r = record([5, 3, 4])
        cost, area, delay = r.best_metrics()
        assert (cost, area, delay) == (3, 300, 0.3)

    def test_best_cost_at_budget(self):
        r = record([5, 3, 4, 2])
        assert best_cost_at(r, 2) == 3
        assert best_cost_at(r, 100) == 2
        assert best_cost_at(r, 0) == float("inf")

    def test_sims_to_reach(self):
        r = record([5, 3, 4, 2])
        assert sims_to_reach(r, 5.0) == 1
        assert sims_to_reach(r, 2.5) == 4
        assert sims_to_reach(r, 1.0) is None

    def test_sims_to_reach_threshold_never_reached_variants(self):
        # just-below the minimum cost: still never reached
        r = record([5, 3, 4, 2])
        assert sims_to_reach(r, np.nextafter(2.0, 0.0)) is None
        # equality counts as reached (<= semantics)
        assert sims_to_reach(r, 2.0) == 4
        # a record with no simulations can never reach anything
        assert sims_to_reach(record([]), 100.0) is None


class TestAggregation:
    def test_aggregate_median_and_quartiles(self):
        records = [record([4, 4, 4]), record([2, 2, 2]), record([3, 3, 3])]
        agg = aggregate_curves(records, budgets=[1, 3])
        np.testing.assert_array_equal(agg["median"], [3, 3])
        assert agg["q25"][0] == pytest.approx(2.5)
        assert agg["q75"][0] == pytest.approx(3.5)

    def test_median_iqr_format(self):
        med, q25, q75 = median_iqr([1.0, 2.0, 3.0, 4.0, 5.0])
        assert med == 3.0 and q25 == 2.0 and q75 == 4.0

    def test_median_iqr_single_element(self):
        # one seed: all three statistics collapse onto the value
        assert median_iqr([7.25]) == (7.25, 7.25, 7.25)

    def test_median_iqr_accepts_any_sequence(self):
        # generators and numpy arrays behave like lists
        assert median_iqr(iter([2.0, 4.0])) == median_iqr(np.array([2.0, 4.0]))


class TestSpeedup:
    def test_speedup_when_vae_is_faster(self):
        # Competitor reaches its best (3.0) at sim 10; VAE reaches <= 3.0 at sim 2.
        other = record([5] * 9 + [3], method="GA")
        vae = record([5, 2], method="VAE")
        (s,) = vae_speedup([vae], [other])
        assert s == pytest.approx(10 / 2)

    def test_speedup_below_one_when_vae_never_matches(self):
        other = record([1.0], method="GA")
        vae = record([5, 4, 3], method="VAE")
        (s,) = vae_speedup([vae], [other])
        assert s == pytest.approx(1 / 3)

    def test_pairing_by_position(self):
        others = [record([3], seed=0), record([2], seed=1)]
        vaes = [record([3], seed=0), record([4, 2], seed=1)]
        speedups = vae_speedup(vaes, others)
        assert speedups == [pytest.approx(1.0), pytest.approx(0.5)]

    def test_speedup_uses_first_time_competitor_reaches_its_best(self):
        # Competitor hits its best (2.0) at sim 2 and again at sim 4:
        # the budget B is the *first* time, per the Table-1 definition.
        other = record([5, 2, 3, 2], method="GA")
        vae = record([4, 2], method="VAE")
        (s,) = vae_speedup([vae], [other])
        assert s == pytest.approx(2 / 2)

    def test_speedup_empty_pairing(self):
        assert vae_speedup([], []) == []

    def test_speedup_extra_records_ignored_by_zip(self):
        # unpaired trailing seeds (a crashed run) are dropped, not mixed
        others = [record([2]), record([1])]
        vaes = [record([2])]
        assert len(vae_speedup(vaes, others)) == 1
