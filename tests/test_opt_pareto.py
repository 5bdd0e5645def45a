"""Tests for Pareto utilities (repro.opt.pareto)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt.pareto import dominates, pareto_front


class TestDominates:
    def test_strict_dominance(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((2, 2), (1, 1))

    def test_equal_points_not_strict(self):
        assert not dominates((1, 1), (1, 1), strict=True)
        assert dominates((1, 1), (1, 1), strict=False)

    def test_tradeoff_incomparable(self):
        assert not dominates((1, 3), (3, 1))
        assert not dominates((3, 1), (1, 3))


class TestParetoFront:
    def test_simple_front(self):
        points = [(1, 5), (2, 3), (3, 4), (4, 1), (5, 2)]
        assert pareto_front(points) == [(1, 5), (2, 3), (4, 1)]

    def test_duplicates_collapsed(self):
        assert pareto_front([(1, 1), (1, 1)]) == [(1, 1)]

    def test_empty(self):
        assert pareto_front([]) == []

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), count=st.integers(1, 40))
    def test_property_front_is_mutually_nondominated(self, seed, count):
        rng = np.random.default_rng(seed)
        points = [tuple(p) for p in rng.random((count, 2))]
        front = pareto_front(points)
        # No front member dominates another.
        for a in front:
            for b in front:
                if a != b:
                    assert not dominates(a, b)
        # Every input point is dominated-or-tied by some front member.
        for p in points:
            assert any(dominates(f, p, strict=False) for f in front)
