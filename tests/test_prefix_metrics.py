"""Tests for structural metrics (repro.prefix.metrics)."""

import numpy as np
import pytest

from repro.prefix import (
    batch_levels,
    brent_kung,
    hamming_distance,
    kogge_stone,
    ripple_carry,
    sklansky,
    stacked_grids,
    structure_summary,
    unique_random_graphs,
)


def test_node_count_and_depth_delegate():
    # structure_summary reports the graph's own node count and depth
    g = sklansky(16)
    s = structure_summary(g)
    assert s["nodes"] == g.node_count()
    assert s["depth"] == g.depth()


def test_kogge_stone_unit_span_fanout():
    # In KS every span feeds at most a few children; Sklansky roots feed many.
    assert max(kogge_stone(32).fanouts().values()) < max(
        sklansky(32).fanouts().values()
    )


def test_hamming_distance_zero_iff_equal():
    a, b = sklansky(16), sklansky(16)
    assert hamming_distance(a, b) == 0
    assert hamming_distance(a, kogge_stone(16)) > 0


def test_hamming_distance_symmetric():
    a, b = sklansky(16), brent_kung(16)
    assert hamming_distance(a, b) == hamming_distance(b, a)


def test_hamming_distance_width_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(sklansky(8), sklansky(16))


def test_structure_summary_keys():
    s = structure_summary(ripple_carry(8))
    assert s["nodes"] == 7
    assert s["depth"] == 7
    assert s["max_fanout"] == 1
    assert set(s) == {"n", "nodes", "depth", "max_fanout", "mean_fanout"}


class TestBatchMetrics:
    def graphs(self, n=12, count=8):
        classics = [sklansky(n), brent_kung(n), kogge_stone(n), ripple_carry(n)]
        return classics + list(
            unique_random_graphs(n, count, np.random.default_rng(5))
        )

    def test_stacked_grids_shape_and_width_check(self):
        graphs = self.graphs()
        stack = stacked_grids(graphs)
        assert stack.shape == (len(graphs), 12, 12)
        with pytest.raises(ValueError):
            stacked_grids([sklansky(8), sklansky(16)])
        with pytest.raises(ValueError):
            stacked_grids([])

    def test_batch_levels_match_scalar_levels(self):
        graphs = self.graphs()
        levels = batch_levels(stacked_grids(graphs))
        for b, graph in enumerate(graphs):
            expected = graph.levels()
            for i in range(graph.n):
                for j in range(i + 1):
                    assert levels[b, i, j] == expected.get((i, j), 0), (b, i, j)

    def test_batch_levels_match_scalar_levels_at_64_bits(self):
        # Ripple carry is the deepest legal graph (depth 63): every span
        # step depends on the previous one.
        graphs = self.graphs(n=64, count=4)
        levels = batch_levels(stacked_grids(graphs))
        assert levels[3].max() == ripple_carry(64).depth() == 63
        for b, graph in enumerate(graphs):
            expected = np.zeros((64, 64), dtype=np.int64)
            for (i, j), level in graph.levels().items():
                expected[i, j] = level
            assert np.array_equal(levels[b], expected), b

    def test_batch_levels_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            batch_levels(np.ones((4, 4), dtype=bool))
