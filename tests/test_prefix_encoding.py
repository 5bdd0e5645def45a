"""Tests for graph encodings (repro.prefix.encoding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix import (
    bits_to_graph,
    bits_to_graphs,
    free_cells,
    graph_to_bits,
    legalize,
    legalize_bits,
    num_free_cells,
    random_graph,
    sklansky,
)


class TestFreeCells:
    def test_count_formula(self):
        for n in (2, 3, 4, 8, 16):
            assert len(free_cells(n)) == num_free_cells(n) == (n - 1) * (n - 2) // 2

    def test_cells_exclude_forced_positions(self):
        for i, j in free_cells(10):
            assert 0 < j < i


class TestRoundtrips:
    def test_legal_graph_roundtrips_through_bits(self):
        g = sklansky(16)
        assert bits_to_graph(graph_to_bits(g), 16) == g

    def test_index_gather_matches_per_cell_loop(self):
        rng = np.random.default_rng(3)
        for n in range(2, 65):
            cells = free_cells(n)
            graph = random_graph(n, rng, 0.3)
            expected = np.array([graph.grid[i, j] for i, j in cells], dtype=bool)
            bits = graph_to_bits(graph)
            assert bits.dtype == bool and np.array_equal(bits, expected), n
            assert bits_to_graph(bits, n) == graph, n
            raw = rng.random(len(cells)) < 0.3
            grid = np.zeros((n, n), dtype=bool)
            for (i, j), bit in zip(cells, raw):
                grid[i, j] = bit
            assert bits_to_graph(raw, n) == legalize(grid), n

    def test_bits_length_validated(self):
        with pytest.raises(ValueError):
            bits_to_graph(np.zeros(5, dtype=bool), 16)
        with pytest.raises(ValueError):
            bits_to_graphs(np.zeros((2, 5), dtype=bool), 16)
        with pytest.raises(ValueError):
            bits_to_graphs(np.zeros(num_free_cells(16), dtype=bool), 16)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64])
    @pytest.mark.parametrize("batch", [0, 1, 5])
    def test_batched_forms_match_bits_to_graph(self, n, batch):
        rng = np.random.default_rng(10 * n + batch)
        bits = rng.random((batch, num_free_cells(n))) < rng.uniform(0, 0.6, (batch, 1))
        graphs = bits_to_graphs(bits, n)
        assert graphs == [bits_to_graph(row, n) for row in bits]
        legal = legalize_bits(bits, n)
        assert legal.shape == bits.shape and legal.dtype == bool
        for graph, row in zip(graphs, legal):
            np.testing.assert_array_equal(graph_to_bits(graph), row)
        assert bits_to_graphs(legal, n) == graphs

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 16), density=st.floats(0, 1))
    def test_property_random_graphs_roundtrip(self, seed, n, density):
        rng = np.random.default_rng(seed)
        g = random_graph(n, rng, density)
        assert g.is_legal()
        assert bits_to_graph(graph_to_bits(g), n) == g


class TestRandomGraph:
    def test_density_zero_gives_ripple(self):
        rng = np.random.default_rng(0)
        g = random_graph(8, rng, density=0.0)
        assert g.node_count() == 7

    def test_density_controls_size(self):
        rng = np.random.default_rng(1)
        sparse = np.mean([random_graph(12, rng, 0.05).node_count() for _ in range(20)])
        dense = np.mean([random_graph(12, rng, 0.6).node_count() for _ in range(20)])
        assert dense > sparse
