"""Tests + property tests for legalization (repro.prefix.legalize)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import legalize_grid_per_pair
from repro.prefix import (
    PrefixGraph,
    check_adder,
    kogge_stone,
    legalize,
    legalize_grid,
    legalize_grids,
    prune_redundant,
    sklansky,
)


def random_raw_grid(n, rng, density):
    grid = rng.random((n, n)) < density
    return grid


class TestLegalize:
    def test_output_is_legal(self):
        rng = np.random.default_rng(0)
        for density in (0.0, 0.1, 0.5, 1.0):
            g = legalize(random_raw_grid(10, rng, density))
            assert g.is_legal()

    def test_idempotent_on_legal_graphs(self):
        for make in (sklansky, kogge_stone):
            g = make(16)
            again = legalize(g.grid)
            assert again == g

    def test_preserves_existing_nodes(self):
        rng = np.random.default_rng(1)
        raw = random_raw_grid(8, rng, 0.3)
        g = legalize(raw)
        tri = np.tril(np.ones((8, 8), dtype=bool), k=-1)
        assert np.all(g.grid[tri] >= raw[tri])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            legalize_grid(np.zeros((3, 5)))

    def test_empty_grid_becomes_ripple(self):
        g = legalize(np.zeros((6, 6)))
        assert g.node_count() == 5  # ripple-carry: only column 0

    def test_full_grid_is_legal(self):
        g = legalize(np.ones((8, 8)))
        assert g.is_legal()
        # Full lower triangle is a legal "maximal" graph.
        assert g.node_count() == 8 * 7 // 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 14), density=st.floats(0.0, 1.0))
    def test_property_legal_and_functional(self, seed, n, density):
        """Any legalized grid is legal AND computes correct sums."""
        rng = np.random.default_rng(seed)
        g = legalize(random_raw_grid(n, rng, density))
        assert g.is_legal()
        assert check_adder(g, rng, trials=16)


class TestLegalizeGrids:
    """The batched row sweep equals the per-pair sweep design by design."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64])
    @pytest.mark.parametrize("batch", [0, 1, 7])
    def test_matches_per_pair_sweep(self, n, batch):
        rng = np.random.default_rng(100 * n + batch)
        densities = rng.uniform(0.0, 0.6, size=(batch, 1, 1))
        grids = rng.random((batch, n, n)) < densities
        out = legalize_grids(grids)
        assert out.shape == (batch, n, n) and out.dtype == bool
        for raw, legal in zip(grids, out):
            np.testing.assert_array_equal(legal, legalize_grid_per_pair(raw))
            assert PrefixGraph(legal, validate=False).is_legal()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64])
    def test_empty_full_and_float_grids(self, n):
        rng = np.random.default_rng(n)
        grids = np.stack(
            [
                np.zeros((n, n)),
                np.ones((n, n)),
                # Any nonzero float is a present cell, negative ones too;
                # entries above the diagonal are ignored.
                rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.2),
            ]
        )
        out = legalize_grids(grids)
        for raw, legal in zip(grids, out):
            np.testing.assert_array_equal(legal, legalize_grid_per_pair(raw))
        np.testing.assert_array_equal(out[1], np.tril(np.ones((n, n), dtype=bool)))

    def test_single_grid_form_agrees(self):
        rng = np.random.default_rng(5)
        for n in (4, 17, 40):
            raw = rng.random((n, n)) < 0.3
            np.testing.assert_array_equal(legalize_grid(raw), legalize_grids(raw[None])[0])
            np.testing.assert_array_equal(legalize_grid(raw), legalize_grid_per_pair(raw))

    def test_legal_designs_are_fixed_points(self):
        stack = np.stack([sklansky(16).grid, kogge_stone(16).grid])
        np.testing.assert_array_equal(legalize_grids(stack), stack)

    def test_input_is_not_modified(self):
        raw = np.random.default_rng(6).random((3, 12, 12)) < 0.3
        before = raw.copy()
        legalize_grids(raw)
        np.testing.assert_array_equal(raw, before)

    @pytest.mark.parametrize("shape", [(2, 3, 5), (3, 5), (5,), (1, 2, 3, 3)])
    def test_rejects_non_square_stacks(self, shape):
        with pytest.raises(ValueError):
            legalize_grids(np.zeros(shape))


class TestPrune:
    def test_prune_never_adds(self):
        rng = np.random.default_rng(2)
        g = legalize(random_raw_grid(12, rng, 0.5))
        p = prune_redundant(g)
        assert p.node_count() <= g.node_count()
        assert np.all(g.grid >= p.grid)

    def test_prune_preserves_function(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = legalize(random_raw_grid(10, rng, rng.random()))
            p = prune_redundant(g)
            assert p.is_legal()
            assert check_adder(p, rng, trials=32)

    def test_prune_is_identity_on_lean_structures(self):
        # Sklansky has no dead nodes: every span feeds an output.
        g = sklansky(16)
        assert prune_redundant(g) == g
