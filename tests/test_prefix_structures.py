"""Tests for classical prefix structures (repro.prefix.structures)."""

import numpy as np
import pytest

from repro.prefix import (
    STRUCTURES,
    brent_kung,
    check_adder,
    check_gray_to_binary,
    han_carlson,
    kogge_stone,
    ladner_fischer,
    make_structure,
    ripple_carry,
    sklansky,
)

WIDTHS = [1, 2, 3, 4, 7, 8, 13, 16, 26, 31, 32, 64]


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("n", WIDTHS)
def test_structures_are_legal(name, n):
    g = make_structure(name, n)
    assert g.n == n
    assert g.is_legal()


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("n", [2, 8, 16, 31, 64])
def test_structures_add_correctly(name, n):
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    assert check_adder(make_structure(name, n), rng, trials=64)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_structures_convert_gray_correctly(name):
    rng = np.random.default_rng(0)
    assert check_gray_to_binary(make_structure(name, 26), rng, trials=64)


class TestKnownProperties:
    def test_ripple_minimal_nodes_max_depth(self):
        g = ripple_carry(16)
        assert g.node_count() == 15
        assert g.depth() == 15

    def test_sklansky_depth_and_nodes(self):
        g = sklansky(16)
        assert g.depth() == 4  # ceil(log2 16)
        # Sklansky has exactly (n/2) log2(n) operators for power-of-2 n.
        assert g.node_count() == 8 * 4

    def test_sklansky_has_high_fanout(self):
        assert max(sklansky(32).fanouts().values()) >= 32 // 2 // 2

    def test_kogge_stone_node_count(self):
        # KS: sum over levels t of (n - 2^t + ... ) -> n*log2(n) - n + 1 for 2^k.
        g = kogge_stone(16)
        assert g.depth() == 4
        assert g.node_count() == 16 * 4 - 16 + 1

    def test_brent_kung_depth(self):
        # BK depth is 2*log2(n) - 2 for power-of-2 n (n >= 4).
        assert brent_kung(16).depth() == 2 * 4 - 2
        assert brent_kung(64).depth() == 2 * 6 - 2

    def test_brent_kung_sparse(self):
        # BK uses ~2n - log - 2 nodes, far fewer than KS.
        assert brent_kung(64).node_count() < kogge_stone(64).node_count() / 2

    def test_han_carlson_between_bk_and_ks(self):
        hc = han_carlson(32).node_count()
        assert brent_kung(32).node_count() < hc < kogge_stone(32).node_count()

    def test_han_carlson_depth_one_more_than_ks(self):
        assert han_carlson(32).depth() == kogge_stone(32).depth() + 1

    def test_ladner_fischer_fanout_below_sklansky(self):
        assert max(ladner_fischer(32).fanouts().values()) <= max(
            sklansky(32).fanouts().values()
        )

    def test_unknown_structure_raises(self):
        with pytest.raises(KeyError):
            make_structure("carry-lookahead-9000", 8)

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            ripple_carry(0)

    def test_structures_distinct_at_16_bits(self):
        graphs = [make_structure(name, 16) for name in sorted(STRUCTURES)]
        keys = {g.key() for g in graphs}
        assert len(keys) == len(graphs)
