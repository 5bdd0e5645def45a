"""Tests for functional verification (repro.prefix.verify)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix import (
    gray_encode,
    random_graph,
    ripple_carry,
    simulate_adder,
    simulate_gray_to_binary,
    sklansky,
)


class TestSimulateAdder:
    def test_exact_small_cases(self):
        g = sklansky(8)
        s, c = simulate_adder(g, np.array([3]), np.array([5]))
        assert int(s[0]) == 8 and not c[0]

    def test_carry_out(self):
        g = ripple_carry(4)
        s, c = simulate_adder(g, np.array([15]), np.array([1]))
        assert int(s[0]) == 0 and bool(c[0])

    def test_batched(self):
        g = sklansky(16)
        a = np.arange(100, dtype=np.uint64)
        b = np.arange(100, dtype=np.uint64) * 3
        s, _ = simulate_adder(g, a, b)
        np.testing.assert_array_equal(s, (a + b) & 0xFFFF)

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(0, 2 ** 16 - 1), b=st.integers(0, 2 ** 16 - 1))
    def test_property_matches_integer_addition(self, a, b):
        g = sklansky(16)
        s, c = simulate_adder(g, np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64))
        total = a + b
        assert int(s[0]) == total & 0xFFFF
        assert bool(c[0]) == bool(total >> 16)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), density=st.floats(0.0, 0.8))
    def test_property_random_legal_graphs_add(self, seed, density):
        """*Every* legal graph must implement addition exactly."""
        rng = np.random.default_rng(seed)
        g = random_graph(11, rng, density)
        a = rng.integers(0, 2 ** 11, size=64, dtype=np.uint64)
        b = rng.integers(0, 2 ** 11, size=64, dtype=np.uint64)
        s, _ = simulate_adder(g, a, b)
        np.testing.assert_array_equal(s, (a + b) & np.uint64(2 ** 11 - 1))


class TestGray:
    def test_gray_encode_known_values(self):
        np.testing.assert_array_equal(
            gray_encode(np.arange(8, dtype=np.uint64)), [0, 1, 3, 2, 6, 7, 5, 4]
        )

    def test_decode_inverts_encode(self):
        g = sklansky(10)
        values = np.arange(1024, dtype=np.uint64)
        decoded = simulate_gray_to_binary(g, gray_encode(values))
        np.testing.assert_array_equal(decoded, values)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_property_random_graphs_decode_gray(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(13, rng, float(rng.random() * 0.6))
        values = rng.integers(0, 2 ** 13, size=64, dtype=np.uint64)
        decoded = simulate_gray_to_binary(g, gray_encode(values))
        np.testing.assert_array_equal(decoded, values)
