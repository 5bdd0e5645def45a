"""Tests for technology mapping (repro.synth.mapping).

The crucial property: the mapped netlist must compute *exactly* the function
the prefix graph denotes, for every graph and both circuit types.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix import gray_encode, random_graph, ripple_carry, sklansky
from repro.synth import map_adder, map_gray_to_binary, map_prefix_graph, nangate45


@pytest.fixture(scope="module")
def lib():
    return nangate45()


def adder_io(n, a, b):
    bits = {}
    for i in range(n):
        bits[f"a[{i}]"] = bool((a >> i) & 1)
        bits[f"b[{i}]"] = bool((b >> i) & 1)
    return bits


def read_sum(outputs, n):
    value = 0
    for i in range(n):
        value |= int(outputs[f"s[{i}]"]) << i
    return value, outputs["cout"]


class TestAdderMapping:
    @pytest.mark.parametrize("style", ["aoi", "andor"])
    def test_netlist_adds_exhaustive_4bit(self, lib, style):
        nl = map_adder(sklansky(4), lib, style=style)
        for a in range(16):
            for b in range(16):
                s, cout = read_sum(nl.evaluate(adder_io(4, a, b)), 4)
                assert s == (a + b) & 0xF
                assert cout == bool((a + b) >> 4)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_property_random_graphs_map_correctly(self, lib, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(8, rng, float(rng.random() * 0.6))
        nl = map_adder(g, lib)
        for _ in range(12):
            a, b = int(rng.integers(256)), int(rng.integers(256))
            s, cout = read_sum(nl.evaluate(adder_io(8, a, b)), 8)
            assert s == (a + b) & 0xFF
            assert cout == bool((a + b) >> 8)

    def test_aoi_style_uses_aoi_cells(self, lib):
        counts = map_adder(sklansky(8), lib, style="aoi").count_by_function()
        assert counts.get("AOI21", 0) > 0
        assert counts.get("OR2", 0) == 0

    def test_andor_style_uses_or_cells(self, lib):
        counts = map_adder(sklansky(8), lib, style="andor").count_by_function()
        assert counts.get("OR2", 0) > 0
        assert counts.get("AOI21", 0) == 0

    def test_output_column_propagate_elided(self, lib):
        """Spans with lsb 0 never need group-propagate: ripple's netlist
        must contain exactly n XOR leaves + (n-1) sum XORs and n AND leaves,
        with no extra propagate ANDs."""
        n = 8
        nl = map_adder(ripple_carry(n), lib)
        counts = nl.count_by_function()
        assert counts["XOR2"] == n + (n - 1)
        assert counts["AND2"] == n  # leaf generates only

    def test_mapping_deterministic(self, lib):
        a = map_adder(sklansky(8), lib)
        b = map_adder(sklansky(8), lib)
        assert a.net_names == b.net_names
        assert [(g.cell.name, g.inputs, g.output) for g in a.gates] == [
            (g.cell.name, g.inputs, g.output) for g in b.gates
        ]

    def test_width_one(self, lib):
        nl = map_adder(ripple_carry(1), lib)
        out = nl.evaluate({"a[0]": 1, "b[0]": 1})
        assert out["s[0]"] is False and out["cout"] is True


class TestGrayMapping:
    def test_only_xor_cells(self, lib):
        counts = map_gray_to_binary(sklansky(8), lib).count_by_function()
        assert set(counts) == {"XOR2"}

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_property_decodes_gray(self, lib, seed):
        rng = np.random.default_rng(seed)
        n = 7
        g = random_graph(n, rng, float(rng.random() * 0.5))
        nl = map_gray_to_binary(g, lib)
        for _ in range(10):
            value = int(rng.integers(2 ** n))
            gray = int(gray_encode(np.array([value], dtype=np.uint64))[0])
            inputs = {f"gray[{i}]": bool((gray >> i) & 1) for i in range(n)}
            outputs = nl.evaluate(inputs)
            decoded = sum(int(outputs[f"bin[{i}]"]) << i for i in range(n))
            assert decoded == value


class TestDispatch:
    def test_map_prefix_graph_dispatch(self, lib):
        assert map_prefix_graph(sklansky(4), lib, "adder").primary_outputs
        assert map_prefix_graph(sklansky(4), lib, "gray").primary_outputs
        with pytest.raises(ValueError):
            map_prefix_graph(sklansky(4), lib, "multiplier")
