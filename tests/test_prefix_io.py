"""Tests for graph persistence (repro.prefix.io)."""

import json

import numpy as np
import pytest

from repro.prefix import (
    graph_from_dict,
    graph_to_dict,
    random_graph,
    sklansky,
)


class TestDictRoundtrip:
    def test_roundtrip_classical(self):
        g = sklansky(16)
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(12, rng, rng.random() * 0.6)
            assert graph_from_dict(graph_to_dict(g)) == g

    def test_output_is_byte_identical_to_per_node_listing(self):
        from repro.prefix import kogge_stone, ripple_carry

        def per_node(graph):
            nodes = [[int(i), int(j)] for i, j in graph.internal_nodes() if j != 0]
            return {"version": 1, "n": graph.n, "nodes": nodes}

        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 8, 33, 64):
            graphs = [random_graph(n, rng, d) for d in (0.0, 0.1, 0.5, 1.0)]
            graphs += [sklansky(n), kogge_stone(n), ripple_carry(n)]
            for g in graphs:
                assert json.dumps(graph_to_dict(g)) == json.dumps(per_node(g))

    def test_compact_representation(self):
        # Ripple has no free nodes beyond the forced cells.
        from repro.prefix import ripple_carry

        payload = graph_to_dict(ripple_carry(8))
        assert payload["nodes"] == []

    def test_version_checked(self):
        payload = graph_to_dict(sklansky(8))
        payload["version"] = 99
        with pytest.raises(ValueError):
            graph_from_dict(payload)

    def test_out_of_range_node_rejected(self):
        payload = {"version": 1, "n": 8, "nodes": [[2, 5]]}
        with pytest.raises(ValueError):
            graph_from_dict(payload)

    def test_illegal_design_rejected(self):
        # (5, 2) without its lower parent (4, 2) present... build a payload
        # whose nodes violate legality: (5,2) needs (4,2) [upper is (5,5)].
        payload = {"version": 1, "n": 8, "nodes": [[5, 2]]}
        with pytest.raises(ValueError):
            graph_from_dict(payload)

