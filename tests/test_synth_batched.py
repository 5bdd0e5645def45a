"""Bit-identity tests for the vectorized batched synthesis fast path.

The contract of :mod:`repro.synth.batched` is exact equality with the
scalar per-graph flow on **every** ``PhysicalResult`` field — not
approximate equality.  The engine's caching and the paper's budget
accounting both rely on the two paths being interchangeable.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import mutant_population, unique_random_graphs as unique_graphs

from repro.circuits import (
    CircuitTask,
    adder_task,
    gray_to_binary_task,
    lzd_task,
    realistic_adder_task,
)
from repro.engine import EvaluationEngine, SynthesisPool
from repro.prefix import sklansky
from repro.synth import CellLibrary, SynthesisOptions, scaled_library, synthesize_many


def assert_results_identical(task, graphs):
    scalar = [task.synthesize(graph) for graph in graphs]
    batched = task.evaluate_many(graphs)
    assert len(scalar) == len(batched)
    for i, (a, b) in enumerate(zip(scalar, batched)):
        assert a.area_um2 == b.area_um2, i
        assert a.delay_ns == b.delay_ns, i
        assert a.num_gates == b.num_gates, i
        assert a.num_buffers == b.num_buffers, i
        assert a.wirelength_um == b.wirelength_um, i
        assert a.cell_counts == b.cell_counts, i
        assert a.critical_output == b.critical_output, i


class TestBitIdentity:
    # n=4 has only 7 unique legal designs, so its population is smaller.
    @pytest.mark.parametrize("n,count", [(4, 6), (8, 8), (12, 8)])
    def test_adder_population(self, n, count):
        assert_results_identical(adder_task(n, 0.66), unique_graphs(n, count))

    def test_gray_population(self):
        assert_results_identical(gray_to_binary_task(n=8), unique_graphs(8, 8))

    def test_lzd_population(self):
        assert_results_identical(lzd_task(n=8), unique_graphs(8, 8))

    def test_scaled_library(self):
        task = adder_task(8, 0.5, library=scaled_library("8nm"))
        assert_results_identical(task, unique_graphs(8, 6))

    def test_datapath_io_timing(self):
        # Per-bit arrivals/margins change the critical endpoint choice.
        assert_results_identical(realistic_adder_task(8, 0.6), unique_graphs(8, 6))

    def test_andor_mapping_style(self):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(mapping_style="andor")
        )
        assert_results_identical(task, unique_graphs(8, 6))

    @pytest.mark.parametrize("max_fanout", [2, 3])
    def test_flow_options_fanout(self, max_fanout):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(max_fanout=max_fanout)
        )
        assert_results_identical(task, unique_graphs(8, 6))

    @pytest.mark.parametrize("passes", [0, 1, 2])
    def test_flow_options_sizing_passes(self, passes):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(sizing_passes=passes)
        )
        assert_results_identical(task, unique_graphs(8, 6))

    def test_no_area_recovery(self):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(area_recovery=False)
        )
        assert_results_identical(task, unique_graphs(8, 6))

    def test_dense_graphs_with_multi_level_buffering(self):
        # Dense 24-bit graphs push fanouts past max_fanout^2 so buffer
        # trees get more than one level, the trickiest ordering case.
        from repro.prefix import unique_random_graphs

        graphs = unique_random_graphs(
            24, 4, np.random.default_rng(11), density_low=0.7, density_high=0.95
        )
        assert_results_identical(adder_task(24, 0.66), graphs)

    def test_three_wave_buffer_trees(self):
        # Dense 16-bit graphs at max_fanout=2: a net with more than
        # 2**3 sinks needs at least three buffer waves.
        from repro.prefix import unique_random_graphs
        from repro.synth.mapping import map_prefix_graph

        task = replace(adder_task(16, 0.66), options=SynthesisOptions(max_fanout=2))
        graphs = unique_random_graphs(
            16, 4, np.random.default_rng(3), density_low=0.7, density_high=0.95
        )
        sinks = [
            max(len(s) for s in map_prefix_graph(g, task.library).net_sinks)
            for g in graphs
        ]
        assert max(sinks) > 2 ** 3
        assert_results_identical(task, graphs)

    def test_single_graph_and_duplicate_free_structures(self):
        task = adder_task(8, 0.66)
        assert_results_identical(task, [sklansky(8)])

    def test_empty_batch(self):
        assert adder_task(8, 0.66).evaluate_many([]) == []


class TestMutantPopulations:
    """Structurally shared batches (parents + mutants), where the sizing
    passes' cone-limited re-STA cuts off at the most unchanged gates."""

    # n=64 at the default max_fanout=4: Sklansky and its mutants carry
    # nets of 32+ sinks, so their buffer trees take two waves.
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_adder_mutant_population(self, n):
        assert_results_identical(adder_task(n, 0.66), mutant_population(n, 10))

    def test_gray_population(self):
        assert_results_identical(gray_to_binary_task(n=8), mutant_population(8, 8))

    def test_lzd_population(self):
        assert_results_identical(lzd_task(n=8), mutant_population(8, 8))

    def test_andor_mapping_style(self):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(mapping_style="andor")
        )
        assert_results_identical(task, mutant_population(8, 8))

    @pytest.mark.parametrize("max_fanout", [2, 3])
    def test_tight_fanout_deep_buffer_trees(self, max_fanout):
        # Nets past max_fanout**2 sinks get buffer trees of two or more
        # waves, each wave grouping the previous wave's buffers.
        task = replace(
            adder_task(12, 0.66), options=SynthesisOptions(max_fanout=max_fanout)
        )
        assert_results_identical(task, mutant_population(12, 6))

    @pytest.mark.parametrize("max_fanout", [2, 4])
    def test_unsorted_buffer_caps(self, max_fanout):
        # BUF variants come in drive order; here their caps are not
        # ascending, so first-fit selection is not a sorted search.
        base = scaled_library("8nm")
        scale = {1: 4, 2: 1, 4: 8, 8: 2}
        cells = [
            replace(c, input_cap=c.input_cap / c.drive * scale[c.drive])
            if c.function == "BUF" else c
            for f in base.functions() for c in base.variants(f)
        ]
        library = CellLibrary(
            "unsorted-buf", cells, base.tau_ns, base.wire_cap_per_um,
            base.bit_pitch_um, base.row_height_um,
        )
        caps = [c.input_cap for c in library.variants("BUF")]
        assert caps != sorted(caps)
        task = replace(
            adder_task(16, 0.66, library=library),
            options=SynthesisOptions(max_fanout=max_fanout),
        )
        assert_results_identical(task, mutant_population(16, 8))

    def test_sizing_passes_zero(self):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(sizing_passes=0)
        )
        assert_results_identical(task, mutant_population(8, 6))


class TestFlatColumns:
    """Every gate the structural builder emits has a finite column, so
    the packed placer needs no fanin-centroid fallback (the scalar
    placer keeps one for hand-built netlists without column hints)."""

    @pytest.mark.parametrize("build", [adder_task, gray_to_binary_task, lzd_task])
    @pytest.mark.parametrize("node", [None, "8nm"])
    def test_every_gate_column_is_finite(self, build, node):
        from repro.synth.batched import _IOTemplate, _build_flat, _tables_for

        library = scaled_library(node) if node else None
        buffers = 0
        for n in (2, 5, 16, 33):
            task = build(n, 0.66, library=library)
            graphs = [sklansky(n)] + mutant_population(n, 6 if n > 2 else 1)[1:]
            for max_fanout in (2, 3, 4, 8):
                options = replace(task.options, max_fanout=max_fanout)
                flat = _build_flat(
                    graphs,
                    _tables_for(task.library),
                    _IOTemplate(n, task.circuit_type, task.io_timing),
                    task.circuit_type,
                    options,
                )
                assert len(flat.gate_col) == flat.gate_counts.sum() > 0
                assert np.isfinite(flat.gate_col).all(), (n, max_fanout)
                buffers += int(flat.num_buffers.sum())
        assert buffers > 0  # buffer columns (members' means) are covered


class TestTaskValidation:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            adder_task(8, 0.66).evaluate_many([sklansky(16)])

    def test_fanout_below_two_rejected(self):
        # Same guard as the scalar flow's buffer_fanout.
        task = replace(adder_task(8, 0.66), options=SynthesisOptions(max_fanout=1))
        graphs = unique_graphs(8, 2)
        with pytest.raises(ValueError, match="max_fanout"):
            task.synthesize(graphs[0])
        with pytest.raises(ValueError, match="max_fanout"):
            synthesize_many(graphs, task.library, options=task.options)

    def test_unknown_circuit_type_rejected(self):
        task = adder_task(8, 0.66)
        with pytest.raises(ValueError, match="circuit type"):
            synthesize_many(unique_graphs(8, 2), task.library, "mystery")


class TestEngineRouting:
    """One dispatch rule: a single design takes ``task.synthesize``, two
    or more take ``task.evaluate_many``."""

    @staticmethod
    def scalar_metrics(task, graphs):
        results = [task.synthesize(g) for g in graphs]
        return [(r.area_um2, r.delay_ns) for r in results]

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"synthesize": 0, "evaluate_many": 0}
        for name in calls:
            real = getattr(CircuitTask, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(CircuitTask, name, counted)
        return calls

    def test_single_design_stays_scalar(self, spy):
        task = adder_task(16, 0.66)
        graphs = unique_graphs(16, 1)
        expected = self.scalar_metrics(task, graphs)
        spy["synthesize"] = 0
        assert SynthesisPool(workers=1).synthesize_batch(task, graphs) == expected
        assert spy == {"synthesize": 1, "evaluate_many": 0}

    def test_pool_vectorized_matches_scalar(self, spy):
        # Two or more designs: one evaluate_many pass per batch, in-process.
        task = adder_task(16, 0.66)
        graphs = unique_graphs(16, 6)
        expected = self.scalar_metrics(task, graphs)
        spy["synthesize"] = 0
        pool = SynthesisPool(workers=1)
        assert pool.synthesize_batch(task, graphs[:2]) == expected[:2]
        assert pool.synthesize_batch(task, graphs) == expected
        assert spy == {"synthesize": 0, "evaluate_many": 2}

    def test_pool_chunked_across_workers_matches_scalar(self, spy, monkeypatch):
        # At workers=2, below two designs per worker the batch vectorizes
        # in-process; at or above it, chunks vectorize in forked workers,
        # which inherit a scalar flow that fails if it is ever called.
        task = adder_task(16, 0.66)
        graphs = unique_graphs(16, 8)
        expected = self.scalar_metrics(task, graphs)

        def no_scalar(self, graph):
            raise AssertionError("population routed to task.synthesize")

        monkeypatch.setattr(CircuitTask, "synthesize", no_scalar)
        with SynthesisPool(workers=2) as pool:
            assert pool.synthesize_batch(task, graphs[:3]) == expected[:3]
            assert spy["evaluate_many"] == 1
            assert pool.synthesize_batch(task, graphs) == expected

    def test_engine_population_query_bit_identical(self):
        # End to end: EngineSimulator batches (vectorized) vs the plain
        # serial simulator must agree on every evaluation field.
        from repro.opt import CircuitSimulator

        task = adder_task(16, 0.66)
        graphs = unique_graphs(16, 10)
        serial = CircuitSimulator(task, budget=None).query_many(graphs)
        with EvaluationEngine() as engine:
            batched = engine.simulator(task).query_many(graphs)
        for a, b in zip(serial, batched):
            assert a.cost == b.cost
            assert a.area_um2 == b.area_um2
            assert a.delay_ns == b.delay_ns
            assert a.sim_index == b.sim_index
