"""Tests for placement and static timing analysis (repro.synth.timing)."""

import pytest

from repro.prefix import kogge_stone, ripple_carry, sklansky
from repro.synth import (
    IOTiming,
    analyze_timing,
    map_adder,
    nangate45,
    net_load,
    place_datapath,
    total_wire_length,
    wire_length,
)


@pytest.fixture(scope="module")
def lib():
    return nangate45()


def placed_netlist(graph, lib):
    nl = map_adder(graph, lib)
    place_datapath(nl)
    return nl


class TestPlacement:
    def test_columns_respect_bit_positions(self, lib):
        nl = placed_netlist(ripple_carry(8), lib)
        # Sum XOR for bit 7 sits at column 7.
        s7 = next(g for g in nl.gates if nl.net_names[g.output] == "s7")
        assert s7.x == pytest.approx(7 * lib.bit_pitch_um)

    def test_rows_grow_with_depth(self, lib):
        nl = placed_netlist(ripple_carry(8), lib)
        ys = [g.y for g in nl.gates]
        assert max(ys) > min(ys)

    def test_wire_length_positive_for_long_spans(self, lib):
        nl = placed_netlist(kogge_stone(16), lib)
        assert total_wire_length(nl) > 0

    def test_kogge_stone_wires_longest_of_log_depth_structures(self, lib):
        """KS's cross-datapath spans cost wirelength relative to Sklansky,
        one of the physical penalties the wire model must capture."""
        ks = placed_netlist(kogge_stone(16), lib)
        skl = placed_netlist(sklansky(16), lib)
        assert total_wire_length(ks) > total_wire_length(skl)

    def test_wire_length_zero_for_same_position(self, lib):
        nl = placed_netlist(ripple_carry(4), lib)
        for net in range(len(nl.net_names)):
            assert wire_length(nl, net) >= 0.0


class TestTiming:
    def test_arrival_monotone_along_paths(self, lib):
        nl = placed_netlist(sklansky(8), lib)
        report = analyze_timing(nl)
        for gate in nl.gates:
            out_arrival = report.arrival_ns[gate.output]
            for net in gate.inputs:
                assert out_arrival > report.arrival_ns[net] - 1e-12

    def test_delay_positive_and_finite(self, lib):
        report = analyze_timing(placed_netlist(sklansky(16), lib))
        assert 0 < report.delay_ns < 100

    def test_ripple_slower_than_sklansky(self, lib):
        ripple = analyze_timing(placed_netlist(ripple_carry(16), lib))
        skl = analyze_timing(placed_netlist(sklansky(16), lib))
        assert ripple.delay_ns > skl.delay_ns

    def test_critical_path_is_connected(self, lib):
        nl = placed_netlist(sklansky(16), lib)
        report = analyze_timing(nl)
        assert report.critical_path
        for up, down in zip(report.critical_path[:-1], report.critical_path[1:]):
            assert nl.gates[up].output in nl.gates[down].inputs

    def test_critical_output_is_worst(self, lib):
        nl = placed_netlist(sklansky(8), lib)
        report = analyze_timing(nl)
        worst = max(nl.primary_outputs, key=lambda o: report.arrival_ns[nl.primary_outputs[o]])
        assert report.critical_output == worst

    def test_slack_nonnegative_on_critical_delay(self, lib):
        nl = placed_netlist(sklansky(8), lib)
        report = analyze_timing(nl)
        for net in range(len(nl.net_names)):
            assert report.slack_ns(net) >= -1e-9


class TestIOTiming:
    def test_input_arrival_shifts_delay(self, lib):
        nl = placed_netlist(sklansky(8), lib)
        base = analyze_timing(nl).delay_ns
        late_a = IOTiming(input_arrival={f"a[{i}]": 1.0 for i in range(8)})
        shifted = analyze_timing(nl, late_a).delay_ns
        assert shifted >= base + 0.5

    def test_output_margin_adds(self, lib):
        nl = placed_netlist(sklansky(8), lib)
        base = analyze_timing(nl)
        margined = analyze_timing(
            nl, IOTiming(output_margin={base.critical_output: 2.0})
        )
        assert margined.delay_ns == pytest.approx(base.delay_ns + 2.0)

    def test_nonuniform_arrival_changes_critical_output(self, lib):
        nl = placed_netlist(sklansky(8), lib)
        # Make bit 0's input absurdly late: s[1] (first bit using a carry
        # that depends on bit 0) or a downstream output becomes critical.
        skewed = analyze_timing(
            nl, IOTiming(input_arrival={"a[0]": 5.0, "b[0]": 5.0})
        )
        assert skewed.delay_ns > 5.0

    def test_net_load_includes_po(self, lib):
        nl = placed_netlist(ripple_carry(4), lib)
        po_net = nl.primary_outputs["s[2]"]
        assert net_load(nl, po_net) >= 3.0  # PO_LOAD_FF
