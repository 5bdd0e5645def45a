"""Tests for the netlist data structure (repro.synth.netlist)."""

import pytest

from repro.synth import Netlist, nangate45
from repro.synth.placement import wire_length
from repro.synth.timing import PO_LOAD_FF, net_load


@pytest.fixture
def lib():
    return nangate45()


def small_netlist(lib):
    """y = AND(a, b); z = INV(y)."""
    nl = Netlist(lib)
    a = nl.add_input("a")
    b = nl.add_input("b")
    y = nl.add_gate(lib.cell("AND2_X1"), [a, b], name="y", column=0)
    z = nl.add_gate(lib.cell("INV_X1"), [y], name="z", column=0)
    nl.mark_output("z", z)
    return nl, (a, b, y, z)


class TestConstruction:
    def test_driver_and_sinks_consistent(self, lib):
        nl, (a, b, y, z) = small_netlist(lib)
        nl.validate()
        assert nl.net_driver[a] == -1
        assert nl.net_driver[y] == 0
        assert (1, 0) in nl.net_sinks[y]

    def test_wrong_pin_count_raises(self, lib):
        nl = Netlist(lib)
        a = nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_gate(lib.cell("AND2_X1"), [a], column=0)

    def test_area_sums_cells(self, lib):
        nl, _ = small_netlist(lib)
        expected = lib.cell("AND2_X1").area + lib.cell("INV_X1").area
        assert nl.area() == pytest.approx(expected)

    def test_count_by_function(self, lib):
        nl, _ = small_netlist(lib)
        assert nl.count_by_function() == {"AND2": 1, "INV": 1}

    def test_fanout_counts_pos(self, lib):
        nl, (a, b, y, z) = small_netlist(lib)
        assert len(nl.net_sinks[y]) == 1
        assert nl.net_sinks[z] == []
        # the primary output on z is a sink: it loads the net like a pin
        wire = wire_length(nl, z) * lib.wire_cap_per_um
        assert net_load(nl, z) == pytest.approx(wire + PO_LOAD_FF)
        inv_cap = lib.cell("INV_X1").input_cap
        assert net_load(nl, y) == pytest.approx(
            wire_length(nl, y) * lib.wire_cap_per_um + inv_cap
        )


class TestTopologicalOrder:
    def test_respects_dependencies(self, lib):
        nl, _ = small_netlist(lib)
        order = nl.topological_order()
        assert order.index(0) < order.index(1)

    def test_cycle_detection(self, lib):
        nl = Netlist(lib)
        a = nl.add_input("a")
        y = nl.add_gate(lib.cell("AND2_X1"), [a, a], name="y", column=0)
        # Manually create a cycle: feed y's output back into itself.
        nl.gates[0].inputs[1] = y
        nl.net_sinks[a].remove((0, 1))
        nl.net_sinks[y].append((0, 1))
        with pytest.raises(ValueError):
            nl.topological_order()


class TestRewrites:
    def test_swap_cell_same_function(self, lib):
        nl, _ = small_netlist(lib)
        nl.swap_cell(0, lib.cell("AND2_X4"))
        assert nl.gates[0].cell.drive == 4

    def test_swap_cell_wrong_function_raises(self, lib):
        nl, _ = small_netlist(lib)
        with pytest.raises(ValueError):
            nl.swap_cell(0, lib.cell("OR2_X1"))

    def test_rewire_sink(self, lib):
        nl, (a, b, y, z) = small_netlist(lib)
        buf_out = nl.add_gate(lib.cell("BUF_X1"), [y], name="ybuf", column=0)
        nl.rewire_sink(y, (1, 0), buf_out)
        nl.validate()
        assert nl.gates[1].inputs[0] == buf_out


class TestEvaluate:
    def test_boolean_semantics(self, lib):
        nl, _ = small_netlist(lib)
        assert nl.evaluate({"a": 1, "b": 1})["z"] is False
        assert nl.evaluate({"a": 1, "b": 0})["z"] is True

    def test_aoi21_truth_table(self, lib):
        nl = Netlist(lib)
        a, b, c = (nl.add_input(x) for x in "abc")
        z = nl.add_gate(lib.cell("AOI21_X1"), [a, b, c], name="z", column=0)
        nl.mark_output("z", z)
        for va in (0, 1):
            for vb in (0, 1):
                for vc in (0, 1):
                    got = nl.evaluate({"a": va, "b": vb, "c": vc})["z"]
                    assert got == (not ((va and vb) or vc))

    def test_missing_input_raises(self, lib):
        nl, _ = small_netlist(lib)
        with pytest.raises(KeyError):
            nl.evaluate({"a": 1})


class TestRepr:
    def test_repr(self, lib):
        nl, _ = small_netlist(lib)
        assert "2 gates" in repr(nl)
