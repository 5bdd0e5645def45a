"""Virtual datapath placement and the wire model.

Real prefix adders are laid out as bit-sliced datapaths: one column per
output bit, rows stacked by logic depth.  Technology mapping annotates each
gate with the bit ``column`` of the span it implements (results live at
their span's msb column, the datapath convention); buffer insertion places
buffers at the centroid of their sink group.  The placer assigns
``x = column * bit_pitch`` and ``y = logic_level * row_height``; wire
length between a driver and its sinks is Manhattan distance in this grid
and contributes capacitance to the driver's load during timing analysis.

This is where structures with long cross-datapath wires (Kogge-Stone's
upper levels span half the adder) pay a realistic penalty that a pure
gate-count model would miss — one of the physical effects the paper
emphasizes ("the actual delay of a fully synthesized and laid-out circuit
depends in a complicated way on many other physical factors").
"""

from __future__ import annotations

import re
from typing import List

from .netlist import Netlist

__all__ = ["place_datapath", "wire_length", "total_wire_length", "input_column"]

_PIN_RE = re.compile(r"\[(\d+)\]")


def input_column(netlist: Netlist, net: int) -> float:
    """Bit column of a primary-input net, parsed from its ``name[bit]``."""
    match = _PIN_RE.search(netlist.net_names[net])
    return float(match.group(1)) if match else 0.0


def place_datapath(netlist: Netlist) -> None:
    """Assign (x, y) coordinates in um to every gate, in place."""
    library = netlist.library
    depth: List[int] = [0] * len(netlist.gates)
    for gate_index in netlist.topological_order():
        gate = netlist.gates[gate_index]
        level = 0
        for net in gate.inputs:
            driver = netlist.net_driver[net]
            if driver >= 0:
                level = max(level, depth[driver] + 1)
        depth[gate_index] = level
        gate.x = gate.column * library.bit_pitch_um
        gate.y = level * library.row_height_um


def wire_length(netlist: Netlist, net: int) -> float:
    """Total Manhattan wirelength (um) of a net (driver to each sink)."""
    driver = netlist.net_driver[net]
    if driver < 0:
        x0 = input_column(netlist, net) * netlist.library.bit_pitch_um
        y0 = 0.0
    else:
        gate = netlist.gates[driver]
        x0, y0 = gate.x, gate.y
    length = 0.0
    for sink_index, _pin in netlist.net_sinks[net]:
        sink = netlist.gates[sink_index]
        length += abs(sink.x - x0) + abs(sink.y - y0)
    return length


def total_wire_length(netlist: Netlist) -> float:
    """Sum of all net wirelengths (um) — reported in synthesis stats."""
    return sum(wire_length(netlist, net) for net in range(len(netlist.net_names)))
