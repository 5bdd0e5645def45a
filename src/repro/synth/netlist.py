"""Gate-level netlist data structure.

The output of technology mapping and the object the physical-synthesis
passes (buffering, sizing) rewrite.  Nets and gates are integer-indexed for
speed; names exist for debugging and the Verilog-ish dump.

A net has exactly one driver (a gate output or a primary input) and any
number of sinks.  Primary outputs are named references to nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .library import Cell, CellLibrary

__all__ = ["Gate", "Netlist"]


def _eval_function(function: str, pins: Sequence[bool]) -> bool:
    """Boolean semantics of every supported cell function."""
    if function == "INV":
        return not pins[0]
    if function == "BUF":
        return bool(pins[0])
    if function == "AND2":
        return pins[0] and pins[1]
    if function == "OR2":
        return pins[0] or pins[1]
    if function == "NAND2":
        return not (pins[0] and pins[1])
    if function == "NOR2":
        return not (pins[0] or pins[1])
    if function == "XOR2":
        return pins[0] != pins[1]
    if function == "XNOR2":
        return pins[0] == pins[1]
    if function == "AOI21":
        # Z = !((A & B) | C)
        return not ((pins[0] and pins[1]) or pins[2])
    raise KeyError(f"no boolean model for cell function {function!r}")


@dataclass
class Gate:
    """One placed cell instance.

    ``column`` is the datapath bit column this gate logically belongs to
    (set by technology mapping from the span it implements, or by buffer
    insertion from its sink centroid); the placer turns it into ``x``.
    """

    index: int
    cell: Cell
    inputs: List[int]  # net indices, one per pin
    output: int  # net index
    column: float  # datapath bit column
    x: float = 0.0  # placement coordinates (um)
    y: float = 0.0

    def __repr__(self) -> str:
        return f"Gate({self.index}, {self.cell.name}, in={self.inputs}, out={self.output})"


class Netlist:
    """A combinational gate-level netlist.

    Net bookkeeping: ``net_driver[n]`` is the driving gate index or -1 for
    primary inputs; ``net_sinks[n]`` lists ``(gate_index, pin)`` pairs.
    Primary outputs may also "sink" a net; they contribute to fanout via
    ``po_load_ff`` during timing but have no gate index.
    """

    def __init__(self, library: CellLibrary):
        self.library = library
        self.gates: List[Gate] = []
        self.net_names: List[str] = []
        self.net_driver: List[int] = []  # -1 = primary input
        self.net_sinks: List[List[Tuple[int, int]]] = []
        self.primary_inputs: Dict[str, int] = {}
        self.primary_outputs: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> int:
        index = len(self.net_names)
        self.net_names.append(name)
        self.net_driver.append(-1)
        self.net_sinks.append([])
        return index

    def add_input(self, name: str) -> int:
        net = self.add_net(name)
        self.primary_inputs[name] = net
        return net

    def mark_output(self, name: str, net: int) -> None:
        self.primary_outputs[name] = net

    def add_gate(
        self,
        cell: Cell,
        inputs: Sequence[int],
        name: str = "",
        *,
        column: float,
    ) -> int:
        """Instantiate ``cell`` on the given input nets at datapath bit
        ``column``; returns the output net."""
        if len(inputs) != cell.num_inputs:
            raise ValueError(
                f"{cell.name} needs {cell.num_inputs} inputs, got {len(inputs)}"
            )
        out_net = self.add_net(name or f"n{len(self.net_names)}")
        gate = Gate(
            index=len(self.gates), cell=cell, inputs=list(inputs), output=out_net,
            column=column,
        )
        self.gates.append(gate)
        self.net_driver[out_net] = gate.index
        for pin, net in enumerate(inputs):
            self.net_sinks[net].append((gate.index, pin))
        return out_net

    # ------------------------------------------------------------------
    # Rewrites (physical synthesis)
    # ------------------------------------------------------------------
    def swap_cell(self, gate_index: int, cell: Cell) -> None:
        """Replace a gate's cell with a same-function variant (sizing)."""
        old = self.gates[gate_index].cell
        if cell.function != old.function:
            raise ValueError(f"cannot swap {old.function} for {cell.function}")
        self.gates[gate_index].cell = cell

    def rewire_sink(self, net: int, sink: Tuple[int, int], new_net: int) -> None:
        """Move one (gate, pin) sink from ``net`` onto ``new_net``."""
        self.net_sinks[net].remove(sink)
        gate_index, pin = sink
        self.gates[gate_index].inputs[pin] = new_net
        self.net_sinks[new_net].append(sink)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def area(self) -> float:
        """Total cell area in um^2."""
        return sum(g.cell.area for g in self.gates)

    def count_by_function(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for gate in self.gates:
            counts[gate.cell.function] = counts.get(gate.cell.function, 0) + 1
        return dict(sorted(counts.items()))

    def topological_order(self) -> List[int]:
        """Gate indices in dependency order (inputs before consumers)."""
        indegree = [0] * len(self.gates)
        for gate in self.gates:
            for net in gate.inputs:
                if self.net_driver[net] >= 0:
                    indegree[gate.index] += 1
        ready = [i for i, d in enumerate(indegree) if d == 0]
        order: List[int] = []
        while ready:
            gate_index = ready.pop()
            order.append(gate_index)
            for sink_index, _pin in self.net_sinks[self.gates[gate_index].output]:
                indegree[sink_index] -= 1
                if indegree[sink_index] == 0:
                    ready.append(sink_index)
        if len(order) != len(self.gates):
            raise ValueError("netlist contains a combinational cycle")
        return order

    def validate(self) -> None:
        """Structural sanity: drivers/sinks consistent, no dangling pins."""
        for gate in self.gates:
            if self.net_driver[gate.output] != gate.index:
                raise AssertionError(f"driver mismatch on net {gate.output}")
            for pin, net in enumerate(gate.inputs):
                if (gate.index, pin) not in self.net_sinks[net]:
                    raise AssertionError(f"sink list missing gate {gate.index} pin {pin}")
        for name, net in self.primary_outputs.items():
            if not (0 <= net < len(self.net_names)):
                raise AssertionError(f"primary output {name} references bad net {net}")
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------------
    # Logic simulation
    # ------------------------------------------------------------------
    def evaluate(self, inputs: Dict[str, bool]) -> Dict[str, bool]:
        """Boolean-simulate the netlist; returns primary-output values.

        Used to verify that technology mapping preserved the circuit's
        function (the netlist must compute exactly what the prefix graph
        denotes).  ``inputs`` maps every primary-input name to a bit.
        """
        values: List[Optional[bool]] = [None] * len(self.net_names)
        for name, net in self.primary_inputs.items():
            if name not in inputs:
                raise KeyError(f"missing value for primary input {name!r}")
            values[net] = bool(inputs[name])
        for gate_index in self.topological_order():
            gate = self.gates[gate_index]
            pins = [values[net] for net in gate.inputs]
            if any(p is None for p in pins):
                raise AssertionError(f"gate {gate_index} evaluated before its inputs")
            values[gate.output] = _eval_function(gate.cell.function, pins)
        return {name: bool(values[net]) for name, net in self.primary_outputs.items()}

    def __repr__(self) -> str:
        return (
            f"Netlist({len(self.gates)} gates, {len(self.net_names)} nets, "
            f"{len(self.primary_inputs)} PIs, {len(self.primary_outputs)} POs)"
        )
