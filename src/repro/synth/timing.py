"""Static timing analysis (STA) with a logical-effort delay model.

Computes per-net arrival times in topological order; a gate's delay depends
on its output load (sink pin capacitances + wire capacitance from the
placement), so sizing and buffering decisions feed back into timing exactly
as in a real flow.

Structured as a **worklist STA over an explicit** :class:`TimingState`:
:func:`retime` accepts a *dirty frontier* of gates (the gates whose cell
or output load changed) and re-evaluates only their fanout cones, cutting
propagation the moment a recomputed arrival is bitwise equal to the
stored one.  :func:`analyze_timing` is the monolithic entry point — a
fresh state re-timed with every gate dirty — so full-graph analysis and
cone-limited delta analysis share one propagation kernel and are
bit-identical by construction (``tests/test_synth_timing_golden.py``
pins the per-node values).

Supports per-bit **IO timing constraints**: input arrival offsets and output
required-time margins, the "bit input and output timings captured from a
complete datapath" of the paper's realistic experiment (Sec. 5.4).  The
reported circuit delay is ``max_o(arrival(o) + margin(o))`` over primary
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .netlist import Netlist
from .placement import wire_length

__all__ = [
    "IOTiming",
    "TimingReport",
    "TimingState",
    "analyze_timing",
    "dirty_after_swaps",
    "extract_report",
    "net_load",
    "retime",
    "timing_state",
]

#: Capacitive load (fF) presented by a primary output (downstream logic).
PO_LOAD_FF = 3.0


@dataclass(frozen=True)
class IOTiming:
    """Per-bit timing environment of the circuit.

    ``input_arrival[name]`` — time (ns) at which a primary input is stable;
    missing names default to 0.  ``output_margin[name]`` — extra required
    time (ns) charged after a primary output; missing names default to 0.
    The uniform default (empty maps) reproduces the standard-benchmark
    setting of Sec. 5.2; the datapath profiles of Sec. 5.4 are built with
    :func:`repro.circuits.adder.datapath_io_timing`.
    """

    input_arrival: Dict[str, float] = field(default_factory=dict)
    output_margin: Dict[str, float] = field(default_factory=dict)

    def arrival(self, name: str) -> float:
        return self.input_arrival.get(name, 0.0)

    def margin(self, name: str) -> float:
        return self.output_margin.get(name, 0.0)


@dataclass
class TimingReport:
    """Result of one STA run."""

    delay_ns: float
    arrival_ns: np.ndarray  # per net
    critical_output: str
    critical_path: List[int]  # gate indices, input-side first
    gate_delay_ns: np.ndarray  # per gate

    def slack_ns(self, net: int) -> float:
        """Slack of a net relative to the critical delay (>= 0)."""
        return self.delay_ns - float(self.arrival_ns[net])


@dataclass
class TimingState:
    """Mutable per-net/per-gate timing data the worklist STA maintains.

    Valid only for a fixed netlist *structure*: cell swaps are what
    :func:`retime` absorbs incrementally; adding gates or rewiring nets
    requires a fresh state.
    """

    arrival_ns: np.ndarray  # per net
    from_gate: np.ndarray  # per net: gate that set the arrival (-1 = PI)
    gate_delay_ns: np.ndarray  # per gate

    def copy(self) -> "TimingState":
        """Independent snapshot (for speculative sizing passes)."""
        return TimingState(
            self.arrival_ns.copy(), self.from_gate.copy(), self.gate_delay_ns.copy()
        )


def net_load(netlist: Netlist, net: int) -> float:
    """Capacitive load (fF) on a net: sink pins + wire + PO load."""
    load = 0.0
    for sink_index, _pin in netlist.net_sinks[net]:
        load += netlist.gates[sink_index].cell.input_cap
    load += wire_length(netlist, net) * netlist.library.wire_cap_per_um
    for po_net in netlist.primary_outputs.values():
        if po_net == net:
            load += PO_LOAD_FF
    return load


def timing_state(netlist: Netlist, io_timing: Optional[IOTiming] = None) -> TimingState:
    """A fresh (not yet propagated) state: PI arrivals set, gates untimed."""
    io_timing = io_timing or IOTiming()
    num_nets = len(netlist.net_names)
    arrival = np.zeros(num_nets)
    for name, net in netlist.primary_inputs.items():
        arrival[net] = io_timing.arrival(name)
    return TimingState(
        arrival_ns=arrival,
        from_gate=np.full(num_nets, -1, dtype=np.int64),
        gate_delay_ns=np.zeros(len(netlist.gates)),
    )


def dirty_after_swaps(netlist: Netlist, swapped: Iterable[int]) -> List[int]:
    """The dirty frontier induced by cell swaps on ``swapped`` gates.

    A swapped gate's own delay changes (new cell, and its output load may
    differ through downstream pin swaps); the *drivers of its input nets*
    see a changed load through the new pin capacitance.  Everything else
    is reached by arrival propagation inside :func:`retime`.
    """
    dirty = set()
    for gate_index in swapped:
        dirty.add(gate_index)
        for net in netlist.gates[gate_index].inputs:
            driver = netlist.net_driver[net]
            if driver >= 0:
                dirty.add(driver)
    return sorted(dirty)


def retime(
    netlist: Netlist,
    state: TimingState,
    dirty_gates: Optional[Iterable[int]] = None,
    order: Optional[Sequence[int]] = None,
) -> TimingState:
    """Worklist arrival propagation over a dirty frontier (in place).

    ``dirty_gates`` are the gates whose delay must be re-evaluated (cell
    or output load changed — see :func:`dirty_after_swaps`); ``None``
    means *all* gates (a full pass).  Gates outside the frontier are
    re-evaluated only when a fanin arrival actually changed, and
    propagation stops wherever the recomputed arrival is bitwise equal
    to the stored value — each re-evaluated gate performs the exact
    float operations of the monolithic pass, so the state after retiming
    equals a from-scratch analysis bit for bit.
    """
    tau = netlist.library.tau_ns
    arrival = state.arrival_ns
    from_gate = state.from_gate
    gate_delays = state.gate_delay_ns
    if order is None:
        order = netlist.topological_order()
    if dirty_gates is None:
        frontier = None
    else:
        frontier = np.zeros(len(netlist.gates), dtype=bool)
        frontier[list(dirty_gates)] = True
    net_dirty = np.zeros(len(netlist.net_names), dtype=bool)

    for gate_index in order:
        gate = netlist.gates[gate_index]
        if frontier is not None and not frontier[gate_index]:
            for net in gate.inputs:
                if net_dirty[net]:
                    break
            else:
                continue
        load = net_load(netlist, gate.output)
        delay = gate.cell.delay(load, tau)
        gate_delays[gate_index] = delay
        worst = 0.0
        for net in gate.inputs:
            if arrival[net] > worst:
                worst = arrival[net]
        new_arrival = worst + delay
        if frontier is None or new_arrival != arrival[gate.output]:
            arrival[gate.output] = new_arrival
            net_dirty[gate.output] = True
        from_gate[gate.output] = gate_index
    return state


def extract_report(
    netlist: Netlist, state: TimingState, io_timing: Optional[IOTiming] = None
) -> TimingReport:
    """Critical endpoint + backwards path walk over a propagated state."""
    io_timing = io_timing or IOTiming()
    arrival = state.arrival_ns
    from_gate = state.from_gate
    worst_delay = -np.inf
    critical_output = ""
    critical_net = -1
    for name, net in netlist.primary_outputs.items():
        endpoint = arrival[net] + io_timing.margin(name)
        if endpoint > worst_delay:
            worst_delay = endpoint
            critical_output = name
            critical_net = net

    # Trace the critical path backwards through worst-arrival inputs.
    path: List[int] = []
    net = critical_net
    while net >= 0 and from_gate[net] >= 0:
        gate_index = int(from_gate[net])
        path.append(gate_index)
        gate = netlist.gates[gate_index]
        net = max(gate.inputs, key=lambda n: arrival[n]) if gate.inputs else -1
    path.reverse()

    return TimingReport(
        delay_ns=float(worst_delay),
        arrival_ns=arrival,
        critical_output=critical_output,
        critical_path=path,
        gate_delay_ns=state.gate_delay_ns,
    )


def analyze_timing(netlist: Netlist, io_timing: Optional[IOTiming] = None) -> TimingReport:
    """Propagate arrival times and extract the critical path (full pass)."""
    io_timing = io_timing or IOTiming()
    state = retime(netlist, timing_state(netlist, io_timing))
    return extract_report(netlist, state, io_timing)
