"""Physical synthesis: buffering + gate sizing on top of STA.

This is the OpenPhySyn stand-in (see DESIGN.md).  Given a mapped netlist it
runs the classic lightweight optimization loop:

1. **Fanout buffering** — nets driving more than ``max_fanout`` sinks get a
   buffer tree (built greedily over sink groups), which is what rescues
   high-fanout structures like Sklansky from quadratic slowdown.
2. **Critical-path sizing** — greedy upsizing of gates on the critical path
   when the logical-effort model predicts a net win (own delay drop minus
   the extra delay induced on the fanin driver by the larger pin).
3. **Area recovery** — downsizing of gates with large positive slack.

The loop is deterministic, so the simulator built on it is a pure function
of the prefix graph — a property the optimizer's caching relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..prefix.graph import PrefixGraph
from .library import CellLibrary
from .mapping import map_prefix_graph
from .netlist import Netlist
from .placement import place_datapath, total_wire_length
from .timing import (
    IOTiming,
    TimingReport,
    dirty_after_swaps,
    extract_report,
    net_load,
    retime,
    timing_state,
)

__all__ = ["SynthesisOptions", "PhysicalResult", "buffer_fanout", "size_gates", "synthesize"]


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs of the physical synthesis flow.

    The defaults are the search-time flow; the commercial-tool emulation
    overrides them (more effort, different thresholds) to create the
    Fig. 6 domain gap.
    """

    max_fanout: int = 4
    sizing_passes: int = 6
    area_recovery: bool = True
    slack_threshold: float = 0.30  # fraction of delay above which to downsize
    mapping_style: str = "aoi"


@dataclass
class PhysicalResult:
    """Outcome of synthesizing one circuit."""

    area_um2: float
    delay_ns: float
    num_gates: int
    num_buffers: int
    wirelength_um: float
    cell_counts: Dict[str, int]
    critical_output: str

    def __repr__(self) -> str:
        return (
            f"PhysicalResult(area={self.area_um2:.1f}um2, delay={self.delay_ns:.3f}ns, "
            f"gates={self.num_gates})"
        )


def buffer_fanout(netlist: Netlist, max_fanout: int = 4) -> int:
    """Insert buffer trees on nets whose sink count exceeds ``max_fanout``.

    Returns the number of buffers inserted.  Buffer drive strength is
    chosen from the load it must drive.  Primary-output sinks are never
    rebuffered (outputs must stay connected to their logical net).
    """
    if max_fanout < 2:
        raise ValueError("max_fanout must be >= 2")
    buf_variants = netlist.library.variants("BUF")
    inserted = 0
    queue = list(range(len(netlist.net_names)))
    while queue:
        net = queue.pop()
        sinks = list(netlist.net_sinks[net])
        if len(sinks) <= max_fanout:
            continue
        # Move *every* sink behind a buffer; the net then drives only the
        # buffers.  If there are more than max_fanout buffers, the net is
        # re-queued and gets a second buffer level — fanout shrinks by a
        # factor of max_fanout per level, so this terminates.
        groups = [sinks[k : k + max_fanout] for k in range(0, len(sinks), max_fanout)]
        for group in groups:
            load = sum(netlist.gates[g].cell.input_cap for g, _ in group)
            cell = buf_variants[0]
            for variant in buf_variants:
                cell = variant
                if variant.input_cap * 4.0 >= load:
                    break
            centroid = sum(netlist.gates[g].column for g, _ in group) / len(group)
            buf_out = netlist.add_gate(
                cell, [net], name=f"buf{len(netlist.gates)}", column=centroid
            )
            inserted += 1
            for sink in group:
                netlist.rewire_sink(net, sink, buf_out)
        if len(netlist.net_sinks[net]) > max_fanout:
            queue.append(net)
    return inserted


def _upsizing_gain(netlist: Netlist, gate_index: int, report: TimingReport) -> Tuple[float, Optional[int]]:
    """Predicted delay change (negative = good) from upsizing one step.

    Accounts for the gate's own speedup at constant load and the slowdown of
    each fanin driver due to the increased pin capacitance.
    """
    gate = netlist.gates[gate_index]
    bigger = netlist.library.resize(gate.cell, +1)
    if bigger is None:
        return 0.0, None
    tau = netlist.library.tau_ns
    load = net_load(netlist, gate.output)
    own_delta = bigger.delay(load, tau) - gate.cell.delay(load, tau)
    cap_delta = bigger.input_cap - gate.cell.input_cap
    fanin_delta = 0.0
    for net in gate.inputs:
        driver = netlist.net_driver[net]
        if driver >= 0:
            drv_cell = netlist.gates[driver].cell
            fanin_delta += tau * drv_cell.logical_effort * cap_delta / drv_cell.input_cap
    return own_delta + fanin_delta, gate_index


def size_gates(
    netlist: Netlist,
    io_timing: IOTiming,
    passes: int = 6,
    area_recovery: bool = True,
    slack_threshold: float = 0.30,
) -> TimingReport:
    """Iterative critical-path upsizing + slack-driven area recovery.

    Each pass is accepted only if it improves (or at least preserves) the
    critical delay; a regressing pass is rolled back and the loop stops,
    so the flow is monotone in delay and always terminates.
    """
    # One worklist-STA state carried across passes: each speculative pass
    # re-times only the fanout cones of the gates it actually swapped
    # (plus their fanin drivers, whose loads changed) instead of paying a
    # full-graph pass — bit-identical to re-analyzing from scratch, see
    # repro.synth.timing.retime.
    order = netlist.topological_order()
    state = retime(netlist, timing_state(netlist, io_timing), order=order)
    report = extract_report(netlist, state, io_timing)
    for _ in range(passes):
        snapshot = [gate.cell for gate in netlist.gates]
        swapped: List[int] = []
        # Upsize along the critical path, worst offenders first.
        path = sorted(
            report.critical_path,
            key=lambda g: -report.gate_delay_ns[g],
        )
        for gate_index in path:
            delta, target = _upsizing_gain(netlist, gate_index, report)
            if target is not None and delta < -1e-6:
                bigger = netlist.library.resize(netlist.gates[gate_index].cell, +1)
                netlist.swap_cell(gate_index, bigger)
                swapped.append(gate_index)
        if area_recovery:
            threshold = slack_threshold * report.delay_ns
            for gate in netlist.gates:
                if gate.cell.drive == 1:
                    continue
                if report.slack_ns(gate.output) > threshold:
                    smaller = netlist.library.resize(gate.cell, -1)
                    if smaller is not None:
                        netlist.swap_cell(gate.index, smaller)
                        swapped.append(gate.index)
        if not swapped:
            break
        new_state = retime(
            netlist,
            state.copy(),
            dirty_gates=dirty_after_swaps(netlist, swapped),
            order=order,
        )
        new_report = extract_report(netlist, new_state, io_timing)
        if new_report.delay_ns > report.delay_ns + 1e-12:
            # The greedy local model mispredicted: roll back and stop.
            for gate, cell in zip(netlist.gates, snapshot):
                gate.cell = cell
            break
        state, report = new_state, new_report
    return report


def synthesize(
    graph: PrefixGraph,
    library: CellLibrary,
    circuit_type: str = "adder",
    io_timing: Optional[IOTiming] = None,
    options: Optional[SynthesisOptions] = None,
) -> PhysicalResult:
    """Run the full flow: map -> place -> buffer -> size -> report."""
    io_timing = io_timing or IOTiming()
    options = options or SynthesisOptions()
    netlist = map_prefix_graph(graph, library, circuit_type, style=options.mapping_style)
    place_datapath(netlist)
    num_buffers = buffer_fanout(netlist, options.max_fanout)
    place_datapath(netlist)
    report = size_gates(
        netlist,
        io_timing,
        passes=options.sizing_passes,
        area_recovery=options.area_recovery,
        slack_threshold=options.slack_threshold,
    )
    return PhysicalResult(
        area_um2=netlist.area(),
        delay_ns=report.delay_ns,
        num_gates=len(netlist.gates),
        num_buffers=num_buffers,
        wirelength_um=total_wire_length(netlist),
        cell_counts=netlist.count_by_function(),
        critical_output=report.critical_output,
    )
