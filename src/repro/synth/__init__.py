"""``repro.synth`` — the physical-synthesis substrate.

Standing in for OpenROAD/OpenPhySyn + Nangate45 (see DESIGN.md): cell
libraries, technology mapping of prefix graphs, placement-aware static
timing, fanout buffering, gate sizing, the paper's scalar cost function,
and the commercial-tool emulation used by the Fig. 6 experiment.
"""

from .batched import synthesize_many
from .commercial import CommercialTool
from .cost import AREA_SCALE, DELAY_SCALE, CostWeights, cost_from_metrics
from .library import Cell, CellLibrary, LIBRARIES, nangate45, scaled_library
from .mapping import (
    map_adder,
    map_gray_to_binary,
    map_leading_zero_detector,
    map_prefix_graph,
)
from .netlist import Gate, Netlist
from .physical import (
    PhysicalResult,
    SynthesisOptions,
    buffer_fanout,
    size_gates,
    synthesize,
)
from .placement import place_datapath, total_wire_length, wire_length
from .timing import (
    IOTiming,
    TimingReport,
    TimingState,
    analyze_timing,
    dirty_after_swaps,
    extract_report,
    net_load,
    retime,
    timing_state,
)

__all__ = [
    "Cell",
    "CellLibrary",
    "LIBRARIES",
    "nangate45",
    "scaled_library",
    "Gate",
    "Netlist",
    "map_adder",
    "map_gray_to_binary",
    "map_leading_zero_detector",
    "map_prefix_graph",
    "place_datapath",
    "wire_length",
    "total_wire_length",
    "IOTiming",
    "TimingReport",
    "TimingState",
    "analyze_timing",
    "dirty_after_swaps",
    "extract_report",
    "net_load",
    "retime",
    "timing_state",
    "SynthesisOptions",
    "PhysicalResult",
    "buffer_fanout",
    "size_gates",
    "synthesize",
    "synthesize_many",
    "CostWeights",
    "cost_from_metrics",
    "DELAY_SCALE",
    "AREA_SCALE",
    "CommercialTool",
]
