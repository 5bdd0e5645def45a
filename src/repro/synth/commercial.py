"""Emulation of a commercial synthesis tool (the Fig. 6 evaluator).

The paper's realistic experiment searches with the open flow but *evaluates*
the best candidates with a commercial design tool, noting "the domain gap in
the cost function between training and evaluation: the commercial tool makes
different choices with respect to netlist buffering, gate sizing, cell
placement, etc."

:class:`CommercialTool` reproduces exactly that: it is a second, stronger
and differently-tuned physical synthesis configuration —

* higher sizing effort (more passes, tighter convergence),
* more aggressive buffering threshold (3 instead of 4),
* the alternative AND-OR mapping is also tried and the better result kept,
* a slightly different wire model (commercial routers achieve shorter
  wires; emulated by a 0.9 capacitance factor),

so a circuit's commercial (area, delay) correlates with — but does not
equal — the search-time flow's numbers.  The tool also *provides* its own
adder implementations (:meth:`provided_adders`): the best classical
structure per objective, which is what "the design tool's provided adders"
means in Fig. 6.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..prefix.graph import PrefixGraph
from ..prefix.structures import STRUCTURES
from .library import CellLibrary
from .physical import PhysicalResult, SynthesisOptions, synthesize
from .timing import IOTiming

__all__ = ["CommercialTool"]


def _rescale_wire(library: CellLibrary, factor: float) -> CellLibrary:
    """A copy of ``library`` with the wire capacitance scaled by ``factor``."""
    return CellLibrary(
        name=f"{library.name}-routed",
        cells=[library.cell(name) for name in sorted(library._cells)],
        tau_ns=library.tau_ns,
        wire_cap_per_um=library.wire_cap_per_um * factor,
        bit_pitch_um=library.bit_pitch_um,
        row_height_um=library.row_height_um,
    )


class CommercialTool:
    """A stronger, differently-configured synthesis flow.

    Parameters
    ----------
    library:
        Technology library (typically the scaled 8 nm library for Fig. 6).
    io_timing:
        Datapath timing context shared by all evaluations.
    """

    def __init__(self, library: CellLibrary, io_timing: Optional[IOTiming] = None):
        self.library = _rescale_wire(library, 0.9)
        self.io_timing = io_timing or IOTiming()
        self._options = [
            SynthesisOptions(
                max_fanout=3, sizing_passes=12, area_recovery=True,
                slack_threshold=0.25, mapping_style="aoi",
            ),
            SynthesisOptions(
                max_fanout=3, sizing_passes=12, area_recovery=True,
                slack_threshold=0.25, mapping_style="andor",
            ),
        ]

    def evaluate(self, graph: PrefixGraph, circuit_type: str = "adder") -> PhysicalResult:
        """Synthesize with both mapping styles, keep the faster result
        (commercial tools time-optimize first, then recover area)."""
        results = [
            synthesize(graph, self.library, circuit_type, self.io_timing, options)
            for options in self._options
        ]
        return min(results, key=lambda r: (r.delay_ns, r.area_um2))

    def provided_adders(self, n: int) -> Dict[str, PhysicalResult]:
        """The tool's own adder offerings: every classical structure,
        synthesized at full effort.  Fig. 6's 'design tool' frontier."""
        return {
            name: self.evaluate(builder(n), circuit_type="adder")
            for name, builder in STRUCTURES.items()
        }
