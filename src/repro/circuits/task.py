"""Circuit design tasks: what the optimizer is asked to build.

A :class:`CircuitTask` bundles everything that defines one optimization
problem from the paper's experiment grid: circuit type (adder,
gray-to-binary converter or leading-zero detector), bitwidth, cell
library, IO timing environment and the delay weight omega.  The simulator facade in :mod:`repro.opt.simulator`
turns a task into a black-box cost oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..prefix.graph import PrefixGraph
from ..synth.batched import synthesize_many
from ..synth.cost import cost_from_metrics
from ..synth.library import CellLibrary, nangate45
from ..synth.physical import PhysicalResult, SynthesisOptions, synthesize
from ..synth.timing import IOTiming

__all__ = ["CircuitTask"]


#: Every prefix computation the synthesis flow can map.  'adder' is the
#: carry-prefix network of Sec. 5.2, 'gray' the XOR-prefix gray-to-binary
#: converter of Sec. 5.5, 'lzd' the OR-prefix leading-zero detector the
#: paper's conclusion proposes.
_CIRCUIT_TYPES = ("adder", "gray", "lzd")


@dataclass(frozen=True)
class CircuitTask:
    """One black-box circuit optimization problem.

    Parameters mirror the paper's experiment axes (Sec. 3, 5.2): ``n`` is
    the bitwidth, ``delay_weight`` is omega, ``circuit_type`` selects the
    cell mapping — 'adder' (carry prefix, Sec. 5.2), 'gray' (XOR prefix,
    Sec. 5.5) or 'lzd' (OR prefix, the paper's suggested extension); see
    :meth:`circuit_types`.
    """

    name: str
    n: int
    delay_weight: float
    circuit_type: str = "adder"
    library: CellLibrary = field(default_factory=nangate45)
    io_timing: IOTiming = field(default_factory=IOTiming)
    options: SynthesisOptions = field(default_factory=SynthesisOptions)

    @staticmethod
    def circuit_types() -> tuple:
        """The supported ``circuit_type`` values (shared with validators,
        e.g. :class:`repro.api.TaskSpec`)."""
        return _CIRCUIT_TYPES

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("tasks need at least 2 bits")
        if self.circuit_type not in self.circuit_types():
            raise ValueError(
                f"unknown circuit type {self.circuit_type!r}; "
                f"choose from {self.circuit_types()}"
            )
        if not 0.0 <= self.delay_weight <= 1.0:
            raise ValueError("delay_weight must be in [0, 1]")

    def synthesize(self, graph: PrefixGraph) -> PhysicalResult:
        """Run the physical flow on one legal graph."""
        if graph.n != self.n:
            raise ValueError(f"graph width {graph.n} != task width {self.n}")
        return synthesize(
            graph, self.library, self.circuit_type, self.io_timing, self.options
        )

    def evaluate_many(self, graphs: Sequence[PrefixGraph]) -> List[PhysicalResult]:
        """Synthesize a whole population through the vectorized fast path.

        Results are bit-identical to calling :meth:`synthesize` on each
        graph (see :mod:`repro.synth.batched`); only wall-clock differs.
        """
        graphs = list(graphs)
        for graph in graphs:
            if graph.n != self.n:
                raise ValueError(
                    f"graph width {graph.n} != task width {self.n}"
                )
        return synthesize_many(
            graphs, self.library, self.circuit_type, self.io_timing, self.options
        )

    # Uncalled alias, kept because perfbench/layers.py patches this name.
    evaluate_population = evaluate_many

    def cost(self, result: PhysicalResult) -> float:
        """Scalar cost of a synthesis result under this task's omega."""
        return cost_from_metrics(result.area_um2, result.delay_ns, self.delay_weight)
