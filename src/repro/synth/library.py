"""Standard-cell libraries for the synthesis flow.

The paper compiles netlists with the open 45 nm Nangate45 library (Sec. 5.1)
and, for the realistic experiment of Fig. 6, a proprietary 8 nm library.
Neither ships offline, so :func:`nangate45` models the public Nangate45
datasheet values (areas in um^2, unit-load delays via the logical-effort
model), and :func:`scaled_library` derives a technology-shrunk variant that
stands in for the 8 nm node (smaller area, faster tau, *different relative
gate costs*, which is what creates the paper's domain gap).

Delay model: a gate driving load ``C_out`` from a pin with input capacitance
``C_in`` has delay ``tau * (p + g * C_out / C_in)`` — the classic logical
effort formulation (Sutherland et al.), which is also what lightweight
physical synthesis tools use for sizing decisions.  Upsizing a cell (X2,
X4, ...) multiplies its input capacitance and area but lowers the effective
fanout ``h = C_out / C_in``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = ["Cell", "CellLibrary", "nangate45", "scaled_library", "LIBRARIES", "LIBRARY_NAMES"]

#: Functions the mapper may instantiate, with their input pin counts.
FUNCTIONS: Dict[str, int] = {
    "INV": 1,
    "BUF": 1,
    "AND2": 2,
    "OR2": 2,
    "NAND2": 2,
    "NOR2": 2,
    "XOR2": 2,
    "XNOR2": 2,
    "AOI21": 3,
}


@dataclass(frozen=True)
class Cell:
    """One standard cell (a function at a drive strength)."""

    name: str  # e.g. "AND2_X2"
    function: str  # e.g. "AND2"
    drive: int  # 1, 2, 4, ...
    area: float  # um^2
    input_cap: float  # fF per input pin
    logical_effort: float  # dimensionless g
    intrinsic_delay: float  # parasitic p, in units of tau

    @property
    def num_inputs(self) -> int:
        return FUNCTIONS[self.function]

    def delay(self, load_ff: float, tau_ns: float) -> float:
        """Propagation delay in ns for a given output load."""
        h = load_ff / self.input_cap
        return tau_ns * (self.intrinsic_delay + self.logical_effort * h)


class CellLibrary:
    """A named set of cells plus technology constants.

    Attributes
    ----------
    tau_ns:
        Delay unit of the logical-effort model (ns).
    wire_cap_per_um:
        Interconnect capacitance (fF/um) used by the placement-aware wire
        model.
    bit_pitch_um / row_height_um:
        Geometry of the virtual datapath placement (one column per bit,
        one row per logic level).
    """

    def __init__(
        self,
        name: str,
        cells: Sequence[Cell],
        tau_ns: float,
        wire_cap_per_um: float,
        bit_pitch_um: float,
        row_height_um: float,
    ):
        self.name = name
        self.tau_ns = tau_ns
        self.wire_cap_per_um = wire_cap_per_um
        self.bit_pitch_um = bit_pitch_um
        self.row_height_um = row_height_um
        self._cells: Dict[str, Cell] = {c.name: c for c in cells}
        self._by_function: Dict[str, List[Cell]] = {}
        for cell in cells:
            self._by_function.setdefault(cell.function, []).append(cell)
        for variants in self._by_function.values():
            variants.sort(key=lambda c: c.drive)

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name!r} has no cell {name!r}")

    def variants(self, function: str) -> List[Cell]:
        """All drive strengths of a function, ascending."""
        try:
            return list(self._by_function[function])
        except KeyError:
            raise KeyError(f"library {self.name!r} has no function {function!r}")

    def smallest(self, function: str) -> Cell:
        return self.variants(function)[0]

    def resize(self, cell: Cell, step: int) -> Optional[Cell]:
        """The next cell ``step`` drive positions up (+) or down (-), if any."""
        variants = self.variants(cell.function)
        idx = variants.index(cell) + step
        if 0 <= idx < len(variants):
            return variants[idx]
        return None

    def functions(self) -> List[str]:
        return sorted(self._by_function)

    def __repr__(self) -> str:
        return f"CellLibrary({self.name!r}, {len(self._cells)} cells)"


def _expand_drives(
    function: str,
    base_area: float,
    base_cap: float,
    logical_effort: float,
    intrinsic: float,
    drives: Sequence[int] = (1, 2, 4, 8),
) -> List[Cell]:
    """Generate X1..X8 variants: area and cap scale with drive, the
    intrinsic delay grows slightly (longer internal wires in wide cells)."""
    cells = []
    for drive in drives:
        cells.append(
            Cell(
                name=f"{function}_X{drive}",
                function=function,
                drive=drive,
                area=round(base_area * (0.62 + 0.38 * drive), 4),
                input_cap=base_cap * drive,
                logical_effort=logical_effort,
                intrinsic_delay=intrinsic * (1.0 + 0.04 * (drive - 1)),
            )
        )
    return cells


def nangate45() -> CellLibrary:
    """A library modeled on Nangate 45 nm OpenCell datasheet values."""
    cells: List[Cell] = []
    #                      function  area    cap   g      p
    cells += _expand_drives("INV", 0.532, 1.00, 1.00, 1.00)
    cells += _expand_drives("BUF", 0.798, 1.05, 1.15, 2.00)
    cells += _expand_drives("NAND2", 0.798, 1.20, 1.33, 1.60)
    cells += _expand_drives("NOR2", 0.798, 1.25, 1.67, 1.90)
    cells += _expand_drives("AND2", 1.064, 1.15, 1.45, 2.60)
    cells += _expand_drives("OR2", 1.064, 1.20, 1.70, 2.90)
    cells += _expand_drives("XOR2", 1.596, 1.90, 2.55, 3.80)
    cells += _expand_drives("XNOR2", 1.596, 1.90, 2.55, 3.80)
    cells += _expand_drives("AOI21", 1.064, 1.35, 1.85, 2.30)
    return CellLibrary(
        name="nangate45",
        cells=cells,
        tau_ns=0.0125,
        wire_cap_per_um=0.16,
        bit_pitch_um=1.40,
        row_height_um=1.40,
    )


def scaled_library(node: str = "8nm") -> CellLibrary:
    """A technology-shrunk library standing in for the proprietary 8 nm node.

    Relative to Nangate45: ~7x denser, ~2.8x faster tau, relatively cheaper
    XOR (modern libraries implement XOR with pass-transistor topologies) and
    relatively more expensive wires — the kind of shifts that change which
    prefix structures win, producing the domain gap Fig. 6 relies on.
    """
    if node != "8nm":
        raise ValueError(f"unknown node {node!r}; only '8nm' is modeled")
    base = nangate45()
    cells = []
    for name in sorted(base._cells):
        cell = base._cells[name]
        xor_discount = 0.80 if cell.function in ("XOR2", "XNOR2") else 1.0
        cells.append(
            Cell(
                name=cell.name,
                function=cell.function,
                drive=cell.drive,
                area=round(cell.area * 0.145, 5),
                input_cap=cell.input_cap * 0.55,
                logical_effort=cell.logical_effort * xor_discount,
                intrinsic_delay=cell.intrinsic_delay * xor_discount,
            )
        )
    return CellLibrary(
        name="scaled-8nm",
        cells=cells,
        tau_ns=0.0045,
        wire_cap_per_um=0.21,
        bit_pitch_um=0.51,
        row_height_um=0.51,
    )


#: Names of every built-in library — the authoritative list validators
#: (e.g. :class:`repro.api.TaskSpec`) check against without paying to
#: construct the libraries themselves.
LIBRARY_NAMES = ("nangate45", "8nm")


def LIBRARIES() -> Dict[str, CellLibrary]:
    """Factory map of all built-in libraries (keys = ``LIBRARY_NAMES``)."""
    return {"nangate45": nangate45(), "8nm": scaled_library("8nm")}
