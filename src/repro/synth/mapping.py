"""Technology mapping: prefix graph -> gate-level netlist.

"Prefix graphs are translated into physical circuits through cell mapping
(which translates the logical graph into a list of electrical components
with a lookup table)" — paper Sec. 3.  Two mappings are provided, matching
the paper's two tasks; both share the span-decomposition structure so the
*same* prefix graph maps to either circuit type:

* :func:`map_adder` — generate/propagate cells.  Leaves compute
  ``g = AND(a,b)``, ``p = XOR(a,b)``; each prefix operator computes
  ``g' = g_up + p_up * g_lo`` (as AOI21 + INV, the standard fast mapping)
  and ``p' = AND(p_up, p_lo)``; sum bits are a final XOR against the
  carries.  Output-column spans skip the propagate network (no consumer),
  which is the usual prefix-adder area optimization.

* :func:`map_gray_to_binary` — each operator is a single XOR2; leaves are
  the (reversed) gray inputs, outputs are the decoded binary bits.
"""

from __future__ import annotations

from typing import Dict, Literal

from ..prefix.graph import PrefixGraph, Span
from .library import CellLibrary
from .netlist import Netlist

__all__ = ["map_adder", "map_gray_to_binary", "map_leading_zero_detector", "map_prefix_graph"]

AdderStyle = Literal["aoi", "andor"]


def map_adder(graph: PrefixGraph, library: CellLibrary, style: AdderStyle = "aoi") -> Netlist:
    """Map a prefix graph to a full binary-adder netlist.

    ``style='aoi'`` maps the carry operator as INV(AOI21(p_up, g_lo, g_up))
    (2 cells, fast); ``style='andor'`` uses OR2(g_up, AND2(p_up, g_lo))
    (also 2 cells, slower but sometimes smaller at low drive).
    """
    n = graph.n
    netlist = Netlist(library)
    a_nets = [netlist.add_input(f"a[{i}]") for i in range(n)]
    b_nets = [netlist.add_input(f"b[{i}]") for i in range(n)]

    and2 = library.smallest("AND2")
    xor2 = library.smallest("XOR2")
    or2 = library.smallest("OR2")
    aoi21 = library.smallest("AOI21")
    inv = library.smallest("INV")

    # Leaf generate/propagate.
    g_net: Dict[Span, int] = {}
    p_net: Dict[Span, int] = {}
    for i in range(n):
        g_net[(i, i)] = netlist.add_gate(and2, [a_nets[i], b_nets[i]], name=f"g{i}_{i}", column=i)
        p_net[(i, i)] = netlist.add_gate(xor2, [a_nets[i], b_nets[i]], name=f"p{i}_{i}", column=i)

    # Prefix operators, bottom-up.
    needs_propagate = _propagate_consumers(graph)
    for node in graph.topological_order():
        i, j = node
        if i == j:
            continue
        upper, lower = graph.parents(i, j)
        if style == "aoi":
            # g' = !AOI21(p_up, g_lo, g_up) = g_up | (p_up & g_lo)
            aoi_out = netlist.add_gate(
                aoi21, [p_net[upper], g_net[lower], g_net[upper]], name=f"aoi{i}_{j}", column=i
            )
            g_net[node] = netlist.add_gate(inv, [aoi_out], name=f"g{i}_{j}", column=i)
        else:
            and_out = netlist.add_gate(
                and2, [p_net[upper], g_net[lower]], name=f"pg{i}_{j}", column=i
            )
            g_net[node] = netlist.add_gate(
                or2, [g_net[upper], and_out], name=f"g{i}_{j}", column=i
            )
        if node in needs_propagate:
            p_net[node] = netlist.add_gate(
                and2, [p_net[upper], p_net[lower]], name=f"p{i}_{j}", column=i
            )

    # Sum stage: s_0 = p_0; s_i = p_i XOR c_{i-1}; cout = c_{n-1}.
    netlist.mark_output("s[0]", p_net[(0, 0)])
    for i in range(1, n):
        carry = g_net[(i - 1, 0)]
        s = netlist.add_gate(xor2, [p_net[(i, i)], carry], name=f"s{i}", column=i)
        netlist.mark_output(f"s[{i}]", s)
    netlist.mark_output("cout", g_net[(n - 1, 0)])
    return netlist


def _propagate_consumers(graph: PrefixGraph) -> set:
    """Spans whose group-propagate is actually consumed by a child.

    A span is used as an *upper* parent (needs p) or a *lower* parent
    (needs p only if the child itself needs p).  Output-column spans are
    never upper parents (their lsb is 0), so their propagate is dead.
    Computed by a reverse sweep over topological order.
    """
    order = graph.topological_order()
    needs: set = set()
    for node in reversed(order):
        i, j = node
        if i == j:
            continue
        upper, lower = graph.parents(i, j)
        needs.add(upper)  # p_up always feeds the carry operator
        if node in needs:
            needs.add(lower)  # p' = p_up & p_lo only if p' is itself needed
    # Diagonal propagates also feed the sum XORs; they are materialized
    # unconditionally by map_adder, so no special handling here.
    return needs


def map_gray_to_binary(graph: PrefixGraph, library: CellLibrary) -> Netlist:
    """Map a prefix graph to a gray-to-binary decoder (XOR prefix network).

    Leaf ``i`` carries gray bit ``n-1-i`` (see
    :func:`repro.prefix.verify.simulate_gray_to_binary`); span (i, 0) is
    binary output bit ``n-1-i``.  The MSB is a feed-through.
    """
    n = graph.n
    netlist = Netlist(library)
    gray_nets = [netlist.add_input(f"gray[{i}]") for i in range(n)]
    xor2 = library.smallest("XOR2")

    value: Dict[Span, int] = {(i, i): gray_nets[n - 1 - i] for i in range(n)}
    for node in graph.topological_order():
        i, j = node
        if i == j:
            continue
        upper, lower = graph.parents(i, j)
        value[node] = netlist.add_gate(
            xor2, [value[upper], value[lower]], name=f"x{i}_{j}", column=i
        )
    for i in range(n):
        netlist.mark_output(f"bin[{n - 1 - i}]", value[(i, 0)])
    return netlist


def map_leading_zero_detector(graph: PrefixGraph, library: CellLibrary) -> Netlist:
    """Map a prefix graph to a leading-zero detector (OR prefix network).

    Leaf ``i`` carries input bit ``n-1-i``; span (i, 0) is the monotone
    flag "some 1 among the top i+1 bits".  Outputs are the one-hot "first
    one is at position n-1-i" signals: ``hot_i = F_i & !F_{i-1}`` (with
    ``hot`` for i=0 the flag itself), plus the all-zero indicator.  This
    is the "other prefix computation" the paper's conclusion suggests
    (leading zero detectors) — the optimizer applies unchanged.
    """
    n = graph.n
    netlist = Netlist(library)
    in_nets = [netlist.add_input(f"x[{i}]") for i in range(n)]
    or2 = library.smallest("OR2")
    and2 = library.smallest("AND2")
    inv = library.smallest("INV")

    value: Dict[Span, int] = {(i, i): in_nets[n - 1 - i] for i in range(n)}
    for node in graph.topological_order():
        i, j = node
        if i == j:
            continue
        upper, lower = graph.parents(i, j)
        value[node] = netlist.add_gate(
            or2, [value[upper], value[lower]], name=f"f{i}_{j}", column=i
        )
    # One-hot first-one outputs + the all-zero flag.
    netlist.mark_output("hot[0]", value[(0, 0)])
    prev_flag = value[(0, 0)]
    for i in range(1, n):
        flag = value[(i, 0)]
        not_prev = netlist.add_gate(inv, [prev_flag], name=f"nf{i}", column=i)
        hot = netlist.add_gate(and2, [flag, not_prev], name=f"hot{i}", column=i)
        netlist.mark_output(f"hot[{i}]", hot)
        prev_flag = flag
    all_zero = netlist.add_gate(inv, [value[(n - 1, 0)]], name="allzero", column=n - 1)
    netlist.mark_output("all_zero", all_zero)
    return netlist


def map_prefix_graph(
    graph: PrefixGraph,
    library: CellLibrary,
    circuit_type: str = "adder",
    style: AdderStyle = "aoi",
) -> Netlist:
    """Dispatch on circuit type ('adder', 'gray' or 'lzd')."""
    if circuit_type == "adder":
        return map_adder(graph, library, style=style)
    if circuit_type == "gray":
        return map_gray_to_binary(graph, library)
    if circuit_type == "lzd":
        return map_leading_zero_detector(graph, library)
    raise ValueError(f"unknown circuit type {circuit_type!r}")
