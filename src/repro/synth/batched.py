"""Vectorized batched synthesis: a whole population in numpy passes.

:func:`synthesize_many` produces, for a batch of legal prefix graphs on
one task configuration, results **bit-identical** to calling
:func:`repro.synth.physical.synthesize` on each graph — but with the hot
parts of the flow (placement geometry, wire loads, static timing and the
iterative sizing loop; together ~80% of scalar wall-clock) executed as
vectorized numpy passes over the *whole batch* instead of one
Python-interpreted netlist at a time.

The flow has two halves with very different batching structure:

1. **Structural half** (map → buffer) is integer-valued and built for
   the whole population at once (:func:`_build_flat`): the operator
   schedule, the adder's propagate-needs table and every gate block are
   derived with batch-wide numpy scatters over the stacked grids and
   levels (:func:`repro.prefix.metrics.batch_levels`), re-deriving
   :func:`~repro.synth.mapping.map_prefix_graph` without building
   :class:`~repro.synth.netlist.Netlist` objects.  Fanout buffering
   (:func:`~repro.synth.physical.buffer_fanout`) touches only the
   over-limit nets and builds every buffer tree, however deep, in
   vectorized waves (one batch-wide pass per tree level).
   Every net/gate index, sink order and float operation matches the
   reference flow, so downstream timing sees the same circuit in the
   same order.

2. **Geometry + timing half** (place → STA → sizing) runs fully packed:
   all netlists are flattened into batch-wide index arrays (gates,
   nets, sink CSR, per-level schedule); logic depth is Kahn layering
   (each gate visited once, the layers are the level schedule),
   placement and wirelength are array arithmetic, and each sizing pass
   walks every graph's critical path simultaneously, one path position
   per vectorized step.  After the initial full STA, each pass
   recomputes the delays of the gates it swapped and their fanin
   drivers once, then propagates arrivals through their cone only
   (:meth:`_PackedBatch.resta`, the batch analogue of
   :func:`repro.synth.timing.retime`).

Bit-identity discipline — the reference flow accumulates floats in
well-defined orders, and every vectorized reduction here preserves them:

* loads sum sink pin caps *in sink-list order* (sequential adds over
  padded slot columns; adding the 0.0 pads is exact), then the wire
  term, then per-PO loads — exactly ``net_load``'s order;
* wirelength sums per-sink Manhattan terms in sink-list order the same
  way;
* arrival is ``max(0, fanin arrivals) + delay``: max and add are exact,
  so level-synchronous propagation equals topological-order
  propagation;
* every elementwise formula (logical-effort delay, upsizing gain) uses
  the same operator association as its scalar counterpart;
* ordering decisions (critical-PO argmax, path sort, tie-breaks) follow
  the scalar code's first-wins/stable-sort semantics.

``tests/test_synth_batched.py`` asserts exact equality of every
:class:`PhysicalResult` field against the scalar flow across circuit
types, libraries, mapping styles, IO profiles and flow options.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from ..prefix.graph import PrefixGraph
from ..prefix.metrics import batch_levels, stacked_grids
from .library import CellLibrary
from .physical import PhysicalResult, SynthesisOptions
from .timing import IOTiming, PO_LOAD_FF

__all__ = ["synthesize_many"]


# ----------------------------------------------------------------------
# Per-library lookup tables
# ----------------------------------------------------------------------
class _LibraryTables:
    """Cell attributes as arrays indexed by a dense cell id.

    Ids are assigned function-by-function (sorted names), variant-by-
    variant (ascending drive), plus one trailing *dummy* id whose
    capacitance/area are 0 — the padding target for sink-slot gathers.
    """

    def __init__(self, library: CellLibrary):
        cells = []
        for function in library.functions():
            cells.extend(library.variants(function))
        self.id_of: Dict[str, int] = {c.name: i for i, c in enumerate(cells)}
        self.function_of: List[str] = [c.function for c in cells]
        self.dummy = len(cells)
        self.area = np.array([c.area for c in cells] + [0.0])
        self.cap = np.array([c.input_cap for c in cells] + [0.0])
        self.g = np.array([c.logical_effort for c in cells] + [0.0])
        self.p = np.array([c.intrinsic_delay for c in cells] + [0.0])
        # tau * logical_effort, the first product of _upsizing_gain's
        # fanin term — precomputing it preserves the value exactly.
        self.tau_g = library.tau_ns * self.g
        self.drive = np.array([c.drive for c in cells] + [0], dtype=np.int64)
        # resize(+1)/resize(-1) as id maps (-1 = no such variant).
        up = np.full(len(cells) + 1, -1, dtype=np.int64)
        down = np.full(len(cells) + 1, -1, dtype=np.int64)
        for function in library.functions():
            ids = [self.id_of[c.name] for c in library.variants(function)]
            for a, b in zip(ids[:-1], ids[1:]):
                up[a] = b
                down[b] = a
        self.up, self.down = up, down
        self.smallest = {
            function: self.id_of[library.smallest(function).name]
            for function in library.functions()
        }
        self.buf_ids = [self.id_of[c.name] for c in library.variants("BUF")]
        self.buf_caps = [c.input_cap for c in library.variants("BUF")]
        # Function histogram support (count_by_function's sorted-name
        # order is the id order: functions() is sorted).
        functions = library.functions()
        index_of = {f: i for i, f in enumerate(functions)}
        self.function_names = functions
        self.function_id = np.array(
            [index_of[f] for f in self.function_of] + [len(functions)],
            dtype=np.int64,
        )


_TABLES: "WeakKeyDictionary[CellLibrary, _LibraryTables]" = WeakKeyDictionary()


def _tables_for(library: CellLibrary) -> _LibraryTables:
    tables = _TABLES.get(library)
    if tables is None:
        tables = _LibraryTables(library)
        _TABLES[library] = tables
    return tables


# ----------------------------------------------------------------------
# Shared IO templates (identical for every graph in a batch)
# ----------------------------------------------------------------------
class _IOTemplate:
    """PI/PO names, columns, arrivals and margins for one (n, type)."""

    __slots__ = ("pi_col", "pi_arrival", "po_names", "po_margin", "num_pis")

    def __init__(self, n: int, circuit_type: str, io_timing: IOTiming):
        if circuit_type == "adder":
            pi_names = [f"a[{i}]" for i in range(n)] + [f"b[{i}]" for i in range(n)]
            self.pi_col = list(range(n)) + list(range(n))
            self.po_names = [f"s[{i}]" for i in range(n)] + ["cout"]
        elif circuit_type == "gray":
            pi_names = [f"gray[{i}]" for i in range(n)]
            self.pi_col = list(range(n))
            self.po_names = [f"bin[{n - 1 - i}]" for i in range(n)]
        elif circuit_type == "lzd":
            pi_names = [f"x[{i}]" for i in range(n)]
            self.pi_col = list(range(n))
            self.po_names = [f"hot[{i}]" for i in range(n)] + ["all_zero"]
        else:
            raise ValueError(f"unknown circuit type {circuit_type!r}")
        self.num_pis = len(pi_names)
        self.pi_arrival = [io_timing.arrival(name) for name in pi_names]
        self.po_margin = [io_timing.margin(name) for name in self.po_names]


# ----------------------------------------------------------------------
# Flat population form (the structural builder's output)
# ----------------------------------------------------------------------
class _FlatPopulation:
    """A population's structure as flat arrays, one step before packing.

    ``flat_pins`` holds *graph-local* net ids (gate ``i`` of a graph
    drives net ``num_pis + i``); ``gate_col`` is every gate's column
    (the builders give each mapped gate one, and a buffer takes its
    members' mean), so the packed placer needs no fanin-centroid
    fallback.  :func:`_build_flat` emits it and :class:`_PackedBatch`
    consumes it.
    """

    __slots__ = (
        "gate_counts", "gate_cell", "pin_counts", "flat_pins", "gate_col",
        "po_net", "num_buffers",
    )

    def __init__(self, gate_counts, gate_cell, pin_counts, flat_pins,
                 gate_col, po_net, num_buffers):
        self.gate_counts = gate_counts
        self.gate_cell = gate_cell
        self.pin_counts = pin_counts
        self.flat_pins = flat_pins
        self.gate_col = gate_col
        self.po_net = po_net
        self.num_buffers = num_buffers


# ----------------------------------------------------------------------
# Vectorized structural builder (batch-wide mirror of mapping.py and
# physical.buffer_fanout; gate ``i`` of a graph drives net ``num_pis + i``)
# ----------------------------------------------------------------------
def _batch_ops(grids: np.ndarray, levels: np.ndarray):
    """All graphs' operator schedules at once, in mapping order.

    An operator is a non-diagonal span ``(i, j)`` whose parents are
    ``(i, k)`` and ``(k-1, j)``, ``k`` the nearest present column right
    of ``j``.  ``np.nonzero`` over the stacked grids walks cells in
    (graph, row, column) order, so consecutive entries within one
    (graph, row) run are exactly the present-column pairs ``(j, k)``.
    Returns per-op arrays ``(ob, oi, oj, ok, lev)`` sorted by
    ``(graph, level, i, j)`` — the order the mappers visit spans in
    (``PrefixGraph.topological_order()``; diagonals, level 0, are never
    operators, so dropping them leaves the relative order unchanged).
    """
    b_idx, i_idx, j_idx = np.nonzero(grids)
    if len(b_idx) > 1:
        pair = (b_idx[:-1] == b_idx[1:]) & (i_idx[:-1] == i_idx[1:])
    else:
        pair = np.zeros(0, dtype=bool)
    ob = b_idx[:-1][pair]
    oi = i_idx[:-1][pair]
    oj = j_idx[:-1][pair]
    ok = j_idx[1:][pair]
    lev = levels[ob, oi, oj]
    order = np.lexsort((oj, oi, lev, ob))
    return ob[order], oi[order], oj[order], ok[order], lev[order]


def _batch_needs(B: int, n: int, ob, oi, oj, ok, lev) -> np.ndarray:
    """Vectorized ``_propagate_consumers`` truth tables, all graphs.

    The scalar sweep walks ops in descending (level, i, j) order; an op
    at level L (its own node's level) only *writes* strictly lower-level
    nodes (its parents) and only *reads* its own node, so processing one
    level at a time is race-free and order within a level is immaterial.
    """
    needs = np.zeros((B, n, n), dtype=bool)
    if not len(ob):
        return needs
    for level in range(int(lev.max()), 0, -1):
        sel = lev == level
        if not sel.any():
            continue
        sb, si, sj, sk = ob[sel], oi[sel], oj[sel], ok[sel]
        needs[sb, si, sk] = True  # p_up always feeds the carry operator
        cond = needs[sb, si, sj]  # p' = p_up & p_lo only if p' is needed
        needs[sb[cond], sk[cond] - 1, sj[cond]] = True
    return needs


def _assemble_adder(graphs, tables, template, style, ob, oi, oj, ok, needs):
    """Pre-buffering flat arrays for the adder mapping (all graphs)."""
    n = graphs[0].n
    B = len(graphs)
    npi = template.num_pis  # 2n
    and2, xor2 = tables.smallest["AND2"], tables.smallest["XOR2"]
    or2, aoi21, inv = (
        tables.smallest["OR2"], tables.smallest["AOI21"], tables.smallest["INV"],
    )
    needs_val = needs[ob, oi, oj]
    block = 2 + needs_val.astype(np.int64)
    op_counts = np.bincount(ob, minlength=B)
    op_start = np.concatenate([[0], np.cumsum(op_counts)])
    block_cum = np.concatenate([[0], np.cumsum(block)])
    S = block_cum[op_start[1:]] - block_cum[op_start[:-1]]  # per-graph sizes
    # Local index of each op's first gate: leaves, then prior blocks.
    lb = 2 * n + (block_cum[:-1] - block_cum[op_start[:-1]][ob])

    # Net tables: scatter every op's outputs, then gather parent nets —
    # safe because each (graph, i, j) is written by exactly one op.
    diag = np.arange(n)
    G_net = np.zeros((B, n, n), dtype=np.int64)
    P_net = np.zeros((B, n, n), dtype=np.int64)
    G_net[:, diag, diag] = npi + 2 * diag
    P_net[:, diag, diag] = npi + 2 * diag + 1
    G_net[ob, oi, oj] = npi + lb + 1
    P_net[ob[needs_val], oi[needs_val], oj[needs_val]] = (npi + lb + 2)[needs_val]
    p_up = P_net[ob, oi, ok]
    g_lo = G_net[ob, ok - 1, oj]
    g_up = G_net[ob, oi, ok]
    p_lo = P_net[ob, ok - 1, oj]

    m = 2 * n + S + (n - 1)  # per-graph gate counts (pre-buffering)
    goff = np.concatenate([[0], np.cumsum(m)])
    M = int(goff[-1])
    gate_cell = np.empty(M, dtype=np.int64)
    gate_col = np.empty(M, dtype=np.float64)
    pin_counts = np.empty(M, dtype=np.int64)
    pins = np.full((M, 3), -1, dtype=np.int64)

    # Leaf g/p pairs: gates 2i (AND2) and 2i+1 (XOR2), pins [a_i, b_i].
    leaf = goff[:-1, None] + np.arange(2 * n)[None, :]
    gate_cell[leaf] = np.tile([and2, xor2], n)
    gate_col[leaf] = np.repeat(diag, 2).astype(np.float64)
    pin_counts[leaf] = 2
    pins[leaf, 0] = np.repeat(diag, 2)
    pins[leaf, 1] = np.repeat(diag + n, 2)

    # Operator blocks (2 carry gates + optional propagate AND2).
    gf = goff[ob] + lb
    aoi_out = npi + lb  # net of the block's first gate
    if style == "aoi":
        gate_cell[gf] = aoi21
        pins[gf, 0] = p_up
        pins[gf, 1] = g_lo
        pins[gf, 2] = g_up
        pin_counts[gf] = 3
        gate_cell[gf + 1] = inv
        pins[gf + 1, 0] = aoi_out
        pin_counts[gf + 1] = 1
    else:
        gate_cell[gf] = and2
        pins[gf, 0] = p_up
        pins[gf, 1] = g_lo
        pin_counts[gf] = 2
        gate_cell[gf + 1] = or2
        pins[gf + 1, 0] = g_up
        pins[gf + 1, 1] = aoi_out
        pin_counts[gf + 1] = 2
    gate_col[gf] = oi
    gate_col[gf + 1] = oi
    g3 = gf[needs_val] + 2
    gate_cell[g3] = and2
    pins[g3, 0] = p_up[needs_val]
    pins[g3, 1] = p_lo[needs_val]
    pin_counts[g3] = 2
    gate_col[g3] = oi[needs_val]

    # Sum stage: XOR2(p_i, carry_{i-1}) for i in 1..n-1.
    sum_base = goff[:-1] + 2 * n + S
    if n > 1:
        srow = sum_base[:, None] + np.arange(n - 1)[None, :]
        gate_cell[srow] = xor2
        pins[srow, 0] = npi + 2 * np.arange(1, n) + 1  # leaf p_i
        pins[srow, 1] = G_net[:, : n - 1, 0]  # carry = g[i-1][0]
        pin_counts[srow] = 2
        gate_col[srow] = np.arange(1, n).astype(np.float64)

    po_net = np.empty((B, n + 1), dtype=np.int64)
    po_net[:, 0] = npi + 1  # s[0] = leaf p_0
    if n > 1:
        po_net[:, 1:n] = (npi + 2 * n + S)[:, None] + np.arange(n - 1)
    po_net[:, n] = G_net[:, n - 1, 0]  # cout
    return m, gate_cell, pin_counts, pins, gate_col, po_net.ravel()


def _assemble_xor_or(graphs, tables, template, circuit_type, ob, oi, oj, ok):
    """Pre-buffering flat arrays for the gray / lzd mappings."""
    n = graphs[0].n
    B = len(graphs)
    op_cell = tables.smallest["XOR2" if circuit_type == "gray" else "OR2"]
    op_counts = np.bincount(ob, minlength=B)
    op_start = np.concatenate([[0], np.cumsum(op_counts)])
    t_local = np.arange(len(ob)) - op_start[:-1][ob]  # op index within graph

    diag = np.arange(n)
    V_net = np.zeros((B, n, n), dtype=np.int64)
    V_net[:, diag, diag] = n - 1 - diag  # reversed PI nets
    V_net[ob, oi, oj] = n + t_local
    up = V_net[ob, oi, ok]
    lo = V_net[ob, ok - 1, oj]

    extra = 0 if circuit_type == "gray" else 2 * (n - 1) + 1
    m = op_counts + extra
    goff = np.concatenate([[0], np.cumsum(m)])
    M = int(goff[-1])
    gate_cell = np.empty(M, dtype=np.int64)
    gate_col = np.empty(M, dtype=np.float64)
    pin_counts = np.empty(M, dtype=np.int64)
    pins = np.full((M, 3), -1, dtype=np.int64)

    gop = goff[ob] + t_local
    gate_cell[gop] = op_cell
    pins[gop, 0] = up
    pins[gop, 1] = lo
    pin_counts[gop] = 2
    gate_col[gop] = oi

    if circuit_type == "gray":
        return m, gate_cell, pin_counts, pins, gate_col, V_net[:, :, 0].ravel()

    # lzd one-hot chain: INV(prev flag) + AND2(flag, not_prev) per bit,
    # plus the trailing all_zero INV — mirror of map_leading_zero_detector.
    and2, inv = tables.smallest["AND2"], tables.smallest["INV"]
    chain_base = goff[:-1] + op_counts  # first chain gate per graph
    po_net = np.empty((B, n + 1), dtype=np.int64)
    po_net[:, 0] = V_net[:, 0, 0]  # hot[0]
    if n > 1:
        ginv = chain_base[:, None] + 2 * np.arange(n - 1)[None, :]
        gand = ginv + 1
        gate_cell[ginv] = inv
        pins[ginv, 0] = V_net[:, : n - 1, 0]  # prev_flag = value[i-1][0]
        pin_counts[ginv] = 1
        gate_col[ginv] = np.arange(1, n).astype(np.float64)
        gate_cell[gand] = and2
        pins[gand, 0] = V_net[:, 1:n, 0]  # flag = value[i][0]
        pins[gand, 1] = n + ginv - goff[:-1, None]  # not_prev net
        pin_counts[gand] = 2
        gate_col[gand] = np.arange(1, n).astype(np.float64)
        po_net[:, 1:n] = n + gand - goff[:-1, None]  # hot[i]
    gzero = chain_base + 2 * (n - 1)
    gate_cell[gzero] = inv
    pins[gzero, 0] = V_net[:, n - 1, 0]
    pin_counts[gzero] = 1
    gate_col[gzero] = float(n - 1)
    po_net[:, n] = n + gzero - goff[:-1]  # all_zero
    return m, gate_cell, pin_counts, pins, gate_col, po_net.ravel()


def _buffer_flat(m, gate_cell, pin_counts, flat_pins, gate_col, po_net,
                 tables: _LibraryTables, template: _IOTemplate, max_fanout: int):
    """Mirror of ``physical.buffer_fanout`` over the flat pre-buffer arrays.

    The scalar pass scans every net id descending; nets at or under the
    limit are no-ops there and a net can only *lose* sinks, so visiting
    just the over-limit nets is exact.  A net with ``s`` sinks is split
    into waves of ``g1 = ceil(s/mf)``, ``g2 = ceil(g1/mf)``, ... groups
    until a wave has at most ``mf`` buffers: wave 1 groups the net's
    sinks, each later wave groups the previous wave's buffers of the
    same net.  Every wave is one vectorized pass over all nets of the
    batch.  Buffer ids follow the scalar creation order (graphs, nets
    descending, waves, groups).  Existing sink pins are rewired in place
    in ``flat_pins``; the buffers are interleaved after each graph's
    gates by one scatter at the end.
    """
    if max_fanout < 2:
        raise ValueError("max_fanout must be >= 2")
    B = len(m)
    npi = template.num_pis
    goff = np.concatenate([[0], np.cumsum(m)])
    M = int(goff[-1])
    net_off = np.concatenate([[0], np.cumsum(m + npi)])
    gate_graph = np.repeat(np.arange(B), m)
    pin_off = np.concatenate([[0], np.cumsum(pin_counts)])
    pin_gate = np.repeat(np.arange(M), pin_counts)
    pin_slot = np.arange(len(flat_pins)) - pin_off[:-1][pin_gate]
    global_pin = flat_pins + net_off[gate_graph[pin_gate]]
    sink_counts = np.bincount(global_pin, minlength=int(net_off[-1]))
    over = np.flatnonzero(sink_counts > max_fanout)
    if not len(over):
        return _FlatPopulation(
            m, gate_cell, pin_counts, flat_pins, gate_col, po_net,
            np.zeros(B, dtype=np.int64),
        )
    # Scalar order: graphs ascending, nets descending within a graph.
    over_graph = np.searchsorted(net_off, over, side="right") - 1
    creation = np.lexsort((-over, over_graph))
    over, over_graph = over[creation], over_graph[creation]
    over_local = over - net_off[over_graph]

    # Sink lists in (gate, pin) order — flat_pins is gate-major/pin-minor,
    # so a stable argsort groups each net's sinks in sink-list order.
    order = np.argsort(global_pin, kind="stable")
    starts = np.searchsorted(global_pin[order], over)
    span = sink_counts[over]

    # Groups per (net, wave), then every buffer's batch-wide id.
    waves = [-(-span // max_fanout)]
    while (waves[-1] > max_fanout).any():
        waves.append(np.where(waves[-1] > max_fanout, -(-waves[-1] // max_fanout), 0))
    waves = np.stack(waves, axis=1)
    net_total = waves.sum(axis=1)
    wave_start = (np.cumsum(net_total) - net_total)[:, None] + (
        np.cumsum(waves, axis=1) - waves
    )
    num_buffers = np.zeros(B, dtype=np.int64)
    np.add.at(num_buffers, over_graph, net_total)
    buf_start = np.cumsum(num_buffers) - num_buffers
    total = int(num_buffers.sum())
    buf_cell = np.empty(total, dtype=np.int64)
    buf_in = np.empty(total, dtype=np.int64)
    buf_col = np.empty(total, dtype=np.float64)
    buf_ids = np.asarray(tables.buf_ids, dtype=np.int64)
    buf_limits = np.asarray(tables.buf_caps, dtype=np.float64)[None, :] * 4.0

    for w in range(waves.shape[1]):
        ng = waves[:, w]
        gnet = np.repeat(np.arange(len(over)), ng)
        gidx = np.arange(len(gnet)) - np.repeat(np.cumsum(ng) - ng, ng)
        local = gidx[:, None] * max_fanout + np.arange(max_fanout)[None, :]
        if w == 0:
            valid = local < span[gnet][:, None]
            pos = order[np.where(valid, starts[gnet][:, None] + local, 0)]
            members = pin_gate[pos]
            caps = tables.cap[gate_cell[members]]
            cols = gate_col[members]
        else:
            valid = local < waves[gnet, w - 1][:, None]
            pos = np.where(valid, wave_start[gnet, w - 1][:, None] + local, 0)
            caps = tables.cap[buf_cell[pos]]
            cols = buf_col[pos]
        # Group load: caps in sink order, zero-padded — np.add.accumulate
        # is the exact left-to-right fold of the scalar sum() (trailing
        # +0.0 never changes a positive partial sum).
        load = np.add.accumulate(np.where(valid, caps, 0.0), axis=1)[:, -1]
        # First-fit over the BUF variants in library order, else the last.
        fits = buf_limits >= load[:, None]
        choice = np.where(fits.any(axis=1), fits.argmax(axis=1), len(buf_ids) - 1)
        # Column: the members' mean (every group has at least one member).
        csum = np.add.accumulate(np.where(valid, cols, 0.0), axis=1)[:, -1]
        q = wave_start[gnet, w] + gidx
        gb = over_graph[gnet]
        buf_cell[q] = buf_ids[choice]
        buf_col[q] = csum / valid.sum(axis=1)
        buf_in[q] = over_local[gnet]
        out_net = np.broadcast_to(
            (npi + m[gb] + q - buf_start[gb])[:, None], valid.shape
        )[valid]
        if w == 0:
            flat_pins[pin_off[members[valid]] + pin_slot[pos[valid]]] = out_net
        else:
            buf_in[pos[valid]] = out_net

    # Append each graph's buffers after its own gates (and pins).
    buf_graph = np.repeat(np.arange(B), num_buffers)
    gate_pos = np.arange(M) + buf_start[gate_graph]
    buf_gate_pos = goff[1:][buf_graph] + np.arange(total)
    pin_pos = np.arange(len(flat_pins)) + buf_start[gate_graph[pin_gate]]
    buf_pin_pos = pin_off[goff[1:]][buf_graph] + np.arange(total)

    def interleave(old, new, old_pos, new_pos):
        out = np.empty(len(old) + len(new), dtype=old.dtype)
        out[old_pos] = old
        out[new_pos] = new
        return out

    return _FlatPopulation(
        m + num_buffers,
        interleave(gate_cell, buf_cell, gate_pos, buf_gate_pos),
        interleave(pin_counts, np.ones(total, dtype=np.int64), gate_pos, buf_gate_pos),
        interleave(flat_pins, buf_in, pin_pos, buf_pin_pos),
        interleave(gate_col, buf_col, gate_pos, buf_gate_pos),
        po_net,
        num_buffers,
    )


def _build_flat(
    graphs: Sequence[PrefixGraph],
    tables: _LibraryTables,
    template: _IOTemplate,
    circuit_type: str,
    options: SynthesisOptions,
) -> _FlatPopulation:
    """Whole-population structural build, emitting ``_FlatPopulation``."""
    grids = stacked_grids(graphs)
    levels = batch_levels(grids)
    ob, oi, oj, ok, lev = _batch_ops(grids, levels)
    if circuit_type == "adder":
        needs = _batch_needs(len(graphs), graphs[0].n, ob, oi, oj, ok, lev)
        parts = _assemble_adder(
            graphs, tables, template, options.mapping_style, ob, oi, oj, ok, needs
        )
    else:
        parts = _assemble_xor_or(graphs, tables, template, circuit_type, ob, oi, oj, ok)
    m, gate_cell, pin_counts, pins, gate_col, po_net = parts
    flat_pins = pins.ravel()[pins.ravel() >= 0]
    return _buffer_flat(
        m, gate_cell, pin_counts, flat_pins, gate_col, po_net,
        tables, template, options.max_fanout,
    )


# ----------------------------------------------------------------------
# Batch packing + vectorized geometry
# ----------------------------------------------------------------------
class _PackedBatch:
    """All netlists of a population, flattened into index arrays.

    Gates and nets get *flat* ids across the batch (per-graph offsets);
    every padded slot points at the trailing dummy gate (cell cap 0) or
    dummy net (arrival 0), so sequential accumulation over pad columns
    is a numeric no-op.  Placement, per-net wirelength and the logic-
    depth schedule are derived here with batch-wide array arithmetic.
    """

    def __init__(self, flat: _FlatPopulation, tables: _LibraryTables,
                 library: CellLibrary, template: _IOTemplate):
        self.tables = tables
        self.tau = library.tau_ns
        gate_counts = flat.gate_counts
        B = len(gate_counts)
        self.B = B
        npi = template.num_pis
        net_counts = gate_counts + npi
        self.gate_off = np.concatenate([[0], np.cumsum(gate_counts)])
        self.net_off = np.concatenate([[0], np.cumsum(net_counts)])
        G = int(self.gate_off[-1])
        N = int(self.net_off[-1])
        self.G, self.N = G, N
        self.num_buffers = flat.num_buffers
        self.gate_graph = np.repeat(np.arange(B), gate_counts)
        self.net_graph = np.repeat(np.arange(B), net_counts)

        # --- flat gate arrays (one trailing dummy slot in gate_cell) ---
        gate_cell = np.empty(G + 1, dtype=np.int64)
        gate_cell[:G] = flat.gate_cell
        gate_cell[G] = tables.dummy
        # gate g of graph b drives net net_off[b] + npi + local_index.
        gate_out = (
            np.arange(G) - self.gate_off[self.gate_graph]
            + self.net_off[self.gate_graph] + npi
        )
        net_driver = np.full(N + 1, -1, dtype=np.int64)
        net_driver[gate_out] = np.arange(G)

        pin_counts = flat.pin_counts
        total_pins = int(pin_counts.sum())
        pin_gate = np.repeat(np.arange(G), pin_counts)
        flat_pins = flat.flat_pins + self.net_off[self.gate_graph[pin_gate]]
        pin_slot = np.arange(total_pins) - np.repeat(
            np.concatenate([[0], np.cumsum(pin_counts)[:-1]]), pin_counts
        )
        gate_in = np.full((G, 3), N, dtype=np.int64)  # pad = dummy net
        gate_in[pin_gate, pin_slot] = flat_pins

        # --- sink CSR (per net, in sink-list order) --------------------
        # Every net_sinks list is ascending in (gate, pin) — mapping
        # appends gates in creation order, buffering appends only newer
        # gates and removals keep the rest ordered (same invariant holds
        # in the reference Netlist).  So grouping the pin arrays by net
        # with a stable sort reproduces the sink-list order exactly.
        sink_order = np.argsort(flat_pins, kind="stable")
        sink_counts = np.bincount(flat_pins, minlength=N)[:N]
        max_sinks = int(sink_counts.max()) if N else 0
        sink_net = np.repeat(np.arange(N), sink_counts)
        sink_slot = np.arange(total_pins) - np.repeat(
            np.concatenate([[0], np.cumsum(sink_counts)[:-1]]), sink_counts
        )
        net_sink_gate = np.full((N, max_sinks), G, dtype=np.int64)  # pad = dummy
        net_sink_gate[sink_net, sink_slot] = pin_gate[sink_order]

        # --- logic depth by Kahn layering ------------------------------
        # place_datapath's level: max over driven fanins of depth+1.  A
        # gate joins layer L once all its driven pins are resolved, so
        # every gate is visited once and its layer is exactly that level.
        # np.unique yields each layer in ascending gate ids: the layers
        # are the level-synchronous schedule too.
        pending = (net_driver[gate_in] >= 0).sum(axis=1)
        frontier = np.flatnonzero(pending == 0)
        gate_level = np.empty(G, dtype=np.int64)
        self.level_idx: List[np.ndarray] = []
        while len(frontier):
            gate_level[frontier] = len(self.level_idx)
            self.level_idx.append(frontier)
            sinks = net_sink_gate[gate_out[frontier]].ravel()
            sinks, counts = np.unique(sinks[sinks < G], return_counts=True)
            pending[sinks] -= counts
            frontier = sinks[pending[sinks] == 0]
        if pending.any():  # gates on a cycle never reach zero
            raise ValueError("netlist has a combinational cycle")
        self.gate_level = gate_level

        # --- placement (x, y) and static wirelengths -------------------
        pitch, row_height = library.bit_pitch_um, library.row_height_um
        x = flat.gate_col * pitch  # every gate has a column
        y = self.gate_level * row_height
        x_ext = np.append(x, 0.0)
        y_ext = np.append(y, 0.0)

        # Every graph's PI nets (its first npi nets), batch-wide.
        pi_nets = (self.net_off[:B, None] + np.arange(npi)).ravel()
        pi_col = np.asarray(template.pi_col, dtype=np.float64)
        x0 = np.empty(N)
        y0 = np.zeros(N)
        x0[pi_nets] = np.tile(pi_col * pitch, B)
        driven = net_driver[:N] >= 0
        drv = np.where(driven, net_driver[:N], 0)
        x0 = np.where(driven, x[drv], x0)
        y0 = np.where(driven, y[drv], y0)
        # wire_length: per-sink |dx| + |dy| summed in sink-list order.
        wire = np.zeros(N)
        valid = net_sink_gate < G
        for slot in range(max_sinks):
            sg = net_sink_gate[:, slot]
            term = np.abs(x_ext[sg] - x0) + np.abs(y_ext[sg] - y0)
            wire = wire + np.where(valid[:, slot], term, 0.0)
        self.wire_lengths = wire
        # net_load's `wire_length * wire_cap_per_um` product, precomputed.
        self.wire_terms = wire * library.wire_cap_per_um

        # --- PI arrivals, POs ------------------------------------------
        net_pi_arrival = np.zeros(N)
        pi_arr = np.asarray(template.pi_arrival)
        po_count = len(template.po_names)
        net_po_count = np.zeros(N, dtype=np.int64)
        net_pi_arrival[pi_nets] = np.tile(pi_arr, B)
        po_net = flat.po_net + np.repeat(self.net_off[:B], po_count)
        np.add.at(net_po_count, po_net, 1)
        self.net_pi_arrival = net_pi_arrival
        self.net_po_count = net_po_count
        self.max_po_mult = int(net_po_count.max()) if N else 0
        self.po_net = po_net
        self.po_margin = np.tile(np.asarray(template.po_margin), B)
        self.po_count = po_count
        self.po_names = template.po_names

        self.gate_cell = gate_cell
        # Input caps by gate (dummy 0.0), maintained through cell swaps —
        # a pure gather cache, so reads equal tables.cap[gate_cell[...]].
        self.cap_gate = tables.cap[gate_cell]
        self.gate_out = gate_out
        self.gate_in = gate_in
        self.net_sink_gate = net_sink_gate
        self.net_driver = net_driver
        self.max_sinks = max_sinks

        # PO load contributions, one layer per multiplicity step (net_load
        # adds PO_LOAD_FF once per primary output on the net).
        self.po_add = [
            np.where(net_po_count > repeat, PO_LOAD_FF, 0.0)
            for repeat in range(self.max_po_mult)
        ]

    # ------------------------------------------------------------------
    def net_loads(self, nets: np.ndarray) -> np.ndarray:
        """Capacitive load of ``nets``, in ``net_load``'s accumulation
        order: sink pins (sink-list order), wire term, PO loads."""
        load = np.zeros(len(nets))
        sink_rows = self.net_sink_gate[nets]
        for slot in range(self.max_sinks):
            load = load + self.cap_gate[sink_rows[:, slot]]
        load = load + self.wire_terms[nets]
        for layer in self.po_add:
            load = load + layer[nets]
        return load

    def gate_delays(self, gates: np.ndarray) -> np.ndarray:
        """Mirror of Cell.delay at each gate's current cell and output
        load: ``tau * (p + g * (load / cap))``."""
        cells = self.gate_cell[gates]
        load = self.net_loads(self.gate_out[gates])
        return self.tau * (
            self.tables.p[cells] + self.tables.g[cells] * (load / self.cap_gate[gates])
        )

    def critical(self, arrival: np.ndarray):
        """Per-graph ``(delay_ns, crit_po)`` from propagated arrivals."""
        endpoints = arrival[self.po_net] + self.po_margin
        # Per-graph argmax == the scalar strict-`>` scan (first max wins).
        crit_local = np.argmax(endpoints.reshape(self.B, self.po_count), axis=1)
        crit_po = np.arange(self.B) * self.po_count + crit_local
        return endpoints[crit_po], crit_po

    def sta(self):
        """Batched mirror of ``timing.analyze_timing``.

        Returns ``(arrival, gate_delay, delay_ns, crit_po)`` where
        ``arrival`` is flat over nets (+1 dummy slot) and ``delay_ns`` /
        ``crit_po`` are per graph.
        """
        gate_delay = self.gate_delays(np.arange(self.G))
        arrival = np.append(self.net_pi_arrival, 0.0)
        for idx in self.level_idx:
            worst = arrival[self.gate_in[idx]].max(axis=1)
            # analyze_timing starts its fanin scan at worst = 0.0.
            np.maximum(worst, 0.0, out=worst)
            arrival[self.gate_out[idx]] = worst + gate_delay[idx]
        return (arrival, gate_delay) + self.critical(arrival)

    def resta(self, arrival: np.ndarray, gate_delay: np.ndarray,
              dirty_gates: np.ndarray):
        """Batched mirror of ``timing.retime``: cone-limited delta STA.

        Starting from a propagated ``(arrival, gate_delay)`` state (not
        modified), re-evaluates the delays of the ``dirty_gates``
        frontier once, then propagates arrivals from it, cutting where a
        recomputed arrival is bitwise equal to the stored one.

        Precondition (the scalar ``retime`` dirty-frontier contract):
        ``dirty_gates`` holds every gate whose cell or output load
        changed since ``gate_delay`` was computed — the swapped gates
        plus their fanin drivers.  A gate reached only by propagation
        then has an unchanged cell and load, so its stored delay is what
        a recompute would give, and the returned state matches a full
        :meth:`sta` bit for bit.
        """
        arrival = arrival.copy()
        gate_delay = gate_delay.copy()
        gate_delay[dirty_gates] = self.gate_delays(dirty_gates)
        G = self.G
        levels = self.gate_level
        num_levels = len(self.level_idx)
        # Push-based worklist: a gate re-evaluates iff it is in the
        # frontier or a fanin arrival changed; changed arrivals mark
        # their sink gates (always at strictly later levels), so an
        # ascending level sweep touching only marked gates is exact.
        pending = np.zeros(G, dtype=bool)
        pending[dirty_gates] = True
        level_count = np.bincount(levels[dirty_gates], minlength=num_levels)
        for level, idx in enumerate(self.level_idx):
            if not level_count[level]:
                continue
            sel = idx[pending[idx]]
            worst = arrival[self.gate_in[sel]].max(axis=1)
            np.maximum(worst, 0.0, out=worst)
            new_arrival = worst + gate_delay[sel]
            out = self.gate_out[sel]
            changed = new_arrival != arrival[out]
            arrival[out] = new_arrival
            if changed.any():
                sinks = self.net_sink_gate[out[changed]].ravel()
                sinks = sinks[sinks < G]
                fresh = sinks[~pending[sinks]]
                if len(fresh):
                    pending[fresh] = True
                    # fresh may repeat a gate (sink of two changed nets);
                    # the overcount is harmless — level_count only gates
                    # the skip, and pending[idx] is exact.
                    level_count += np.bincount(
                        levels[fresh], minlength=num_levels
                    )
        return (arrival, gate_delay) + self.critical(arrival)

    def trace_paths(self, crit_po: np.ndarray, arrival: np.ndarray) -> np.ndarray:
        """analyze_timing's backwards critical-path walk, several graphs
        in lockstep.

        Returns a padded ``(len(crit_po), max_len)`` matrix of gate
        indices, input-side first, -1 past each path's end.  Each row
        equals the scalar walk: the next net is the first strict-max
        arrival over the gate's real pins (dummy pads masked to -inf,
        ``np.argmax``'s first-wins tie-break is the scalar scan's).
        """
        k = len(crit_po)
        net = self.po_net[crit_po]
        alive = np.ones(k, dtype=bool)
        rows = np.arange(k)
        gate_in, net_driver = self.gate_in, self.net_driver
        cols: List[np.ndarray] = []
        # Sentinel: the dummy net's arrival reads as -inf for the walk,
        # so pad pins lose every argmax without a masking pass.
        saved_dummy = arrival[self.N]
        arrival[self.N] = -np.inf
        while True:
            gate = net_driver[net]
            alive &= gate >= 0
            if not alive.any():
                break
            gate = np.where(alive, gate, 0)
            cols.append(np.where(alive, gate, -1))
            pins = gate_in[gate]
            best = np.argmax(arrival[pins], axis=1)
            net = np.where(alive, pins[rows, best], -1)
        arrival[self.N] = saved_dummy
        if not cols:
            return np.full((k, 0), -1, dtype=np.int64)
        mat = np.stack(cols, axis=1)  # walk order: output-side first
        lengths = (mat >= 0).sum(axis=1)
        # Reverse each row's valid prefix (paths are input-side first).
        take = lengths[:, None] - 1 - np.arange(mat.shape[1])[None, :]
        return np.where(take >= 0, mat[rows[:, None], np.maximum(take, 0)], -1)


# ----------------------------------------------------------------------
# Batched sizing (mirror of physical.size_gates, batch-lockstep)
# ----------------------------------------------------------------------
def _size_gates_batched(pb: _PackedBatch, options: SynthesisOptions):
    """Run every graph's sizing loop simultaneously.

    Each pass mirrors ``size_gates`` decision for decision: critical-path
    gates are visited in stable descending-delay order *one position per
    vectorized step* (so earlier swaps feed later gains, as in the scalar
    loop), area recovery is one vectorized sweep against the pass-entry
    report, and regression rollback/early-stop happen per graph.

    The initial STA is a full pass.  Each pass's accept/rollback timing
    check re-times only through :meth:`_PackedBatch.resta` over the
    frontier of swapped gates plus their fanin drivers (whose loads
    changed) — the dirty-frontier rule of the scalar
    :func:`repro.synth.timing.retime`, bit-identical to a full pass.
    """
    tables = pb.tables
    arrival, gate_delay, delay_ns, crit_po = pb.sta()
    if options.sizing_passes <= 0:
        return delay_ns, crit_po
    path_mat = pb.trace_paths(crit_po, arrival)
    active = np.ones(pb.B, dtype=bool)
    graph_ids = np.arange(pb.B)

    for _ in range(options.sizing_passes):
        if not active.any():
            break
        snapshot = pb.gate_cell[: pb.G].copy()
        changed = np.zeros(pb.B, dtype=bool)
        swapped_parts: List[np.ndarray] = []

        # ---- critical-path upsizing, worst offenders first ------------
        # Stable descending-delay sort per row == the scalar's
        # sorted(path, key=-delay); pads get key +inf and land last.
        key = np.where(path_mat >= 0, -gate_delay[path_mat], np.inf)
        path_arr = np.take_along_axis(
            path_mat, np.argsort(key, axis=1, kind="stable"), axis=1
        )
        path_arr[~active] = -1
        lengths = (path_arr >= 0).sum(axis=1)
        max_len = int(lengths.max()) if len(lengths) else 0
        for k in range(max_len):
            col = path_arr[:, k]
            sel = col >= 0
            if not sel.any():
                continue
            gates = col[sel]
            cur = pb.gate_cell[gates]
            up = tables.up[cur]
            has_up = up >= 0
            up_safe = np.where(has_up, up, cur)
            load = pb.net_loads(pb.gate_out[gates])
            cur_cap = tables.cap[cur]
            big_cap = tables.cap[up_safe]
            # _upsizing_gain: bigger.delay(load) - cell.delay(load) ...
            own_delta = pb.tau * (
                tables.p[up_safe] + tables.g[up_safe] * (load / big_cap)
            ) - pb.tau * (tables.p[cur] + tables.g[cur] * (load / cur_cap))
            cap_delta = big_cap - cur_cap
            # Fanin slowdown, all three pins at once; summing the pad
            # zeros left to right matches the scalar pin loop exactly.
            driver = pb.net_driver[pb.gate_in[gates]]
            has_driver = driver >= 0
            driver_cell = pb.gate_cell[np.where(has_driver, driver, 0)]
            term = (
                tables.tau_g[driver_cell] * cap_delta[:, None]
                / tables.cap[driver_cell]
            )
            fanin_delta = np.where(has_driver, term, 0.0).sum(axis=1)
            apply = has_up & ((own_delta + fanin_delta) < -1e-6)
            if apply.any():
                swapped = gates[apply]
                pb.gate_cell[swapped] = up[apply]
                pb.cap_gate[swapped] = tables.cap[up[apply]]
                changed[graph_ids[sel][apply]] = True
                swapped_parts.append(swapped)

        # ---- slack-driven area recovery -------------------------------
        if options.area_recovery:
            cells = pb.gate_cell[: pb.G]
            down = tables.down[cells]
            threshold = options.slack_threshold * delay_ns
            slack = delay_ns[pb.gate_graph] - arrival[pb.gate_out]
            shrink = (
                active[pb.gate_graph]
                & (tables.drive[cells] != 1)
                & (slack > threshold[pb.gate_graph])
                & (down >= 0)
            )
            if shrink.any():
                idx = np.flatnonzero(shrink)
                pb.gate_cell[idx] = down[idx]
                pb.cap_gate[idx] = tables.cap[down[idx]]
                changed[np.unique(pb.gate_graph[idx])] = True
                swapped_parts.append(idx)

        # ---- accept / rollback / stop ---------------------------------
        still = active & changed
        if not still.any():
            break
        swapped = np.unique(np.concatenate(swapped_parts))
        fanin = pb.net_driver[pb.gate_in[swapped].ravel()]
        dirty = np.unique(np.concatenate([swapped, fanin[fanin >= 0]]))
        new_arrival, new_gate_delay, new_delay, new_crit = pb.resta(
            arrival, gate_delay, dirty
        )
        regressed = still & (new_delay > delay_ns + 1e-12)
        if regressed.any():
            mask = regressed[pb.gate_graph]
            pb.gate_cell[: pb.G][mask] = snapshot[mask]
            pb.cap_gate[: pb.G][mask] = tables.cap[snapshot[mask]]
        accepted = still & ~regressed
        delay_ns = np.where(accepted, new_delay, delay_ns)
        crit_po = np.where(accepted, new_crit, crit_po)
        arrival = np.where(
            np.append(accepted[pb.net_graph], False), new_arrival, arrival
        )
        gate_delay = np.where(accepted[pb.gate_graph], new_gate_delay, gate_delay)
        acc = np.flatnonzero(accepted)
        if len(acc):
            traced = pb.trace_paths(crit_po[acc], arrival)
            path_mat = np.full((pb.B, traced.shape[1]), -1, dtype=np.int64)
            path_mat[acc] = traced
        active = accepted

    return delay_ns, crit_po


# ----------------------------------------------------------------------
# Result extraction
# ----------------------------------------------------------------------
def _extract_results(
    pb: _PackedBatch, delay_ns: np.ndarray, crit_po: np.ndarray
) -> List[PhysicalResult]:
    results: List[PhysicalResult] = []
    tables = pb.tables
    function_names = tables.function_names
    num_functions = len(function_names)
    cells_flat = pb.gate_cell[: pb.G]
    gate_areas = tables.area[cells_flat]
    histograms = np.bincount(
        tables.function_id[cells_flat]
        + np.repeat(np.arange(pb.B), np.diff(pb.gate_off)) * num_functions,
        minlength=pb.B * num_functions,
    ).reshape(pb.B, num_functions)
    for b in range(pb.B):
        goff, gend = int(pb.gate_off[b]), int(pb.gate_off[b + 1])
        noff, nend = int(pb.net_off[b]), int(pb.net_off[b + 1])
        # np.add.accumulate is a strict left-to-right fold (unlike
        # np.sum / reduceat, which regroup pairwise), so its last element
        # reproduces Netlist.area() / total_wire_length() bit for bit.
        area = float(np.add.accumulate(gate_areas[goff:gend])[-1])
        wirelength = float(np.add.accumulate(pb.wire_lengths[noff:nend])[-1])
        histogram = histograms[b]
        results.append(
            PhysicalResult(
                area_um2=area,
                delay_ns=float(delay_ns[b]),
                num_gates=gend - goff,
                num_buffers=int(pb.num_buffers[b]),
                wirelength_um=wirelength,
                cell_counts={
                    function_names[i]: int(count)
                    for i, count in enumerate(histogram[:num_functions])
                    if count
                },
                critical_output=pb.po_names[int(crit_po[b]) % pb.po_count],
            )
        )
    return results


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def synthesize_many(
    graphs: Sequence[PrefixGraph],
    library: CellLibrary,
    circuit_type: str = "adder",
    io_timing: Optional[IOTiming] = None,
    options: Optional[SynthesisOptions] = None,
) -> List[PhysicalResult]:
    """Synthesize a population; bit-identical to the per-graph flow."""
    graphs = list(graphs)
    if not graphs:
        return []
    io_timing = io_timing or IOTiming()
    options = options or SynthesisOptions()
    tables = _tables_for(library)
    template = _IOTemplate(graphs[0].n, circuit_type, io_timing)
    flat = _build_flat(graphs, tables, template, circuit_type, options)
    pb = _PackedBatch(flat, tables, library, template)
    delay_ns, crit_po = _size_gates_batched(pb, options)
    return _extract_results(pb, delay_ns, crit_po)
