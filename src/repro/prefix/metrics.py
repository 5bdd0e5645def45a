"""Structural metrics over prefix graphs — scalar and stacked-batch forms.

Used by Fig. 8's structure comparison (best adder vs best gray-to-binary
converter) and by the analytics in the benchmark harnesses.

``stacked_grids`` / ``batch_levels`` lift the per-graph level computation
to whole populations: one ``(B, n, n)`` boolean array, iterated
cell-by-cell with numpy doing the batch dimension.  :mod:`repro.synth.batched` builds
its per-population topological orders from ``batch_levels`` instead of B
separate ``PrefixGraph.levels()`` dictionaries.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .graph import PrefixGraph

__all__ = [
    "hamming_distance",
    "structure_summary",
    "stacked_grids",
    "batch_levels",
]


def hamming_distance(a: PrefixGraph, b: PrefixGraph) -> int:
    """Number of grid cells that differ between two same-width graphs."""
    if a.n != b.n:
        raise ValueError(f"width mismatch: {a.n} vs {b.n}")
    return int(np.count_nonzero(a.grid != b.grid))


def stacked_grids(graphs: Sequence[PrefixGraph]) -> np.ndarray:
    """Stack same-width graphs into one ``(B, n, n)`` boolean array."""
    if not graphs:
        raise ValueError("need at least one graph to stack")
    n = graphs[0].n
    for graph in graphs:
        if graph.n != n:
            raise ValueError(f"width mismatch in batch: {graph.n} vs {n}")
    return np.stack([graph.grid for graph in graphs])


def batch_levels(grids: np.ndarray) -> np.ndarray:
    """Logic level of every present span, for a whole stack at once.

    ``grids`` is a legal ``(B, n, n)`` stack; the result is ``(B, n, n)``
    int64 with absent cells at 0.  Equals ``PrefixGraph.levels()`` entry
    for entry: level(i, j) = max(level(i, k), level(k-1, j)) + 1 with
    ``k`` the nearest present column right of ``j``.  Both parents of
    ``(i, j)`` cover a shorter span than ``i - j``, so one vectorized step
    per span ``d = 1 .. n-1`` (one diagonal of every grid) resolves all
    levels in ``n - 1`` steps.
    """
    grids = np.asarray(grids, dtype=bool)
    if grids.ndim != 3 or grids.shape[1] != grids.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {grids.shape}")
    B, n, _ = grids.shape
    # nearest[b, i, j]: first present column k > j of row i (k <= i, as
    # the diagonal is always present; n where no such column exists).
    cols = np.where(grids, np.arange(n), n)
    nearest = np.full((B, n, n), n, dtype=np.int64)
    nearest[:, :, :-1] = np.minimum.accumulate(cols[:, :, :0:-1], axis=2)[:, :, ::-1]
    rows = np.arange(B)[:, None]
    levels = np.zeros((B, n, n), dtype=np.int64)
    for d in range(1, n):
        i = np.arange(d, n)
        j = i - d
        k = nearest[:, i, j]
        upper = levels[rows, i, k]
        lower = levels[rows, k - 1, j]
        levels[:, i, j] = np.where(grids[:, i, j], np.maximum(upper, lower) + 1, 0)
    return levels


def structure_summary(graph: PrefixGraph) -> Dict[str, float]:
    """Compact structural fingerprint (used by the Fig. 8 bench)."""
    fanouts = list(graph.fanouts().values())
    return {
        "n": graph.n,
        "nodes": graph.node_count(),
        "depth": graph.depth(),
        "max_fanout": max(fanouts),
        "mean_fanout": float(np.mean(fanouts)),
    }
