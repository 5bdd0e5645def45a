"""Persistence of prefix graphs.

Run records and evaluation histories store the graphs they found; these
helpers serialize a graph compactly and re-validate it on load, so a
corrupted or hand-edited file can never smuggle an illegal circuit back
into a flow.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

import numpy as np

from .graph import PrefixGraph

__all__ = ["graph_to_dict", "graph_from_dict"]

_FORMAT_VERSION = 1


@lru_cache(maxsize=None)
def _stored_cells(n: int) -> np.ndarray:
    """Cells a stored design lists: the strict lower triangle minus the
    output column (diagonal and column 0 are structurally forced)."""
    cells = np.tril(np.ones((n, n), dtype=bool), k=-1)
    cells[:, 0] = False
    cells.flags.writeable = False
    return cells


def graph_to_dict(graph: PrefixGraph) -> Dict:
    """JSON-serializable form: width + list of non-forced node cells."""
    nodes = np.argwhere(graph.grid & _stored_cells(graph.n)).tolist()
    return {"version": _FORMAT_VERSION, "n": graph.n, "nodes": nodes}


def graph_from_dict(payload: Dict) -> PrefixGraph:
    """Rebuild and *validate* a graph from :func:`graph_to_dict` output."""
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported design format version {payload.get('version')!r}")
    n = int(payload["n"])
    grid = np.zeros((n, n), dtype=bool)
    for i, j in payload["nodes"]:
        if not (0 <= j <= i < n):
            raise ValueError(f"node ({i},{j}) outside the lower triangle of n={n}")
        grid[i, j] = True
    graph = PrefixGraph(grid, validate=False)
    if not graph.is_legal():
        raise ValueError("stored design is not a legal prefix graph")
    return graph
