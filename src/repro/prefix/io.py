"""Persistence of prefix graphs and design collections.

Search runs produce circuits a user wants to keep (tape-out candidates,
regression baselines); these helpers serialize graphs compactly and
re-validate on load, so a corrupted or hand-edited file can never smuggle
an illegal circuit back into a flow.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import PrefixGraph

__all__ = ["graph_to_dict", "graph_from_dict", "save_designs", "load_designs"]

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


def save_designs(
    path: str,
    designs: Sequence[Tuple[PrefixGraph, Dict]],
) -> None:
    """Write [(graph, metadata), ...] as a JSON design library."""
    payload = {
        "version": _FORMAT_VERSION,
        "designs": [
            {"graph": graph_to_dict(graph), "meta": dict(meta)}
            for graph, meta in designs
        ],
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def load_designs(path: str) -> List[Tuple[PrefixGraph, Dict]]:
    """Read a design library; every graph is re-validated."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported library version {payload.get('version')!r}")
    return [
        (graph_from_dict(entry["graph"]), entry.get("meta", {}))
        for entry in payload["designs"]
    ]
