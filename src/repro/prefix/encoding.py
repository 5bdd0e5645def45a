"""Encodings of prefix graphs for the learned models and the GA.

Two views of the same circuit:

* **Grid tensor** — the full ``N x N`` float matrix the paper's CNN VAE
  autoencodes (Sec. 5.1, "N-bit prefix graphs are represented with an
  N x N matrix as in [PrefixRL]").
* **Free bitvector** — only the cells that are actual degrees of freedom:
  strictly-lower-triangle cells excluding the output column (column 0) and
  the diagonal, both of which are structurally forced.  This is the
  representation the genetic algorithm mutates ("directly optimizing a
  bitvector representation of the circuit", Sec. 5.2).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .graph import PrefixGraph
from .legalize import legalize, legalize_grids

__all__ = [
    "free_cells",
    "num_free_cells",
    "graph_to_bits",
    "bits_to_graph",
    "bits_to_graphs",
    "legalize_bits",
    "random_graph",
    "unique_random_graphs",
]


def free_cells(n: int) -> List[Tuple[int, int]]:
    """Cells (i, j) with 0 < j < i: the mutable positions of an n-bit grid."""
    return [(i, j) for i in range(2, n) for j in range(1, i)]


def num_free_cells(n: int) -> int:
    """(n-1)(n-2)/2 — the GA's chromosome length."""
    return (n - 1) * (n - 2) // 2


@lru_cache(maxsize=None)
def _free_index(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of :func:`free_cells`, in its order."""
    rows, cols = np.tril_indices(n, k=-1)
    keep = cols > 0
    rows, cols = rows[keep], cols[keep]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def graph_to_bits(graph: PrefixGraph) -> np.ndarray:
    """Extract the free-cell bitvector (bool array) from a graph."""
    rows, cols = _free_index(graph.n)
    return graph.grid[rows, cols]


def bits_to_graph(bits: np.ndarray, n: int) -> PrefixGraph:
    """Legalize a free-cell bitvector into a :class:`PrefixGraph`.

    Legalization may switch *on* cells that are 0 in ``bits`` (missing
    parents are inserted), so this map is surjective onto legal graphs but
    not injective.
    """
    bits = np.asarray(bits, dtype=bool).reshape(-1)
    rows, cols = _free_index(n)
    if bits.shape[0] != len(rows):
        raise ValueError(f"expected {len(rows)} bits for n={n}, got {bits.shape[0]}")
    grid = np.zeros((n, n), dtype=bool)
    grid[rows, cols] = bits
    return legalize(grid)


def _legal_grids(bits: np.ndarray, n: int) -> np.ndarray:
    """Legalize a ``(B, L)`` stack of free-cell bitvectors -> (B, n, n)."""
    bits = np.asarray(bits, dtype=bool)
    rows, cols = _free_index(n)
    if bits.ndim != 2 or bits.shape[1] != len(rows):
        raise ValueError(
            f"expected a (B, {len(rows)}) bit stack for n={n}, got {bits.shape}"
        )
    grids = np.zeros((bits.shape[0], n, n), dtype=bool)
    grids[:, rows, cols] = bits
    return legalize_grids(grids)


def bits_to_graphs(bits: np.ndarray, n: int) -> List[PrefixGraph]:
    """Batched :func:`bits_to_graph`: one legalization sweep for a whole
    ``(B, L)`` stack of free-cell bitvectors."""
    return [PrefixGraph(grid, validate=False) for grid in _legal_grids(bits, n)]


def legalize_bits(bits: np.ndarray, n: int) -> np.ndarray:
    """The free-cell bits of the legalized designs of a ``(B, L)`` stack.

    ``bits_to_graphs(legalize_bits(bits, n), n)`` equals
    ``bits_to_graphs(bits, n)``; this form skips building the graphs.
    """
    rows, cols = _free_index(n)
    return _legal_grids(bits, n)[:, rows, cols]


def random_graph(n: int, rng: np.random.Generator, density: float = 0.2) -> PrefixGraph:
    """A random legal graph: Bernoulli(density) free cells, legalized.

    Used to seed initial datasets and as the reference distribution in
    tests.  ``density`` controls how far from ripple-carry the samples sit.
    """
    bits = rng.random(num_free_cells(n)) < density
    return bits_to_graph(bits, n)


def unique_random_graphs(
    n: int,
    count: int,
    rng: np.random.Generator,
    density_low: float = 0.1,
    density_high: float = 0.6,
) -> list:
    """``count`` random legal graphs with pairwise-distinct canonical keys.

    Rejection-samples :func:`random_graph` at densities drawn uniformly
    from [density_low, density_high] until ``count`` distinct circuits
    (by :meth:`~repro.prefix.graph.PrefixGraph.key`) are collected — the
    workload generator used by the engine tests and throughput benches,
    where batches must contain no duplicate synthesis work.  Raises
    ``ValueError`` instead of spinning forever when the space is too
    small (tiny ``n``, e.g. n=2 has exactly one legal graph).
    """
    graphs, seen = [], set()
    budget = max(1000, 200 * count)
    attempts = 0
    while len(graphs) < count:
        if attempts >= budget:
            raise ValueError(
                f"could not sample {count} distinct legal graphs for n={n} "
                f"in {budget} attempts (found {len(graphs)}); the design "
                f"space is likely smaller than count"
            )
        attempts += 1
        density = density_low + (density_high - density_low) * rng.random()
        graph = random_graph(n, rng, density)
        if graph.key() not in seen:
            seen.add(graph.key())
            graphs.append(graph)
    return graphs
