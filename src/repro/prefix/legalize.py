"""Legalization of raw prefix-graph grids (paper Sec. 5.1).

CircuitVAE's decoder emits an arbitrary Bernoulli grid; the paper legalizes
it "by inserting missing parents of existing nodes" before synthesis, and
treats legalization as part of the objective function so the cost predictor
learns legalization-equivalent values.  The same routine backs the GA's
variation operators and the RL environment's action application.

The algorithm processes rows from the most significant downward.  For a
node (i, j), its upper parent (i, k) is within row ``i`` by construction
(``k`` = next present column), and its lower parent (k-1, j) lives in a
*lower-index* row, which has not been scanned yet — so each insertion is
seen later and recursively completed.  A single top-down sweep therefore
yields a legal graph.

The sweep runs one row at a time across a whole batch of grids.  That is
exact because row ``i`` only ever inserts into rows below ``i``: the
present columns of row ``i`` are final once every row above it has been
scanned, so all of row ``i``'s insertions — for every design at once — can
be one fancy assignment.  Consecutive present columns of one design are
the (node, upper parent) pairs; the only other consecutive pairs in the
batch's row-major ``nonzero`` listing straddle two designs, running from
the earlier design's diagonal cell (i, i) to the next design's output cell
(i, 0).  Their "lower parent" row ``0 - 1`` lands in a scratch row above
the grid, so they need no filtering.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .graph import PrefixGraph

__all__ = ["legalize", "legalize_grid", "legalize_grids"]


@lru_cache(maxsize=None)
def _masks(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(lower triangle, forced cells) of an n-bit grid; forced cells are
    the diagonal and the output column."""
    lower = np.tril(np.ones((n, n), dtype=bool))
    forced = np.eye(n, dtype=bool)
    forced[:, 0] = True
    lower.flags.writeable = forced.flags.writeable = False
    return lower, forced


def legalize_grids(grids: np.ndarray) -> np.ndarray:
    """Return legal boolean grids containing each of ``grids``' nodes.

    ``grids`` is a ``(B, n, n)`` stack (any dtype; nonzero is present).
    Forces every diagonal and output column, then inserts missing lower
    parents top-down for the whole batch.  Each output grid satisfies
    ``PrefixGraph.is_legal``.
    """
    grids = np.asarray(grids)
    if grids.ndim != 3 or grids.shape[1] != grids.shape[2]:
        raise ValueError(f"grids must be a (B, n, n) stack, got {grids.shape}")
    batch, n = grids.shape[0], grids.shape[1]
    lower, forced = _masks(n)
    # Grid row r is buffer row r + 1, so the lower parent (k - 1, j) is
    # buffer cell (k, j); buffer row 0 is the scratch row.
    buffer = np.zeros((batch, n + 1, n), dtype=bool)
    out = buffer[:, 1:]
    np.logical_and(grids, lower, out=out)
    out |= forced
    for i in range(n - 1, 0, -1):
        designs, present = np.nonzero(out[:, i, : i + 1])
        buffer[designs[:-1], present[1:], present[:-1]] = True
    return out


def legalize_grid(grid: np.ndarray) -> np.ndarray:
    """Return a legal boolean grid containing ``grid``'s nodes.

    The one-design case of :func:`legalize_grids`.  The output satisfies
    ``PrefixGraph.is_legal``.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"grid must be square, got {grid.shape}")
    return legalize_grids(grid[None])[0]


def legalize(grid: np.ndarray) -> PrefixGraph:
    """Legalize a raw grid and wrap it as a :class:`PrefixGraph`."""
    return PrefixGraph(legalize_grid(grid), validate=False)
