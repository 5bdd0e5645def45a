"""Classical parallel-prefix structures.

These are the human-designed adders the paper compares against (Sec. 3 and
Fig. 6): ripple-carry (minimum area, maximum depth), Sklansky (minimum
depth, high fanout), Kogge-Stone (minimum depth and fanout, maximum
wiring/area), Brent-Kung (near-minimum area, ~2x depth), and the sparse
hybrids Han-Carlson and Ladner-Fischer.  Sklansky is also CircuitVAE's
search seed (Fig. 1) and one of the ablation initializations (Fig. 4).

All constructors return legal :class:`~repro.prefix.graph.PrefixGraph`
objects; legality and functional correctness are asserted in the test
suite for every width.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .graph import PrefixGraph

__all__ = [
    "ripple_carry",
    "sklansky",
    "kogge_stone",
    "brent_kung",
    "han_carlson",
    "ladner_fischer",
    "STRUCTURES",
    "make_structure",
]


def _empty(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("bitwidth must be >= 1")
    grid = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(grid, True)
    grid[:, 0] = True  # output column: all prefixes are required
    return grid


def ripple_carry(n: int) -> PrefixGraph:
    """Schoolbook carry chain: span (i, 0) built from (i-1, 0) serially.

    Minimum possible node count (n - 1 operators) and maximum depth (n - 1).
    """
    return PrefixGraph(_empty(n), validate=False)


def sklansky(n: int) -> PrefixGraph:
    """Sklansky (1960) conditional-sum / recursive-doubling structure.

    Depth ``ceil(log2 n)`` with minimal node count among minimum-depth
    structures, at the price of exponentially growing fanout.
    """
    grid = _empty(n)
    t = 1
    while (1 << (t - 1)) < n:
        for i in range(n):
            if (i >> (t - 1)) & 1:
                j = (i >> t) << t
                grid[i, j] = True
        t += 1
    return PrefixGraph(grid, validate=False)


def kogge_stone(n: int) -> PrefixGraph:
    """Kogge-Stone (1973): minimum depth and unit fanout, maximum nodes."""
    grid = _empty(n)
    for i in range(1, n):
        t = 1
        while True:
            j = i - (1 << t) + 1
            if j <= 0:
                grid[i, 0] = True
                break
            grid[i, j] = True
            t += 1
    return PrefixGraph(grid, validate=False)


def brent_kung(n: int) -> PrefixGraph:
    """Brent-Kung (1982): up-sweep/down-sweep tree, ~2 log2 n depth, ~2n nodes."""
    grid = _empty(n)
    # Up-sweep: combine blocks of doubling size; block roots at i = m*2^t - 1.
    t = 1
    while (1 << t) <= n:
        step = 1 << t
        for i in range(step - 1, n, step):
            grid[i, i - step + 1] = True
        t += 1
    # Down-sweep: fill in prefixes at block midpoints, largest blocks first.
    while t >= 1:
        step = 1 << t
        half = 1 << (t - 1)
        for i in range(step + half - 1, n, step):
            grid[i, 0] = True
        t -= 1
    return PrefixGraph(grid, validate=False)


def _sparse_hybrid(n: int, core: Callable[[int], PrefixGraph]) -> PrefixGraph:
    """Sparsity-2 hybrid: pair bits, run ``core`` over odd positions, fix evens.

    This is the construction behind Han-Carlson (Kogge-Stone core) and the
    sparse Ladner-Fischer variant (Sklansky core).
    """
    grid = _empty(n)
    m = n // 2  # number of odd positions 1, 3, ..., 2m-1
    if m >= 1:
        reduced = core(m).grid
        for r in range(m):
            for s in range(r + 1):
                if reduced[r, s]:
                    # Reduced span [r:s] covers original bits [2r+1 : 2s].
                    grid[2 * r + 1, 2 * s] = True
    # Even fixup: (i, 0) = (i, i) . (i-1, 0).
    for i in range(2, n, 2):
        grid[i, 0] = True
    return PrefixGraph(grid, validate=False)


def han_carlson(n: int) -> PrefixGraph:
    """Han-Carlson: Kogge-Stone over odd bits + one fixup level."""
    return _sparse_hybrid(n, kogge_stone)


def ladner_fischer(n: int) -> PrefixGraph:
    """Sparse Ladner-Fischer: Sklansky over odd bits + one fixup level."""
    return _sparse_hybrid(n, sklansky)


STRUCTURES: Dict[str, Callable[[int], PrefixGraph]] = {
    "ripple": ripple_carry,
    "sklansky": sklansky,
    "kogge_stone": kogge_stone,
    "brent_kung": brent_kung,
    "han_carlson": han_carlson,
    "ladner_fischer": ladner_fischer,
}


def make_structure(name: str, n: int) -> PrefixGraph:
    """Build a named classical structure at bitwidth ``n``."""
    try:
        builder = STRUCTURES[name]
    except KeyError:
        raise KeyError(f"unknown structure {name!r}; choose from {sorted(STRUCTURES)}")
    return builder(n)
