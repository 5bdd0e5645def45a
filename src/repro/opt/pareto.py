"""Pareto-frontier utilities for (area, delay) trade-off analysis.

Backs the Fig. 6 comparison (Pareto dominance against the commercial
tool's offerings) and the multi-objective view of any run history: the
scalar cost of Sec. 3 is a weighted sum, so the best designs across a
sweep of delay weights trace a Pareto frontier in (area, delay).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

__all__ = ["dominates", "pareto_front"]

Point = Tuple[float, float]


def dominates(a: Point, b: Point, strict: bool = True) -> bool:
    """True when ``a`` is at least as good as ``b`` in both objectives
    (minimization) and, if ``strict``, better in at least one."""
    at_least = a[0] <= b[0] + 1e-12 and a[1] <= b[1] + 1e-12
    if not at_least:
        return False
    if not strict:
        return True
    return a[0] < b[0] - 1e-12 or a[1] < b[1] - 1e-12


def pareto_front(points: Iterable[Point]) -> List[Point]:
    """Non-dominated subset, sorted by the first objective.

    Duplicate points are collapsed.  O(n log n) sweep: sort by x then keep
    points with strictly decreasing y.
    """
    unique = sorted(set((float(a), float(b)) for a, b in points))
    front: List[Point] = []
    best_y = float("inf")
    for x, y in unique:
        if y < best_y - 1e-12:
            front.append((x, y))
            best_y = y
    return front
