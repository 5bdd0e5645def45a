"""Run records, cross-seed aggregation and the paper's summary statistics.

The paper reports, per method and setting:

* cost-vs-simulations curves with the **median and interquartile range**
  over five seeds (Figs. 3 and 7),
* best-design cost/area/delay with IQR (Table 1),
* **VAE speedup** — "the simulation budget for each method to produce its
  best adder divided by the simulation budget for CircuitVAE to obtain an
  equivalent or better circuit" (Table 1).

All of those reductions live here so every bench prints identical
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..prefix.graph import PrefixGraph
from .simulator import CircuitSimulator

__all__ = [
    "RunRecord",
    "best_cost_at",
    "sims_to_reach",
    "aggregate_curves",
    "median_iqr",
    "vae_speedup",
]


@dataclass
class RunRecord:
    """The outcome of one optimization run (one method, one seed)."""

    method: str
    task_name: str
    seed: int
    costs: np.ndarray  # cost of each unique simulation, in query order
    areas: np.ndarray
    delays: np.ndarray
    #: engine telemetry snapshot (cache hit-rate, synthesis throughput,
    #: per-stage seconds) when the run used an engine-backed simulator.
    telemetry: Optional[Dict] = None
    #: the lowest-cost design the run found (first occurrence on ties,
    #: matching :meth:`best_index`); lets record consumers render or
    #: re-synthesize the winner without keeping the full history.
    best_graph: Optional[PrefixGraph] = None

    @classmethod
    def from_simulator(cls, method: str, seed: int, simulator: CircuitSimulator) -> "RunRecord":
        history = simulator.history
        telemetry = simulator.telemetry
        best = min(history, key=lambda e: e.cost) if history else None
        return cls(
            method=method,
            task_name=simulator.task.name,
            seed=seed,
            costs=np.array([e.cost for e in history]),
            areas=np.array([e.area_um2 for e in history]),
            delays=np.array([e.delay_ns for e in history]),
            telemetry=telemetry.as_dict() if telemetry is not None else None,
            best_graph=best.graph if best is not None else None,
        )

    @property
    def num_simulations(self) -> int:
        return len(self.costs)

    def best_index(self) -> int:
        return int(np.argmin(self.costs))

    def best_cost(self) -> float:
        return float(self.costs.min())

    def best_metrics(self) -> Tuple[float, float, float]:
        """(cost, area, delay) of the best design found."""
        idx = self.best_index()
        return float(self.costs[idx]), float(self.areas[idx]), float(self.delays[idx])


def best_cost_at(record: RunRecord, budget: int) -> float:
    """Best cost achieved within the first ``budget`` simulations."""
    if budget < 1:
        return float("inf")
    usable = record.costs[: min(budget, len(record.costs))]
    return float(usable.min()) if len(usable) else float("inf")


def sims_to_reach(record: RunRecord, threshold: float) -> Optional[int]:
    """First simulation count at which cost <= threshold, or None."""
    hits = np.nonzero(record.costs <= threshold)[0]
    if len(hits) == 0:
        return None
    return int(hits[0]) + 1


def aggregate_curves(
    records: Sequence[RunRecord], budgets: Sequence[int]
) -> Dict[str, np.ndarray]:
    """Median / 25th / 75th percentile of best-cost across seeds at budgets."""
    matrix = np.array(
        [[best_cost_at(record, b) for b in budgets] for record in records]
    )
    return {
        "budgets": np.asarray(budgets),
        "median": np.median(matrix, axis=0),
        "q25": np.percentile(matrix, 25, axis=0),
        "q75": np.percentile(matrix, 75, axis=0),
    }


def median_iqr(values: Sequence[float]) -> Tuple[float, float, float]:
    """(median, q25, q75) of a sequence — the Table 1 cell format."""
    arr = np.asarray(list(values), dtype=np.float64)
    return (
        float(np.median(arr)),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 75)),
    )


def vae_speedup(
    vae_records: Sequence[RunRecord], other_records: Sequence[RunRecord]
) -> List[float]:
    """Per-seed VAE speedups, paired by position (Table 1 semantics).

    For each competing run: let ``c*`` be the best cost it ever reaches and
    ``B`` the budget it took to reach it.  The speedup is ``B / B_vae``
    where ``B_vae`` is the simulations CircuitVAE (same-index seed) needs
    to find an equal-or-better circuit.  Runs where the VAE never matches
    the competitor contribute speedup < 1 computed at the VAE's full
    budget (conservative).
    """
    speedups: List[float] = []
    for vae, other in zip(vae_records, other_records):
        other_best = other.best_cost()
        budget_other = sims_to_reach(other, other_best)
        budget_vae = sims_to_reach(vae, other_best)
        if budget_vae is None:
            budget_vae = vae.num_simulations  # lower bound: never matched
        speedups.append(budget_other / budget_vae)
    return speedups
