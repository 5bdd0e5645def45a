"""``repro.opt`` — simulator facade, budgets, run records and their persistence."""

from .optimizer import SearchAlgorithm
from .pareto import dominates, pareto_front
from .results import (
    RunRecord,
    aggregate_curves,
    best_cost_at,
    median_iqr,
    sims_to_reach,
    vae_speedup,
)
from .records_io import load_evaluations, load_records, save_records
from .simulator import BudgetExhausted, CircuitSimulator, Evaluation, RunInterrupted

__all__ = [
    "SearchAlgorithm",
    "dominates",
    "pareto_front",
    "CircuitSimulator",
    "Evaluation",
    "BudgetExhausted",
    "RunRecord",
    "best_cost_at",
    "sims_to_reach",
    "aggregate_curves",
    "median_iqr",
    "vae_speedup",
    "RunInterrupted",
    "save_records",
    "load_records",
    "load_evaluations",
]
