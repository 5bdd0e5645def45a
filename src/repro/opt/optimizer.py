"""Common interface for all search algorithms.

CircuitVAE and every baseline implement :class:`SearchAlgorithm`: given a
budgeted :class:`~repro.opt.simulator.CircuitSimulator`, run until the
budget is exhausted (or the algorithm converges) and leave the evaluation
trace in the simulator.  The run handle (:mod:`repro.api.handle`) turns
that trace into :class:`~repro.opt.results.RunRecord` rows.
"""

from __future__ import annotations

import abc

import numpy as np

from .simulator import CircuitSimulator, Evaluation

__all__ = ["SearchAlgorithm"]


class SearchAlgorithm(abc.ABC):
    """Base class for black-box circuit optimizers."""

    #: short name used in tables and figures ("VAE", "GA", "RL", "BO", ...)
    method_name: str = "base"

    @abc.abstractmethod
    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        """Optimize until the simulator budget is exhausted.

        Implementations must treat :class:`~repro.opt.simulator.BudgetExhausted`
        as the normal termination signal and return the best evaluation
        found (``simulator.best()``).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(method={self.method_name!r})"
