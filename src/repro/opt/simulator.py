"""The black-box simulation oracle all search methods query.

Wraps a :class:`~repro.circuits.task.CircuitTask` with:

* **budget accounting** — the paper measures sample efficiency in number
  of physical simulations; each *unique* circuit synthesized counts one
  simulation against the budget (re-querying a cached design is free,
  because a real workflow would also memoize synthesis results).
* **legalization** — raw grids/bitvectors are legalized before synthesis,
  so legalization is "part of the objective function" (Sec. 5.1) and two
  encodings of the same legal circuit share a cache entry.
* **history recording** — every new evaluation is appended to a trace used
  to build the cost-vs-simulations curves of Figs. 3 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..circuits.task import CircuitTask
from ..prefix.graph import PrefixGraph
from ..prefix.legalize import legalize

__all__ = ["Evaluation", "BudgetExhausted", "CircuitSimulator"]


@dataclass(frozen=True)
class Evaluation:
    """One synthesized design and its measured metrics."""

    graph: PrefixGraph
    cost: float
    area_um2: float
    delay_ns: float
    sim_index: int  # how many unique simulations had run *after* this one


class BudgetExhausted(RuntimeError):
    """Raised when a query would exceed the simulation budget."""


class CircuitSimulator:
    """Budgeted, memoizing synthesis oracle for one task."""

    def __init__(self, task: CircuitTask, budget: Optional[int] = None):
        self.task = task
        self.budget = budget
        self._cache: Dict[bytes, Evaluation] = {}
        self.history: List[Evaluation] = []
        #: per-run engine telemetry; None on the plain serial simulator,
        #: an EngineTelemetry on repro.engine's EngineSimulator.  Declared
        #: here so algorithms can time their stages with a plain attribute
        #: access regardless of backend.
        self.telemetry = None
        #: the simulator-boundary hook: called with each *new*
        #: :class:`Evaluation` right after it is appended to ``history``
        #: (cache hits and budget refusals never fire it).  This is how
        #: the streaming run API (:meth:`repro.api.Session.submit`)
        #: observes, checkpoints and interrupts every method without
        #: per-method changes — the hook may raise (e.g.
        #: :class:`repro.opt.runner.RunInterrupted`) to abort the run at
        #: a query boundary; the evaluation it was called with is already
        #: durable in ``history`` at that point.
        self.on_evaluation: Optional[Callable[[Evaluation], None]] = None
        #: abort hook checked at the *start* of every query — cache hits
        #: included, so an interrupt lands at the very next query
        #: boundary even when a method is cycling through already
        #: -evaluated designs and ``on_evaluation`` would never fire.
        #: Raises (e.g. RunInterrupted) to abort; must not mutate state.
        self.check_abort: Optional[Callable[[], None]] = None
        #: training hook: model-based methods (CircuitVAE, latent BO)
        #: call it after each retraining round with a plain info dict
        #: (round index, epochs run/skipped, last losses, compiled-step
        #: counters).  The streaming run API forwards it as a
        #: TrainingRoundFinished event; None means nobody is listening.
        self.on_training: Optional[Callable[[Dict], None]] = None
        #: durable home for training checkpoints: the run-directory
        #: layer points this at the executing (method, seed) cell so
        #: train_model can checkpoint epochs and Session.resume can
        #: skip them.  None for in-memory runs.
        self.train_checkpoint_dir: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def num_simulations(self) -> int:
        """Unique physical simulations performed so far."""
        return len(self.history)

    @property
    def remaining(self) -> Optional[int]:
        if self.budget is None:
            return None
        return max(self.budget - self.num_simulations, 0)

    def exhausted(self) -> bool:
        return self.budget is not None and self.num_simulations >= self.budget

    # ------------------------------------------------------------------
    def canonicalize(self, design: Union[PrefixGraph, np.ndarray]) -> PrefixGraph:
        """Legalize any design representation into a canonical graph."""
        if isinstance(design, PrefixGraph):
            return design
        return legalize(np.asarray(design))

    def _synthesize(self, graph: PrefixGraph) -> Tuple[float, float, float]:
        """Run physical synthesis on one new graph -> (cost, area, delay).

        The single override point for alternative execution backends: the
        batched/parallel/persistent engine
        (:class:`repro.engine.service.EngineSimulator`) replaces only this
        hook (and the batch planner), so budget, cache-identity and
        history semantics live in exactly one place — here.
        """
        result = self.task.synthesize(graph)
        return self.task.cost(result), result.area_um2, result.delay_ns

    def query(self, design: Union[PrefixGraph, np.ndarray]) -> Evaluation:
        """Synthesize a design (or return its cached evaluation).

        Raises :class:`BudgetExhausted` if the design is new and the budget
        is used up.
        """
        if self.check_abort is not None:
            self.check_abort()
        graph = self.canonicalize(design)
        key = graph.key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.exhausted():
            raise BudgetExhausted(
                f"simulation budget of {self.budget} exhausted on task {self.task.name}"
            )
        cost, area_um2, delay_ns = self._synthesize(graph)
        evaluation = Evaluation(
            graph=graph,
            cost=cost,
            area_um2=area_um2,
            delay_ns=delay_ns,
            sim_index=self.num_simulations + 1,
        )
        self._cache[key] = evaluation
        self.history.append(evaluation)
        if self.on_evaluation is not None:
            self.on_evaluation(evaluation)
        return evaluation

    def query_plan(self, designs) -> List[Optional[Evaluation]]:
        """Query a batch, one slot per design; None marks a budget refusal.

        Scans the *whole* batch even after the budget runs out: cached
        designs (including duplicates of entries synthesized earlier in
        this very batch) are always served, only genuinely-new designs are
        refused.  ``repro.engine`` overrides this with a batched parallel
        planner that preserves these exact semantics.
        """
        plan: List[Optional[Evaluation]] = []
        for design in designs:
            try:
                plan.append(self.query(design))
            except BudgetExhausted:
                plan.append(None)
        return plan

    def query_many(self, designs) -> List[Evaluation]:
        """Query a batch, silently skipping designs the budget refuses.

        Returns the evaluations obtained, in design order.  Cached hits
        are always served, even for designs that appear *after* the budget
        runs out mid-batch.
        """
        plan = self.query_plan(designs)
        return [e for e in plan if e is not None]

    # ------------------------------------------------------------------
    def best(self) -> Evaluation:
        """Lowest-cost evaluation so far."""
        if not self.history:
            raise ValueError("no simulations have run yet")
        return min(self.history, key=lambda e: e.cost)

    def best_cost_curve(self) -> np.ndarray:
        """Running minimum cost after each simulation (length = #sims)."""
        costs = np.array([e.cost for e in self.history])
        return np.minimum.accumulate(costs) if len(costs) else costs
