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

__all__ = ["Evaluation", "BudgetExhausted", "RunInterrupted", "CircuitSimulator"]


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


class RunInterrupted(RuntimeError):
    """A run was asked to stop at a simulator query boundary.

    Raised from the simulator hooks (:attr:`CircuitSimulator.check_abort`,
    :attr:`CircuitSimulator.on_evaluation`), e.g. by an ``on_event``
    observer of :meth:`repro.api.Session.run` or when a sibling seed
    thread failed; never caught by the algorithms themselves — they only handle :class:`BudgetExhausted` — so it
    unwinds the whole seed cleanly.  Everything evaluated before the
    interrupt is already recorded (the history append happens before
    the hook runs), which is what makes interrupted runs resumable.
    """


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
        #: the run API (:meth:`repro.api.Session.run`) observes,
        #: checkpoints and interrupts every method without per-method
        #: changes — the hook may raise (e.g. :class:`RunInterrupted`) to
        #: abort the run at a query boundary; the evaluation it was
        #: called with is already durable in ``history`` at that point.
        self.on_evaluation: Optional[Callable[[Evaluation], None]] = None
        #: abort hook checked at the *start* of every query and batch —
        #: cache hits included, so an interrupt lands at the very next query
        #: boundary even when a method is cycling through already
        #: -evaluated designs and ``on_evaluation`` would never fire.
        #: Raises (e.g. :class:`RunInterrupted`) to abort; must not
        #: mutate state.
        self.check_abort: Optional[Callable[[], None]] = None
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

    def exhausted(self) -> bool:
        return self.budget is not None and self.num_simulations >= self.budget

    # ------------------------------------------------------------------
    def canonicalize(self, design: Union[PrefixGraph, np.ndarray]) -> PrefixGraph:
        """Legalize any design representation into a canonical graph."""
        if isinstance(design, PrefixGraph):
            return design
        return legalize(np.asarray(design))

    def _synthesize_many(
        self, graphs: List[PrefixGraph]
    ) -> List[Tuple[float, float, float]]:
        """Run physical synthesis on unique new graphs -> (cost, area,
        delay) each, in order.

        The single override point for alternative execution backends: the
        batched/parallel/persistent engine
        (:class:`repro.engine.service.EngineSimulator`) replaces only this
        hook, so budget, cache-identity and history semantics live in
        exactly one place — :meth:`query_plan`.  This reference is the
        scalar ``task.synthesize`` loop.
        """
        out = []
        for graph in graphs:
            result = self.task.synthesize(graph)
            out.append((self.task.cost(result), result.area_um2, result.delay_ns))
        return out

    def query(self, design: Union[PrefixGraph, np.ndarray]) -> Evaluation:
        """Synthesize a design (or return its cached evaluation).

        Raises :class:`BudgetExhausted` if the design is new and the budget
        is used up.
        """
        (evaluation,) = self.query_plan([design])
        if evaluation is None:
            raise BudgetExhausted(
                f"simulation budget of {self.budget} exhausted on task {self.task.name}"
            )
        return evaluation

    def query_plan(self, designs) -> List[Optional[Evaluation]]:
        """Query a batch, one slot per design; None marks a budget refusal.

        Classifies every design in submission order — run-memo hit,
        duplicate of a design scheduled earlier in this batch, budget
        refusal, or new — then synthesizes all new unique graphs in one
        :meth:`_synthesize_many` call and assigns ``sim_index`` in
        submission order, so accounting never depends on the backend.
        Scans the *whole* batch even after the budget runs out: cached
        designs (including duplicates of entries scheduled earlier in
        this very batch) are always served, only genuinely-new designs
        are refused.
        """
        if self.check_abort is not None:
            self.check_abort()
        telemetry = self.telemetry
        # Each slot is an Evaluation (memo hit), a scheduled key, or None.
        slots: List[Union[Evaluation, bytes, None]] = []
        scheduled: List[PrefixGraph] = []
        scheduled_keys = set()
        for design in designs:
            graph = self.canonicalize(design)
            key = graph.key()
            cached = self._cache.get(key)
            if cached is not None:
                if telemetry is not None:
                    telemetry.add("run_hits")
                slots.append(cached)
            elif key in scheduled_keys:
                slots.append(key)
            elif self.budget is not None and (
                self.num_simulations + len(scheduled) >= self.budget
            ):
                if telemetry is not None:
                    telemetry.add("budget_refusals")
                slots.append(None)
            else:
                scheduled_keys.add(key)
                scheduled.append(graph)
                slots.append(key)

        if scheduled:
            measured = self._synthesize_many(scheduled)
            for graph, (cost, area_um2, delay_ns) in zip(scheduled, measured):
                evaluation = Evaluation(
                    graph=graph,
                    cost=cost,
                    area_um2=area_um2,
                    delay_ns=delay_ns,
                    sim_index=self.num_simulations + 1,
                )
                self._cache[graph.key()] = evaluation
                self.history.append(evaluation)
                # If the hook raises mid-batch, every evaluation appended
                # so far is already recorded; the batch's later designs
                # simply rerun on resume (synthesis is deterministic, so
                # bit-identically).
                if self.on_evaluation is not None:
                    self.on_evaluation(evaluation)
        return [self._cache[s] if isinstance(s, bytes) else s for s in slots]

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
