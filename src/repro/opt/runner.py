"""Experiment harness: run (method x seed) grids and collect records.

This is the machinery behind every figure/table bench: the paper runs each
experiment "with five different random seeds and independently collected
initial datasets" and reports medians and interquartile ranges.
:meth:`repro.api.Session.run` is the public entry point; it drives
:func:`_run_seed_grid` once per method.

A grid routes through a :class:`repro.engine.EvaluationEngine`: every
seed gets an engine-backed simulator sharing one persistent cache and
worker pool.  ``parallel_seeds > 1`` runs one thread per seed
(up to that many at a time).  Each seed owns its simulator, budget
accounting, rng and model, so records are bit-identical to serial
execution.

Cores are a budget: while a parallel grid runs, every OpenBLAS build is
capped at ``cores // seed threads`` threads
(:func:`repro.utils.threads.blas_budget`), so seed threads × BLAS
threads ≤ cores.  Serial grids never enter a budget, but the cap is
process-wide: a serial grid running while another grid's budget is
active runs under that cap too.  Records do not depend on either count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from ..circuits.task import CircuitTask
from ..obs import trace
from ..utils.threads import blas_budget, blas_thread_counts, usable_cores
from .optimizer import SearchAlgorithm
from .results import RunRecord
from .simulator import BudgetExhausted, CircuitSimulator

if TYPE_CHECKING:  # runtime import would cycle: repro.engine imports repro.opt
    from ..engine.service import EvaluationEngine

__all__ = ["GridObserver", "RunInterrupted"]

AlgorithmFactory = Callable[[int], SearchAlgorithm]


class RunInterrupted(RuntimeError):
    """A run was asked to stop at a simulator query boundary.

    Raised by a :class:`GridObserver` (e.g. when
    :meth:`repro.api.RunHandle.interrupt` was called); never caught by
    the algorithms themselves — they only handle
    :class:`~repro.opt.simulator.BudgetExhausted` — so it unwinds the
    whole seed cleanly.  Everything evaluated before the interrupt is
    already recorded (history appends happen before the observer runs),
    which is what makes interrupted runs resumable.
    """


class GridObserver:
    """Hook points :func:`_run_seed_grid` offers around each (method, seed).

    The no-op base class; :mod:`repro.api` subclasses it to stream typed
    run events, write run directories incrementally and implement
    interrupt/resume.  With ``parallel_seeds > 1`` the per-seed hooks are
    called concurrently from the seed threads — implementations must be
    thread-safe across *different* (method, seed) cells (one cell is
    always driven by a single thread).
    """

    def check_interrupt(self) -> None:
        """Raise :class:`RunInterrupted` to stop before the next seed."""

    def completed_record(self, method: str, seed: int) -> Optional[RunRecord]:
        """A previously finished record for this cell (skips the run)."""
        return None

    def before_seed(self, method: str, seed: int, simulator: CircuitSimulator) -> int:
        """Prepare a fresh simulator (e.g. warm-cache replay priming).

        Returns how many recorded evaluations were primed for replay.
        """
        return 0

    def on_seed_started(self, method: str, seed: int, replayed: int) -> None:
        """The seed's algorithm is about to run."""

    def on_evaluation(self, method: str, seed: int, evaluation) -> None:
        """One new evaluation was appended to the seed's history.

        Called at the simulator query boundary (see
        :attr:`~repro.opt.simulator.CircuitSimulator.on_evaluation`); may
        raise :class:`RunInterrupted` to abort the run here.
        """

    def on_seed_finished(
        self, method: str, seed: int, record: RunRecord, resumed: bool
    ) -> None:
        """The cell completed (``resumed`` = served from a prior record)."""


def _run_seed_grid(
    factory: AlgorithmFactory,
    task: CircuitTask,
    budget: int,
    seeds: Sequence[int],
    engine: "EvaluationEngine",
    method_name: Optional[str] = None,
    parallel_seeds: int = 1,
    observer: Optional[GridObserver] = None,
) -> List[RunRecord]:
    """The engine room behind :meth:`repro.api.Session.run`: one
    algorithm across seeds, one fresh simulator per run.

    ``factory(seed)`` builds the algorithm instance (so per-seed
    configuration like initial-dataset sizes can vary, as in the paper's
    grouped-budget curves).  ``engine`` is the shared
    :class:`repro.engine.EvaluationEngine` every seed's simulator runs
    on; ``parallel_seeds`` runs that many seeds concurrently,
    one thread per seed, with records bit-identical to serial.

    ``observer`` (a :class:`GridObserver`) adds job-lifecycle semantics
    without touching any method: a per-seed completion ledger (finished
    cells are served from their stored record, not re-run), warm-cache
    replay priming, per-evaluation streaming via the simulator-boundary
    hook, and interruption (:class:`RunInterrupted` propagates out of
    this function once in-flight seeds reach a query boundary).
    """
    if observer is not None and method_name is None:
        raise ValueError("an observed grid needs an explicit method_name")
    seeds = list(seeds)
    workers = max(1, min(parallel_seeds, len(seeds)))

    def _run_one(seed: int) -> RunRecord:
        # The span context-manager form guarantees the seed span closes
        # even when RunInterrupted (or anything else) unwinds the seed
        # thread mid-run; fresh threads parent to the tracer's default
        # context (the experiment root span).
        with trace.span("seed") as span:
            if method_name is not None:
                span.set_attr("method", method_name)
            span.set_attr("seed", seed)
            span.set_attr("seed_threads", workers)
            try:
                return _run_seed(seed)
            finally:
                if trace.active():
                    # The live count at seed end, not the grid's request:
                    # the cap is process-wide (see the module docstring).
                    counts = blas_thread_counts().values()
                    span.set_attr("blas_threads", max(counts, default=0))

    def _run_seed(seed: int) -> RunRecord:
        if observer is not None:
            observer.check_interrupt()
            done = observer.completed_record(method_name, seed)
            if done is not None:
                observer.on_seed_finished(method_name, seed, done, resumed=True)
                return done
        algorithm = factory(seed)
        simulator = engine.simulator(task, budget=budget)
        if observer is not None:
            replayed = observer.before_seed(method_name, seed, simulator)
            observer.on_seed_started(method_name, seed, replayed)
            simulator.on_evaluation = lambda evaluation: observer.on_evaluation(
                method_name, seed, evaluation
            )
            # Checked at the start of *every* query (cache hits too), so
            # an interrupt cannot stall behind a hit-only stretch.
            simulator.check_abort = observer.check_interrupt
        rng = np.random.default_rng(seed)
        try:
            algorithm.run(simulator, rng)
        except BudgetExhausted:
            pass  # normal termination for budget-driven algorithms
        record = RunRecord.from_simulator(
            method_name or algorithm.method_name, seed, simulator
        )
        if observer is not None:
            observer.on_seed_finished(method_name, seed, record, resumed=False)
        return record

    if workers == 1:
        return [_run_one(seed) for seed in seeds]
    # Cores are a budget: each seed thread gets its share of BLAS threads.
    # The pool joins its threads before the budget restores the counts.
    with blas_budget(max(1, usable_cores() // workers)):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_one, seeds))
