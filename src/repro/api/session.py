"""Sessions: engine ownership + job-style spec execution in one object.

A :class:`Session` is the runtime counterpart of a declarative
:class:`~repro.api.spec.ExperimentSpec`: it owns one
:class:`~repro.engine.EvaluationEngine` (persistent cache and synthesis
worker pool) for its whole lifetime, so callers
never thread raw ``engine=`` handles through their code.  Any number of
experiments can run on one session and share cache entries; closing the
session (or using it as a context manager) shuts the worker pool down.

Execution runs on the caller's thread and returns the result:

* :meth:`Session.run` resolves every method through the registry
  (fail-fast, before any synthesis), optionally creates a durable run
  directory (:mod:`repro.api.rundir`), executes the grid and returns an
  :class:`ExperimentResult`.  ``on_event`` observes the typed events of
  :mod:`repro.api.events` as they happen and may stop the run.
* :meth:`Session.resume` reopens an interrupted run directory and
  continues only its unfinished (method, seed) cells — finished cells
  are served from the completion ledger, partial cells replay their
  recorded evaluation history through the engine's warm cache (zero new
  synthesis for recorded work) and run on, bit-identically.

Records are bit-identical to serial execution in every mode (see
:mod:`repro.engine`); interruption and resume never change
paper-semantics accounting, only where the wall-clock work happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from ..engine.service import EvaluationEngine
from ..engine.telemetry import derived_fields
from ..opt.records_io import save_records
from ..opt.results import RunRecord, aggregate_curves, median_iqr
from .events import RunEvent
from .handle import execute
from .registry import build_config, get_method
from .rundir import RunDirectory
from .spec import ExperimentSpec

__all__ = ["Session", "ExperimentResult"]


def _sum_telemetry(snapshots: List[Dict]) -> Dict:
    """Fold per-run telemetry snapshots into one experiment total.

    Summing the runs' own snapshots attributes exactly this
    experiment's work and stays correct on a reused session.  The derived fields
    (cache_hits, hit_rate, synth_throughput) are recomputed from the
    totals by the same helper ``as_dict`` uses.
    """
    total: Dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, dict):
                bucket = total.setdefault(key, {})
                for name, amount in value.items():
                    bucket[name] = bucket.get(name, 0) + amount
            else:
                total[key] = total.get(key, 0) + value
    total.update(derived_fields(total))
    return total


@dataclass
class ExperimentResult:
    """Everything one :meth:`Session.run` produced."""

    spec: ExperimentSpec
    #: {method display name: [RunRecord per seed]}, seed-paired across
    #: methods (the Table-1 speedup pairing).
    records: Dict[str, List[RunRecord]]
    #: engine telemetry attributable to *this* experiment (the sum of
    #: every run's per-record snapshot, so reused sessions don't
    #: misattribute earlier runs' work).
    telemetry: Optional[Dict] = None
    #: the durable run directory this result was produced in (None for
    #: in-memory runs).
    run_dir: Optional[str] = None
    #: the run's ``trace.jsonl`` when hierarchical tracing was active
    #: (durable runs unless ``REPRO_TRACE=0``); feed it to
    #: ``python -m repro report`` or :mod:`repro.obs.report`.
    trace_path: Optional[str] = None

    def budgets(self) -> List[int]:
        """The curve ladder of the spec (``budget_ladder``)."""
        return self.spec.budget_ladder()

    def curves(self, budgets: Optional[List[int]] = None) -> Dict[str, Dict]:
        """Median/quartile best-cost curves per method (Figs. 3/7)."""
        budgets = budgets if budgets is not None else self.budgets()
        return {
            name: aggregate_curves(records, budgets)
            for name, records in self.records.items()
        }

    def best_costs(self) -> Dict[str, float]:
        """Median best cost per method at the full budget."""
        return {
            name: median_iqr([r.best_cost() for r in records])[0]
            for name, records in self.records.items()
        }

    def all_records(self) -> List[RunRecord]:
        """Every record, flattened in method order (for persistence)."""
        return [r for records in self.records.values() for r in records]

    def save(self, path: str) -> None:
        """Persist all records via :mod:`repro.opt.records_io`."""
        save_records(path, self.all_records())


class Session:
    """Owns one evaluation engine and runs experiment specs on it.

    Parameters
    ----------
    cache_dir / workers:
        Forwarded to :class:`~repro.engine.EvaluationEngine` (``None``
        defers to ``$REPRO_CACHE_DIR`` / ``$REPRO_ENGINE_WORKERS``).
    parallel_seeds:
        Seeds run concurrently on threads per method grid.
    engine:
        Adopt an existing engine instead of building one; the session
        then does **not** close it.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: Optional[int] = None,
        parallel_seeds: int = 1,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        if parallel_seeds < 1:
            raise ValueError("parallel_seeds must be >= 1")
        self._owns_engine = engine is None
        self.engine = (
            engine
            if engine is not None
            else EvaluationEngine(cache_dir=cache_dir, workers=workers)
        )
        self.parallel_seeds = parallel_seeds

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(spec: ExperimentSpec):
        """(task, seeds, resolved methods) — every registry/config error
        surfaces here, before any synthesis runs."""
        task = spec.task.to_task()
        seeds = spec.seed_list()
        resolved = [
            (m, get_method(m.method), build_config(m.method, m.params, n=task.n))
            for m in spec.methods
        ]
        return task, seeds, resolved

    def run(
        self,
        spec: ExperimentSpec,
        out_dir: Optional[str] = None,
        on_event: Optional[Callable[[RunEvent], None]] = None,
    ) -> ExperimentResult:
        """Execute one experiment spec on this session's engine.

        Records are bit-identical to a direct serial run of the same
        (config, task, budget, seed) grid — the engine changes wall-clock
        only, never paper-semantics accounting.

        With ``out_dir`` the run is durable: the spec, every seed's
        evaluation history (each line written before its
        ``EvaluationDone`` is emitted) and each finished cell's record
        land under that directory, so a stop — ``RunInterrupted`` from
        ``on_event``, Ctrl-C, or a kill — loses nothing and
        :meth:`resume` continues the run bit-identically.  Without it the
        run is in-memory only.

        ``on_event`` is called with each event in the thread that
        produced it (with ``parallel_seeds > 1`` that is several seed
        threads at once, so it must be thread-safe).  Raising
        :class:`~repro.opt.simulator.RunInterrupted` from it stops the
        raising seed at that exact boundary and the rest of the run at
        their next ones — e.g. an early-stop policy after a particular
        ``EvaluationDone``; the call then raises ``RunInterrupted``
        naming the directory that resumes it.  A Ctrl-C settles the run
        the same way and re-raises ``KeyboardInterrupt``.
        """
        task, seeds, resolved = self._resolve(spec)
        run_dir = RunDirectory.create(out_dir, spec) if out_dir is not None else None
        return execute(
            self, spec, task, resolved, seeds, run_dir=run_dir, on_event=on_event
        )

    def resume(
        self,
        run_dir: Union[str, RunDirectory],
        on_event: Optional[Callable[[RunEvent], None]] = None,
    ) -> ExperimentResult:
        """Continue an interrupted run directory where it left off.

        Finished (method, seed) cells are served from their ledgered
        records without re-running; partial cells replay their recorded
        history through the engine cache (cheap, zero new synthesis for
        recorded evaluations — all registered methods are deterministic
        given seed + history, so the replay is bit-identical) and keep
        going.  Resuming an already-finished run is a no-op that returns
        the stored records.  ``on_event`` is observed as in :meth:`run`.
        """
        directory = (
            run_dir
            if isinstance(run_dir, RunDirectory)
            else RunDirectory.open(run_dir)
        )
        spec = directory.spec()
        task, seeds, resolved = self._resolve(spec)
        return execute(
            self,
            spec,
            task,
            resolved,
            seeds,
            run_dir=directory,
            resumed=True,
            on_event=on_event,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (only if this session built it)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session(engine={self.engine!r}, parallel_seeds={self.parallel_seeds})"
        )
