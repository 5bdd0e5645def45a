"""Experiment execution: one spec's (method x seed) grid, run to its records.

:meth:`repro.api.Session.run` and :meth:`~repro.api.Session.resume`
call :func:`execute`, which runs the grid on the calling thread and
returns the :class:`~repro.api.session.ExperimentResult`.  One cell
function per (method, seed) wires a fresh simulator's query-boundary
hooks to the cell's :class:`~repro.api.rundir.RunCellWriter`, the
``on_event`` observer and the run's interrupt flag.  No method
implementation knows any of this exists.

``on_event`` is called with each typed event of :mod:`repro.api.events`
in the thread that produced it: the caller's thread, or a seed thread
when ``parallel_seeds > 1`` (several may call concurrently, so the
observer must then be thread-safe).  Raising
:class:`~repro.opt.simulator.RunInterrupted` from it stops the raising
seed at that exact boundary — *after* that query's evaluation has been
recorded (and, with a run directory, appended to the cell's history on
disk) — and the rest of the run at their next ones, so an interrupted
run directory always resumes bit-identically.  A ``KeyboardInterrupt``
is settled the same way (status ``interrupted``) and re-raised; any
other exception fails the run.

Seeds are independent: each owns its simulator, budget accounting, rng
and model, so ``parallel_seeds > 1`` (one thread per seed) keeps records
bit-identical to serial execution.  A seed that raises flags the run, so
its siblings stop at their next query boundary.  Cores are a budget:
while a parallel grid runs, every OpenBLAS build is capped at
``cores // seed threads`` threads
(:func:`repro.utils.threads.blas_budget`), so seed threads × BLAS
threads ≤ cores.  The cap is process-wide: a serial grid running while
another grid's budget is active runs under it too.  Records do not
depend on either count.
"""

from __future__ import annotations

import os
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..engine.cache import task_fingerprint
from ..obs import trace
from ..obs.sink import TraceSink
from ..obs.trace import Tracer
from ..opt.results import RunRecord
from ..opt.simulator import BudgetExhausted, RunInterrupted
from ..utils.threads import blas_budget, blas_thread_counts, usable_cores
from .events import (
    EvaluationDone,
    ExperimentStarted,
    RunEvent,
    SeedFinished,
    SeedStarted,
)
from .rundir import RunCellWriter, RunDirectory

__all__ = ["execute"]

_ENV_TRACE = "REPRO_TRACE"


def _tracing_enabled() -> bool:
    """Whether durable runs stream spans to ``trace.jsonl``.

    Default on — tracing buys full post-hoc wall-clock attribution;
    ``REPRO_TRACE=0`` opts out.  Its cost is the sink's per-span write
    and flush, so it shows on short runs.  On
    ``examples/specs/tiny.json`` (~400 spans; 2-CPU container, five
    best-of-3 runs) a traced run took 39–53 ms against 25–38 ms
    untraced, +15% to +103%.  A durable default-GA adder64 run at
    budget 200 (30 spans, fresh cache) took 0.65–0.73 s on or off.
    ``benchmarks/bench_obs_overhead.py`` records the on/off ratio.
    In-memory runs (no run directory) never trace: there is nowhere
    durable to stream.
    """
    return os.environ.get(_ENV_TRACE, "").strip() != "0"


def execute(
    session,
    spec,
    task,
    resolved: List[Tuple],
    seeds: List[int],
    run_dir: Optional[RunDirectory] = None,
    resumed: bool = False,
    on_event: Optional[Callable[[RunEvent], None]] = None,
):
    """Run ``spec``'s grid on ``session``'s engine; return its result.

    With ``run_dir`` the run holds the directory's lock while it
    executes and leaves ``run.json`` at ``finished``, ``interrupted`` or
    ``failed``.  Raises :class:`~repro.opt.simulator.RunInterrupted`
    (naming the directory that resumes it) when the run was stopped.
    """
    return _Run(session, spec, task, seeds, run_dir, on_event).execute(
        resolved, resumed
    )


class _Run:
    """The state one execution shares across its cells."""

    def __init__(self, session, spec, task, seeds, run_dir, on_event) -> None:
        self._session = session
        self._spec = spec
        self._task = task
        self._seeds = list(seeds)
        self._run_dir = run_dir
        self._on_event = on_event
        self._run_id = (
            run_dir.run_id if run_dir is not None else f"run-{uuid.uuid4().hex[:12]}"
        )
        #: set when a parallel seed fails or the caller is interrupted;
        #: every seed checks it at each query boundary.
        self._interrupt = threading.Event()

    def _emit(self, event: RunEvent) -> None:
        if self._on_event is not None:
            self._on_event(event)

    def _check_interrupt(self) -> None:
        if self._interrupt.is_set():
            raise RunInterrupted(f"run {self._run_id} interrupted at a query boundary")

    def _run_grid(self, method: str, make_algorithm) -> List[RunRecord]:
        """One method across every seed, a seed thread each when
        ``parallel_seeds > 1``."""
        workers = max(1, min(self._session.parallel_seeds, len(self._seeds)))

        def run_seed(seed: int) -> RunRecord:
            # The span context-manager form guarantees the seed span closes
            # even when RunInterrupted (or anything else) unwinds the seed
            # thread mid-run; fresh threads parent to the tracer's default
            # context (the experiment root span).
            with trace.span("seed") as span:
                span.set_attr("method", method)
                span.set_attr("seed", seed)
                span.set_attr("seed_threads", workers)
                try:
                    return self._run_cell(method, seed, make_algorithm)
                finally:
                    if trace.active():
                        # The live count at seed end, not the grid's
                        # request: the cap is process-wide.
                        counts = blas_thread_counts().values()
                        span.set_attr("blas_threads", max(counts, default=0))

        if workers == 1:
            return [run_seed(seed) for seed in self._seeds]
        # Cores are a budget: each seed thread gets its share of BLAS threads.
        # The pool joins its threads before the budget restores the counts.
        with blas_budget(max(1, usable_cores() // workers)):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_seed, seed) for seed in self._seeds]
                try:
                    # The first seed to fail raises here, before any
                    # sibling it stops; flag the run (a Ctrl-C landing on
                    # this wait too) so the siblings stop at their next
                    # query boundary instead of the pool joining them
                    # after their whole budget.
                    for future in as_completed(futures):
                        future.result()
                except BaseException:
                    self._interrupt.set()
                    raise
        return [future.result() for future in futures]

    def _run_cell(self, method: str, seed: int, make_algorithm) -> RunRecord:
        """One (method, seed) cell: served from the ledger, or run on a
        fresh simulator whose every new evaluation is persisted, then
        announced.  Only the thread driving the cell touches its locals.
        """
        self._check_interrupt()
        run_dir = self._run_dir
        if run_dir is not None:
            done = run_dir.completed_record(method, seed)
            if done is not None:
                self._emit(
                    SeedFinished(method=method, seed=seed, record=done, resumed=True)
                )
                return done
        algorithm = make_algorithm()
        simulator = self._session.engine.simulator(self._task, budget=self._spec.budget)
        writer: Optional[RunCellWriter] = None
        if run_dir is not None:
            # Model-based methods checkpoint training epochs here, so a
            # resume can restore them instead of re-training (train_model's
            # checkpoint files live next to the cell's evaluation history).
            simulator.train_checkpoint_dir = os.path.join(
                run_dir.cell_dir(method, seed), "train"
            )
            writer = RunCellWriter(run_dir, method, seed)
        try:
            replayed = self._prime_replay(writer.recorded if writer else [])
            self._emit(SeedStarted(method=method, seed=seed, replayed=replayed))
            best = float("inf")

            def on_evaluation(evaluation) -> None:
                nonlocal best
                # Persist before announcing: once EvaluationDone is
                # visible, the evaluation it covers is already durable.
                if writer is not None:
                    writer.append(evaluation)
                best = min(best, evaluation.cost)
                self._emit(
                    EvaluationDone(
                        method=method,
                        seed=seed,
                        sim_index=evaluation.sim_index,
                        cost=evaluation.cost,
                        area_um2=evaluation.area_um2,
                        delay_ns=evaluation.delay_ns,
                        best_cost=best,
                    )
                )
                self._check_interrupt()

            simulator.on_evaluation = on_evaluation
            # Checked at the start of *every* query (cache hits too), so
            # an interrupt cannot stall behind a hit-only stretch.
            simulator.check_abort = self._check_interrupt
            try:
                algorithm.run(simulator, np.random.default_rng(seed))
            except BudgetExhausted:
                pass  # normal termination for budget-driven algorithms
            record = RunRecord.from_simulator(method, seed, simulator)
            if writer is not None:
                writer.finish(record)
        finally:
            if writer is not None:
                writer.close()
        self._emit(SeedFinished(method=method, seed=seed, record=record, resumed=False))
        return record

    def _prime_replay(self, recorded) -> int:
        """Warm-cache replay priming: feed a cell's recorded history into
        the engine's cache *before* the algorithm reruns, so the
        deterministic replay charges budget through cache hits and
        performs zero new synthesis for anything already recorded.
        Returns how many evaluations were primed."""
        if not recorded:
            return 0
        cache = self._session.engine.cache
        fingerprint = task_fingerprint(self._task)
        for evaluation in recorded:
            key = evaluation.graph.key()
            # put() appends to the persistent shard; the original run
            # already stored these, so only fill genuine gaps (e.g. a
            # memory-only cache in a fresh process) to keep repeated
            # resumes from growing the shard with duplicates.
            if cache.get(fingerprint, key) is None:
                cache.put(fingerprint, key, (evaluation.area_um2, evaluation.delay_ns))
        return len(recorded)

    def execute(self, resolved: List[Tuple], resumed: bool):
        from .session import ExperimentResult, _sum_telemetry

        run_dir = self._run_dir
        run_dir_path = run_dir.path if run_dir is not None else None
        if run_dir is not None:
            run_dir.acquire_lock()  # refuses a directory another live run owns
        status = "failed"
        sink = tracer = activation = root = None
        try:
            # Durable runs trace by default: spans stream to the run
            # directory's trace.jsonl through a process-ambient tracer,
            # and the whole grid lives under one "experiment" root span
            # that doubles as the default parent for parallel-seed
            # threads.
            if run_dir is not None and _tracing_enabled():
                try:
                    sink = TraceSink(run_dir.trace_path())
                    tracer = Tracer(sink=sink)
                    activation = tracer.activate()
                    activation.__enter__()
                except (OSError, RuntimeError):
                    # Unwritable directory, or another traced run is
                    # already active in this process: run untraced
                    # rather than fail.
                    if sink is not None:
                        sink.close()
                    sink = tracer = activation = None
            trace_path = run_dir.trace_path() if tracer is not None else None
            if run_dir is not None:
                run_dir.set_status("running")
            methods = tuple(m.display_name for m, _, _ in resolved)
            if tracer is not None:
                root = tracer.span(
                    "experiment",
                    attrs={
                        "run_id": self._run_id,
                        "budget": self._spec.budget,
                        "methods": list(methods),
                        "seeds": list(self._seeds),
                        "resumed": resumed,
                    },
                    default=True,
                )
                root.__enter__()
            self._emit(
                ExperimentStarted(
                    run_id=self._run_id,
                    run_dir=run_dir_path,
                    spec=self._spec,
                    methods=methods,
                    seeds=tuple(self._seeds),
                    resumed=resumed,
                    trace_path=trace_path,
                )
            )
            records: Dict[str, List[RunRecord]] = {}
            for method_spec, entry, config in resolved:
                self._check_interrupt()
                records[method_spec.display_name] = self._run_grid(
                    method_spec.display_name, lambda: entry.factory(config)
                )
            # Assembling and writing the final records is the root's
            # last piece of real work; its own span keeps it out of the
            # root's uncovered self-time.
            with trace.span("final_records"):
                result = ExperimentResult(
                    spec=self._spec,
                    records=records,
                    telemetry=_sum_telemetry(
                        [
                            r.telemetry
                            for rs in records.values()
                            for r in rs
                            if r.telemetry is not None
                        ]
                    ),
                    run_dir=run_dir_path,
                    trace_path=trace_path,
                )
                if run_dir is not None:
                    run_dir.write_final_records(result.all_records())
            status = "finished"
            return result
        except RunInterrupted as interrupt:
            status = "interrupted"
            where = (
                f"; resume it with Session.resume({run_dir_path!r})"
                if run_dir is not None
                else " (no run directory — nothing was persisted)"
            )
            raise RunInterrupted(
                f"run {self._run_id} was interrupted{where}"
            ) from interrupt
        except KeyboardInterrupt:
            status = "interrupted"
            raise
        finally:
            # Close the trace before run.json settles: a reader that
            # sees the terminal status finds the root span durable in
            # trace.jsonl.
            if root is not None:
                root.set_attr("status", status)
                root.finish()
            if activation is not None:
                activation.__exit__(None, None, None)
            if sink is not None:
                sink.close()
            if run_dir is not None:
                try:
                    run_dir.set_status(status)
                except Exception:
                    pass  # a corrupted run dir must not mask the outcome
                run_dir.release_lock()
