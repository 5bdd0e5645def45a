"""Run handles: submit / observe / interrupt / resume for experiment runs.

:meth:`repro.api.Session.submit` returns a :class:`RunHandle` instead of
blocking: the (method x seed) grid executes on a background thread while
the caller drains :meth:`RunHandle.events` — a stream of the typed
events in :mod:`repro.api.events`, emitted at simulator query
boundaries.  :meth:`Session.run` is a thin wrapper that submits and
drains.

Interruption is cooperative and loss-free: :meth:`RunHandle.interrupt`
raises :class:`~repro.opt.simulator.RunInterrupted` inside every
in-flight seed at its next query boundary — *after* that query's
evaluation has been recorded (and, with a run directory, appended to the
cell's history on disk) — so an interrupted run directory always resumes
bit-identically.

The handle also runs the grid itself: one cell function per (method,
seed) wires a fresh simulator's query-boundary hooks to the event queue,
the cell's :class:`~repro.api.rundir.RunCellWriter` and the interrupt
flag.  No method implementation knows any of this exists.

Seeds are independent: each owns its simulator, budget accounting, rng
and model, so ``parallel_seeds > 1`` (one thread per seed) keeps records
bit-identical to serial execution.  Cores are a budget: while a parallel
grid runs, every OpenBLAS build is capped at ``cores // seed threads``
threads (:func:`repro.utils.threads.blas_budget`), so seed threads ×
BLAS threads ≤ cores.  The cap is process-wide: a serial grid running
while another grid's budget is active runs under it too.  Records do not
depend on either count.
"""

from __future__ import annotations

import os
import queue
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Optional, Tuple

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
    ExperimentFinished,
    ExperimentStarted,
    RunEvent,
    SeedFinished,
    SeedStarted,
)
from .rundir import RunCellWriter, RunDirectory

__all__ = ["RunHandle"]

#: queue terminator — strictly after the ExperimentFinished event.
_SENTINEL = object()

_ENV_TRACE = "REPRO_TRACE"


def _tracing_enabled() -> bool:
    """Whether durable runs stream spans to ``trace.jsonl``.

    Default on — tracing costs <5% on a tiny spec (see
    ``benchmarks/bench_obs_overhead.py``) and buys full post-hoc
    wall-clock attribution; ``REPRO_TRACE=0`` opts out.  In-memory runs
    (no run directory) never trace: there is nowhere durable to stream.
    """
    return os.environ.get(_ENV_TRACE, "").strip() != "0"


class RunHandle:
    """A submitted experiment: observe, interrupt, await, resume.

    Built by :meth:`repro.api.Session.submit` /
    :meth:`~repro.api.Session.resume` — not directly.  The grid runs on
    a daemon thread owned by the handle; all synthesis still flows
    through the session's engine, so cache sharing and telemetry behave
    exactly as in the blocking API.

    The event stream is a single logical sequence: :meth:`events` may be
    called several times (each call continues where the last consumer
    stopped) but from one thread at a time.
    """

    def __init__(
        self,
        session,
        spec,
        task,
        resolved: List[Tuple],
        seeds: List[int],
        run_dir: Optional[RunDirectory] = None,
        resumed: bool = False,
        on_event=None,
    ) -> None:
        self._session = session
        #: synchronous observer: called with each event *in the thread
        #: that produced it, before it is queued* — the run thread, or a
        #: seed thread when ``parallel_seeds > 1`` (several may call in
        #: concurrently; the callback must then be thread-safe).  Raising
        #: RunInterrupted from it stops the raising seed at that exact
        #: boundary and the rest of the run at their next ones (the
        #: async `events()` stream cannot guarantee even that); any
        #: other exception fails the run.
        self._on_event = on_event
        self.spec = spec
        self._task = task
        self._resolved = resolved
        self._seeds = list(seeds)
        self.run_dir = run_dir
        self._resumed = resumed
        self.run_id = (
            run_dir.run_id if run_dir is not None else f"run-{uuid.uuid4().hex[:12]}"
        )
        self._queue: "queue.Queue" = queue.Queue()
        self._interrupt = threading.Event()
        self._result = None
        self._error: Optional[BaseException] = None
        self._status = "running"
        self._stream_closed = False
        self._thread = threading.Thread(
            target=self._execute, name=f"repro-{self.run_id}", daemon=True
        )

    def _start(self) -> "RunHandle":
        self._thread.start()
        return self

    # ------------------------------------------------------------------
    # Introspection / control
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """``running`` | ``finished`` | ``interrupted`` | ``failed``."""
        return self._status

    @property
    def run_dir_path(self) -> Optional[str]:
        return self.run_dir.path if self.run_dir is not None else None

    def interrupt(self) -> None:
        """Ask the run to stop at the next simulator query boundary.

        Returns immediately; the run settles asynchronously (drain
        :meth:`events` or call :meth:`wait`).  Already-recorded work is
        never lost: with a run directory the run resumes bit-identically
        via :meth:`repro.api.Session.resume`.
        """
        self._interrupt.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the run thread settles; True if it did."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def events(self) -> Iterator[RunEvent]:
        """Yield run events until (and including) ``ExperimentFinished``.

        Iterating drives nothing — the run progresses regardless — but
        is how a caller observes progress and reacts (e.g. calling
        :meth:`interrupt` after a particular ``EvaluationDone`` event).
        """
        while not self._stream_closed:
            event = self._queue.get()
            if event is _SENTINEL:
                self._stream_closed = True
                break
            yield event

    def result(self, timeout: Optional[float] = None):
        """Drain remaining events and return the ExperimentResult.

        Raises ``TimeoutError`` if the run has not settled within
        ``timeout`` seconds, the run's error if it failed, and
        :class:`~repro.opt.simulator.RunInterrupted` if it was interrupted
        (the run directory named in the message resumes it).
        """
        # Join first so the timeout is honored: the terminal sentinel is
        # queued before the run thread exits, so draining afterwards
        # never blocks.
        if not self.wait(timeout):
            raise TimeoutError(f"run {self.run_id} still settling after {timeout}s")
        for _ in self.events():
            pass
        if self._error is not None:
            raise self._error
        if self._status == "interrupted":
            where = (
                f"; resume it with Session.resume({self.run_dir_path!r})"
                if self.run_dir is not None
                else " (no run directory — nothing was persisted)"
            )
            raise RunInterrupted(f"run {self.run_id} was interrupted{where}")
        return self._result

    # ------------------------------------------------------------------
    # Execution (background thread)
    # ------------------------------------------------------------------
    def _emit(self, event: RunEvent, guard: bool = False) -> None:
        error: Optional[BaseException] = None
        if self._on_event is not None:
            try:
                self._on_event(event)
            except BaseException as exc:
                if isinstance(exc, RunInterrupted):
                    # An early-stop policy interrupted from one seed
                    # thread: flag the whole run so sibling parallel
                    # seeds stop at their own next query boundaries too.
                    self._interrupt.set()
                error = exc
        # The event reaches the async stream no matter what the callback
        # did — the evaluation it announces is already recorded, and the
        # terminal event (guard=True) must always close the stream.
        self._queue.put(event)
        if error is not None and not guard:
            raise error

    def _check_interrupt(self) -> None:
        if self._interrupt.is_set():
            raise RunInterrupted(f"run {self.run_id} interrupted at a query boundary")

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
                return list(pool.map(run_seed, self._seeds))

    def _run_cell(self, method: str, seed: int, make_algorithm) -> RunRecord:
        """One (method, seed) cell: served from the ledger, or run on a
        fresh simulator whose every new evaluation is persisted, then
        announced.  Only the thread driving the cell touches its locals.
        """
        self._check_interrupt()
        run_dir = self.run_dir
        if run_dir is not None:
            done = run_dir.completed_record(method, seed)
            if done is not None:
                self._emit(
                    SeedFinished(method=method, seed=seed, record=done, resumed=True)
                )
                return done
        algorithm = make_algorithm()
        simulator = self._session.engine.simulator(self._task, budget=self.spec.budget)
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

    def _execute(self) -> None:
        from .session import ExperimentResult, _sum_telemetry

        status = "failed"
        # Durable runs trace by default: spans stream to the run
        # directory's trace.jsonl through a process-ambient tracer, and
        # the whole grid lives under one "experiment" root span that
        # doubles as the default parent for parallel-seed threads.
        sink = tracer = activation = root = None
        if self.run_dir is not None and _tracing_enabled():
            try:
                sink = TraceSink(self.run_dir.trace_path())
                tracer = Tracer(sink=sink)
                activation = tracer.activate()
                activation.__enter__()
            except (OSError, RuntimeError):
                # Unwritable directory, or another traced run is already
                # active in this process: run untraced rather than fail.
                if sink is not None:
                    sink.close()
                sink = tracer = activation = None
        try:
            if self.run_dir is not None:
                self.run_dir.set_status("running")
            if tracer is not None:
                root = tracer.span(
                    "experiment",
                    attrs={
                        "run_id": self.run_id,
                        "budget": self.spec.budget,
                        "methods": [m.display_name for m, _, _ in self._resolved],
                        "seeds": list(self._seeds),
                        "resumed": self._resumed,
                    },
                    default=True,
                )
                root.__enter__()
            self._emit(
                ExperimentStarted(
                    run_id=self.run_id,
                    run_dir=self.run_dir_path,
                    spec=self.spec,
                    methods=tuple(m.display_name for m, _, _ in self._resolved),
                    seeds=tuple(self._seeds),
                    resumed=self._resumed,
                    trace_path=(
                        self.run_dir.trace_path() if tracer is not None else None
                    ),
                )
            )
            records: Dict[str, List[RunRecord]] = {}
            for method_spec, entry, config in self._resolved:
                self._check_interrupt()
                records[method_spec.display_name] = self._run_grid(
                    method_spec.display_name, lambda: entry.factory(config)
                )
            # Assembling and writing the final records is the root's
            # last piece of real work; its own span keeps it out of the
            # root's uncovered self-time.
            with trace.span("final_records"):
                result = ExperimentResult(
                    spec=self.spec,
                    records=records,
                    telemetry=_sum_telemetry(
                        [
                            r.telemetry
                            for rs in records.values()
                            for r in rs
                            if r.telemetry is not None
                        ]
                    ),
                    run_dir=self.run_dir_path,
                    trace_path=(
                        self.run_dir.trace_path() if tracer is not None else None
                    ),
                )
                if self.run_dir is not None:
                    self.run_dir.write_final_records(result.all_records())
            self._result = result
            status = "finished"
        except RunInterrupted:
            status = "interrupted"
        except BaseException as error:  # surfaced by result()
            self._error = error
            status = "failed"
        finally:
            self._status = status
            # Close the trace before announcing the terminal status: a
            # consumer reacting to ExperimentFinished must find the
            # root span already durable in trace.jsonl.
            if root is not None:
                root.set_attr("status", status)
                root.finish()
            if activation is not None:
                activation.__exit__(None, None, None)
            if sink is not None:
                sink.close()
            if self.run_dir is not None:
                # Nothing here may stop the terminal event + sentinel
                # from reaching the queue — a consumer would hang on a
                # stream that never closes.
                try:
                    self.run_dir.set_status(status)
                except Exception:
                    pass  # a corrupted run dir must not mask the outcome
                try:
                    self.run_dir.release_lock()
                except Exception:
                    pass
            self._emit(
                ExperimentFinished(
                    run_id=self.run_id, status=status, run_dir=self.run_dir_path
                ),
                guard=True,
            )
            self._queue.put(_SENTINEL)

    def __repr__(self) -> str:
        return (
            f"RunHandle({self.run_id}, status={self._status!r}, "
            f"run_dir={self.run_dir_path!r})"
        )
