"""Run handles: submit / observe / interrupt / resume for experiment runs.

:meth:`repro.api.Session.submit` returns a :class:`RunHandle` instead of
blocking: the (method x seed) grid executes on a background thread while
the caller drains :meth:`RunHandle.events` — a stream of the typed
events in :mod:`repro.api.events`, emitted at simulator query
boundaries.  :meth:`Session.run` is a thin wrapper that submits and
drains.

Interruption is cooperative and loss-free: :meth:`RunHandle.interrupt`
raises :class:`~repro.opt.runner.RunInterrupted` inside every in-flight
seed at its next query boundary — *after* that query's evaluation has
been recorded (and, with a run directory, checkpointed to disk) — so an
interrupted run directory always resumes bit-identically.

The bridge between the generic grid runner and this streaming layer is
:class:`_StreamingGridObserver`, a
:class:`~repro.opt.runner.GridObserver` that forwards each hook into the
event queue, the run directory's incremental writers, and the
interrupt flag.  No method implementation knows any of this exists.
"""

from __future__ import annotations

import os
import queue
import threading
import uuid
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine.cache import task_fingerprint
from ..obs.sink import TraceSink
from ..obs.trace import Tracer
from ..opt.results import RunRecord
from ..opt.runner import GridObserver, RunInterrupted, _run_seed_grid
from .events import (
    Checkpointed,
    EvaluationDone,
    ExperimentFinished,
    ExperimentStarted,
    RunEvent,
    SeedFinished,
    SeedStarted,
)
from .rundir import RunDirectory

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


class _StreamingGridObserver(GridObserver):
    """Forwards grid hooks to a handle's event queue and run directory.

    Thread-safe across cells: with ``parallel_seeds > 1`` several seeds
    call in concurrently, but per-cell state (writer, best-so-far) is
    only ever touched by the one thread driving that cell.
    """

    def __init__(self, handle: "RunHandle") -> None:
        self._handle = handle
        self._lock = threading.Lock()
        self._cells: Dict[Tuple[str, int], Dict] = {}

    def _cell(self, method: str, seed: int) -> Dict:
        with self._lock:
            return self._cells.setdefault((method, seed), {})

    # -- GridObserver hooks -------------------------------------------
    def check_interrupt(self) -> None:
        if self._handle._interrupt.is_set():
            raise RunInterrupted(
                f"run {self._handle.run_id} interrupted at a query boundary"
            )

    def completed_record(self, method: str, seed: int) -> Optional[RunRecord]:
        run_dir = self._handle.run_dir
        if run_dir is None:
            return None
        return run_dir.completed_record(method, seed)

    def before_seed(self, method: str, seed: int, simulator) -> int:
        cell = self._cell(method, seed)
        cell["best"] = float("inf")
        run_dir = self._handle.run_dir
        if run_dir is None:
            return 0
        # Model-based methods checkpoint training epochs here, so a
        # resume can restore them instead of re-training (train_model's
        # checkpoint files live next to the cell's evaluation history).
        simulator.train_checkpoint_dir = os.path.join(
            run_dir.cell_dir(method, seed), "train"
        )
        # Warm-cache replay priming: feed the cell's recorded history
        # into the engine's cache *before* the algorithm reruns, so the
        # deterministic replay charges budget through cache hits and
        # performs zero new synthesis for anything already recorded.
        replayed = 0
        history = run_dir.load_history(method, seed)
        engine = getattr(simulator, "engine", None)
        if history and engine is not None:
            fingerprint = task_fingerprint(simulator.task)
            for evaluation in history:
                key = evaluation.graph.key()
                # put() appends to the persistent shard; the original run
                # already stored these, so only fill genuine gaps (e.g. a
                # memory-only cache in a fresh process) to keep repeated
                # resumes from growing the shard with duplicates.
                if engine.cache.get(fingerprint, key) is None:
                    engine.cache.put(
                        fingerprint,
                        key,
                        (evaluation.area_um2, evaluation.delay_ns),
                    )
            replayed = len(history)
        cell["writer"] = run_dir.cell_writer(method, seed, history=history)
        return replayed

    def on_seed_started(self, method: str, seed: int, replayed: int) -> None:
        self._handle._emit(SeedStarted(method=method, seed=seed, replayed=replayed))

    def on_evaluation(self, method, seed, evaluation) -> None:
        cell = self._cell(method, seed)
        # Persist before announcing: once the Checkpointed event is
        # visible, the evaluation it covers must already be durable.
        writer = cell.get("writer")
        count = writer.append(evaluation) if writer is not None else 0
        best = min(cell.get("best", float("inf")), evaluation.cost)
        cell["best"] = best
        self._handle._emit(
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
        if writer is not None:
            self._handle._emit(
                Checkpointed(
                    method=method,
                    seed=seed,
                    path=writer.history_path,
                    evaluations=count,
                )
            )
        self.check_interrupt()

    def on_seed_finished(self, method, seed, record, resumed) -> None:
        cell = self._cell(method, seed)
        writer = cell.get("writer")
        if writer is not None and not resumed:
            writer.finish(record)
        self._handle._emit(
            SeedFinished(method=method, seed=seed, record=record, resumed=resumed)
        )


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
        :meth:`interrupt` after a particular ``Checkpointed`` event).
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
        :class:`~repro.opt.runner.RunInterrupted` if it was interrupted
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
            observer = _StreamingGridObserver(self)
            records: Dict[str, List[RunRecord]] = {}
            for method_spec, entry, config in self._resolved:
                observer.check_interrupt()
                records[method_spec.display_name] = _run_seed_grid(
                    lambda seed, _factory=entry.factory, _config=config: _factory(
                        _config
                    ),
                    self._task,
                    self.spec.budget,
                    self._seeds,
                    method_name=method_spec.display_name,
                    engine=self._session.engine,
                    parallel_seeds=self._session.parallel_seeds,
                    observer=observer,
                )
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
