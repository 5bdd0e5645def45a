"""Client side of the daemon: a transparent ``CircuitSimulator`` facade.

:class:`ServeClient` is the low-level blocking socket client (one
connection, strict request/response, thread-safe).  On top of it,
:class:`RemoteEngineSimulator` subclasses
:class:`~repro.engine.service.EngineSimulator` and overrides exactly one
method — ``_evaluate_graphs``, the single point where graphs meet the
engine — so *everything else stays client-side and bit-identical to an
in-process run by construction*: canonicalization, the per-run memo,
in-batch dedup, budget refusals, ``sim_index`` assignment, ``history``
and the cost recomputed from the returned (area, delay) via
:func:`~repro.synth.cost.cost_from_metrics`.  The daemon only ever sees
unique, legalized graphs and only ever returns physical metrics.

Attachment is environment-driven: when ``$REPRO_ENGINE_SOCKET`` names a
socket, :meth:`EvaluationEngine.simulator` asks
:func:`maybe_remote_simulator` first and hands out a remote facade when
a live, non-draining daemon answers the handshake — sessions, the
runner and the CLI never change.  When the daemon is unreachable at
attach, or becomes unreachable/draining mid-run, the facade emits a
:class:`RuntimeWarning` and falls back **permanently** to the in-process
engine it already carries; the run completes either way with identical
records.

Telemetry and tracing cross the boundary too: the daemon returns the
engine-counter deltas its work caused (folded into the run's telemetry
here) and the finished span dicts of its scheduling/synthesis spans
(re-emitted into the ambient tracer's sink, parent ids already resolved
against the span context shipped with the submit).
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
import warnings
from typing import Any, Dict, List, Optional, Tuple

from ..circuits.task import CircuitTask
from ..engine.service import EngineSimulator, EvaluationEngine
from ..engine.telemetry import EngineTelemetry
from ..obs import trace
from ..prefix.graph import PrefixGraph
from ..synth.cost import cost_from_metrics
from . import protocol as wire

__all__ = [
    "ServeUnavailable",
    "RemoteEvaluationError",
    "ServeClient",
    "RemoteEngineSimulator",
    "maybe_remote_simulator",
    "tenant_name",
]

#: fair-share identity override (default: ``client-<pid>``).
ENV_TENANT = "REPRO_ENGINE_TENANT"
#: optional per-batch timeout (seconds) the daemon enforces.
ENV_TIMEOUT = "REPRO_ENGINE_TIMEOUT"


class ServeUnavailable(RuntimeError):
    """No daemon (connect failed, connection lost, or daemon draining).

    The facade treats this as "run in-process instead" — it is the only
    error class that triggers fallback.
    """


class RemoteEvaluationError(RuntimeError):
    """The daemon answered, but the job itself failed (synthesis error,
    timeout, cancellation, malformed request).  Not a fallback trigger:
    a deterministic synthesis failure would fail in-process too."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


def tenant_name() -> str:
    """This client's fair-share identity (``$REPRO_ENGINE_TENANT`` or
    ``client-<pid>``)."""
    return os.environ.get(ENV_TENANT, "").strip() or f"client-{os.getpid()}"


def _request_timeout() -> Optional[float]:
    raw = os.environ.get(ENV_TIMEOUT, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {ENV_TIMEOUT}={raw!r}", RuntimeWarning
        )
        return None
    return value if value > 0 else None


class ServeClient:
    """One blocking unix-socket connection to the daemon.

    Strict request/response (one reply line per request line) under an
    internal lock, so parallel seed threads may share one client.  The
    constructor performs the hello handshake; it raises
    :class:`ServeUnavailable` when nobody is listening.
    """

    def __init__(
        self,
        socket_path: str,
        client_name: Optional[str] = None,
        connect_timeout: float = 5.0,
    ) -> None:
        self.socket_path = socket_path
        self.client_name = client_name or tenant_name()
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(connect_timeout)
            sock.connect(socket_path)
            sock.settimeout(None)
        except OSError as error:
            raise ServeUnavailable(
                f"no evaluation daemon at {socket_path}: {error}"
            ) from error
        self._sock = sock
        self._reader = sock.makefile("rb")
        welcome = self.request(
            wire.Hello(client=self.client_name, pid=os.getpid())
        )
        if not isinstance(welcome, wire.Welcome):
            self.close()
            raise ServeUnavailable(
                f"unexpected handshake reply {type(welcome).__name__}"
            )
        self.server_pid = welcome.server_pid
        self.draining = welcome.draining
        self.cache_entries = welcome.cache_entries

    # ------------------------------------------------------------------
    def request(self, frame: wire._Frame) -> wire._Frame:
        """Send one frame, return its one reply (thread-safe)."""
        with self._lock:
            if self._sock is None:
                raise ServeUnavailable("client connection already closed")
            try:
                self._sock.sendall(wire.encode(frame))
                line = self._reader.readline()
            except OSError as error:
                raise ServeUnavailable(
                    f"daemon connection lost: {error}"
                ) from error
        if not line:
            raise ServeUnavailable("daemon closed the connection")
        try:
            return wire.decode(line)
        except wire.ProtocolError as error:
            raise ServeUnavailable(f"undecodable daemon reply: {error}") from error

    def evaluate(
        self,
        task_payload: Dict[str, Any],
        fingerprint: str,
        graph_payloads: List[Dict],
        span_ctx: Optional[trace.SpanContext] = None,
        timeout: Optional[float] = None,
        poll_interval: float = 0.005,
    ) -> wire.BatchResult:
        """Submit one batch and block until its result frame.

        Raises :class:`ServeUnavailable` when the daemon refuses because
        it is draining (fallback trigger) and
        :class:`RemoteEvaluationError` for job-level failures.
        """
        job_id = uuid.uuid4().hex
        reply = self.request(
            wire.SubmitBatch(
                id=job_id,
                tenant=self.client_name,
                task=task_payload,
                fingerprint=fingerprint,
                graphs=graph_payloads,
                span=list(span_ctx) if span_ctx is not None else None,
                timeout=timeout,
            )
        )
        if isinstance(reply, wire.ErrorReply):
            if reply.code == "draining":
                raise ServeUnavailable("daemon is draining")
            raise RemoteEvaluationError(reply.code, reply.message)
        if not isinstance(reply, wire.Accepted):
            raise ServeUnavailable(
                f"unexpected submit reply {type(reply).__name__}"
            )
        interval = poll_interval
        while True:
            reply = self.request(wire.Poll(id=job_id))
            if isinstance(reply, wire.BatchResult):
                return reply
            if isinstance(reply, wire.ErrorReply):
                raise RemoteEvaluationError(reply.code, reply.message)
            time.sleep(interval)
            interval = min(interval * 2, 0.05)

    def stats(self) -> wire.StatsReply:
        reply = self.request(wire.StatsRequest())
        if not isinstance(reply, wire.StatsReply):
            raise ServeUnavailable(
                f"unexpected stats reply {type(reply).__name__}"
            )
        return reply

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit (the ``serve stop`` verb)."""
        self.request(wire.Shutdown())

    def close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
            if sock is None:
                return
            try:
                self._reader.close()
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._sock is None else f"pid={self.server_pid}"
        return f"ServeClient({self.socket_path}, {state})"


class RemoteEngineSimulator(EngineSimulator):
    """Engine simulator whose evaluations run on a shared daemon.

    Overrides only ``_evaluate_graphs``; every accounting decision stays
    in the inherited code paths (see the module docstring).  On
    :class:`ServeUnavailable` — connection lost, daemon draining — it
    warns once and permanently reverts to the in-process engine it
    already carries, mid-run, with no record-visible difference.
    """

    def __init__(
        self,
        task: CircuitTask,
        budget: Optional[int] = None,
        engine: Optional[EvaluationEngine] = None,
        client: Optional[ServeClient] = None,
        socket_path: Optional[str] = None,
    ) -> None:
        super().__init__(task, budget=budget, engine=engine)
        if client is None:
            path = socket_path or wire.default_socket_path()
            if path is None:
                raise ServeUnavailable(
                    f"no socket path given and ${wire.ENV_SOCKET} is unset"
                )
            client = ServeClient(path)
        self.client = client
        self._task_payload = wire.task_to_dict(task)
        self._timeout = _request_timeout()
        self._remote = True

    # ------------------------------------------------------------------
    def _evaluate_graphs(
        self, graphs: List[PrefixGraph]
    ) -> List[Tuple[float, float, float]]:
        if not graphs or not self._remote:
            return super()._evaluate_graphs(graphs)
        tracer = trace.current_tracer()
        span_ctx = tracer.current_context() if tracer is not None else None
        try:
            result = self.client.evaluate(
                self._task_payload,
                self._fingerprint,
                wire.graphs_to_wire(graphs),
                span_ctx=span_ctx,
                timeout=self._timeout,
            )
        except ServeUnavailable as error:
            self._remote = False
            warnings.warn(
                f"evaluation daemon unavailable mid-run ({error}); "
                "falling back to the in-process engine",
                RuntimeWarning,
                stacklevel=2,
            )
            return super()._evaluate_graphs(graphs)
        if len(result.metrics) != len(graphs):
            raise RemoteEvaluationError(
                "bad_reply",
                f"daemon returned {len(result.metrics)} metrics "
                f"for {len(graphs)} graphs",
            )
        _fold_counters(self.telemetry, result.counters)
        if tracer is not None and result.spans:
            tracer.emit_raw(result.spans)
        return [
            (
                cost_from_metrics(area_um2, delay_ns, self.task.delay_weight),
                area_um2,
                delay_ns,
            )
            for area_um2, delay_ns in result.metrics
        ]

    @property
    def remote(self) -> bool:
        """Whether evaluations still go through the daemon (False after
        a fallback)."""
        return self._remote

    def __repr__(self) -> str:
        backend = repr(self.client) if self._remote else "fallback"
        return f"RemoteEngineSimulator({self.task.name!r}, {backend})"


def _fold_counters(telemetry: EngineTelemetry, counters: Dict[str, Any]) -> None:
    """Fold the daemon's per-job counter deltas into a run's telemetry.

    Only known counters and the stage-timer dicts are folded; derived
    values the snapshot may carry (``cache_hits``) are recomputed
    locally by ``as_dict`` anyway.
    """
    for name in EngineTelemetry._COUNTERS:
        amount = counters.get(name, 0)
        if amount:
            telemetry.add(name, int(amount))
    stage_seconds = counters.get("stage_seconds", {})
    stage_calls = counters.get("stage_calls", {})
    if isinstance(stage_seconds, dict):
        for name, seconds in stage_seconds.items():
            calls = stage_calls.get(name, 1) if isinstance(stage_calls, dict) else 1
            telemetry.add_stage_time(name, float(seconds), calls=int(calls))


def maybe_remote_simulator(
    engine: EvaluationEngine, task: CircuitTask, budget: Optional[int]
) -> Optional[RemoteEngineSimulator]:
    """A remote facade when ``$REPRO_ENGINE_SOCKET`` names a live daemon.

    Returns None — caller builds the normal in-process simulator — when
    the knob is unset, nobody answers (with a :class:`RuntimeWarning`:
    the operator pointed at a daemon that is not there), or the daemon
    is already draining.
    """
    socket_path = wire.default_socket_path()
    if socket_path is None:
        return None
    try:
        client = ServeClient(socket_path)
    except ServeUnavailable as error:
        warnings.warn(
            f"${wire.ENV_SOCKET} is set but unusable ({error}); "
            "running with the in-process engine",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if client.draining:
        client.close()
        warnings.warn(
            f"daemon at {socket_path} is draining; "
            "running with the in-process engine",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return RemoteEngineSimulator(task, budget=budget, engine=engine, client=client)
