"""Hierarchical spans: the tracing half of :mod:`repro.obs`.

A trace is a tree of **spans** — named, timed intervals with attributes
and counter deltas — covering one experiment run::

    experiment                       (the whole grid, root span)
      seed GA/0                      (one (method, seed) cell)
        evaluate_batch               (one query or query_plan call)
          engine_evaluate            (cache classification + synthesis)
            synthesis                (stage span, == telemetry seconds;
                                      also times a pooled batch — pool
                                      workers record no spans)
        train                        (stage span around a retrain round)

Design constraints, in order:

1. **Near-free when off.**  Tracing is off unless a :class:`Tracer` is
   *activated*; every call site goes through :func:`active` /
   :func:`span`, which reduce to one module-global ``is None`` check and
   a shared no-op context manager.  No allocation, no clock read.
2. **Propagates across threads.**  The activated tracer is
   process-ambient; each thread keeps its own current-span stack, and a
   thread that has no stack yet (a freshly spawned parallel-seed thread)
   parents to the tracer's *default context* — the experiment root — so
   seed spans land in the right tree without any explicit plumbing.
3. **Durations can be imposed.**  ``Span.finish(elapsed=...)`` lets the
   telemetry stage helpers measure wall-clock *once* and charge the same
   number to both the stage counters and the span, so a report derived
   from the trace reproduces ``stage_seconds`` exactly.

This module is stdlib-only (no ``repro`` imports), so every layer —
including :mod:`repro.engine.telemetry`, which must stay import-cycle
free — can use it.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "active",
    "span",
]

#: span address: (trace_id, span_id).
SpanContext = Tuple[str, str]

#: the process-ambient tracer (None = tracing off everywhere).
_AMBIENT: Optional["Tracer"] = None
_AMBIENT_LOCK = threading.Lock()


def active() -> bool:
    """Whether any tracer is currently activated (one global check)."""
    return _AMBIENT is not None


class _NullSpan:
    """Shared no-op span: what every call site gets when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set_attr(self, name: str, value) -> None:
        return None

    def add_counter(self, name: str, amount=1) -> None:
        return None

    def finish(self, elapsed: Optional[float] = None) -> None:
        return None

    @property
    def context(self) -> Optional[SpanContext]:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One named interval in a trace (context manager, re-entrant never).

    ``attrs`` carry structured metadata (graph key, batch size, cache
    outcome); ``counters`` carry additive deltas (synth calls, hits)
    that reports can sum without double counting — each increment is
    recorded on exactly one span.
    """

    __slots__ = (
        "tracer", "name", "trace_id", "span_id", "parent_id",
        "attrs", "counters", "t0", "t1", "_start_pc", "pid", "tid",
        "_finished", "_on_stack",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Optional[Dict] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: Dict = dict(attrs) if attrs else {}
        self.counters: Dict[str, float] = {}
        self._start_pc = time.perf_counter()
        self.t0 = tracer.anchor + self._start_pc
        self.t1: Optional[float] = None
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self._finished = False
        self._on_stack = False

    @property
    def context(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    def set_attr(self, name: str, value) -> None:
        self.attrs[name] = value

    def add_counter(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def finish(self, elapsed: Optional[float] = None) -> None:
        """Close the span and emit it.  ``elapsed`` imposes the duration
        (the telemetry stage helpers measure once, charge twice)."""
        if self._finished:
            return
        self._finished = True
        if elapsed is None:
            elapsed = time.perf_counter() - self._start_pc
        self.t1 = self.t0 + elapsed
        if self._on_stack:
            self.tracer._pop(self)
        self.tracer._emit(self)

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._on_stack = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()

    def to_dict(self) -> Dict:
        payload: Dict = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t0": self.t0,
            "t1": self.t1,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attrs:
            payload["attrs"] = self.attrs
        if self.counters:
            payload["counters"] = self.counters
        return payload

    def __repr__(self) -> str:
        state = "open" if self.t1 is None else f"{self.t1 - self.t0:.6f}s"
        return f"Span({self.name!r}, {state})"


class Tracer:
    """Produces spans and routes them to a sink.

    Parameters
    ----------
    sink:
        Anything with a ``write(span_dict)`` method (a
        :class:`repro.obs.sink.TraceSink`); spans are delivered as dicts,
        children strictly before their parents close (spans are emitted
        on *finish*).
    trace_id:
        Fixed id for the whole tree; generated when omitted.
    """

    def __init__(self, sink, trace_id: Optional[str] = None) -> None:
        if not hasattr(sink, "write"):
            raise TypeError("sink must expose .write(span_dict)")
        self._sink = sink
        self.trace_id = (
            trace_id
            if trace_id is not None
            else f"tr-{os.getpid():x}-{time.time_ns() & 0xFFFFFFFF:08x}"
        )
        #: epoch anchor: span times are ``anchor + perf_counter()`` so
        #: durations are monotonic but timestamps read as wall clock.
        self.anchor = time.time() - time.perf_counter()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._local = threading.local()
        #: fallback parent for threads with no local span stack (the
        #: experiment root; see :meth:`span`'s ``default=True``).
        self._default_ctx: Optional[SpanContext] = None

    # -- id / stack management -----------------------------------------
    def _next_id(self) -> str:
        with self._id_lock:
            return f"s{next(self._ids):06d}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:
            # Tolerate out-of-order finishes (an unwound seed thread):
            # everything above the span is abandoned, not corrupted.
            del stack[stack.index(span):]

    def current_context(self) -> Optional[SpanContext]:
        """This thread's innermost span context, or the tracer default."""
        stack = self._stack()
        if stack:
            return stack[-1].context
        return self._default_ctx

    # -- span creation --------------------------------------------------
    def span(
        self,
        name: str,
        attrs: Optional[Dict] = None,
        default: bool = False,
    ) -> Span:
        """A new span parented to this thread's current span, or the
        tracer default.  Use as a context manager (which also makes it
        the thread's current span) or call :meth:`Span.finish` manually.
        ``default=True`` additionally installs the span as the
        tracer-wide fallback parent."""
        parent = self.current_context()
        parent_id = parent[1] if parent is not None else None
        span = Span(self, name, self.trace_id, self._next_id(), parent_id, attrs)
        if default:
            self._default_ctx = span.context
        return span

    def _emit(self, span: Span) -> None:
        self._sink.write(span.to_dict())

    # -- activation ------------------------------------------------------
    def activate(self) -> "_Activation":
        """Make this tracer process-ambient for a ``with`` block.

        One tracer at a time: activating while another tracer is active
        raises (two concurrent traced runs in one process would
        cross-wire their trees; run them in separate processes).
        """
        return _Activation(self)

    def __repr__(self) -> str:
        return f"Tracer({self.trace_id}, sink={self._sink!r})"


class _Activation:
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        global _AMBIENT
        with _AMBIENT_LOCK:
            if _AMBIENT is not None and _AMBIENT is not self._tracer:
                raise RuntimeError(
                    "another tracer is already active in this process"
                )
            _AMBIENT = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> None:
        global _AMBIENT
        with _AMBIENT_LOCK:
            if _AMBIENT is self._tracer:
                _AMBIENT = None


# ----------------------------------------------------------------------
# Guarded module-level call sites (what the rest of the codebase uses)
# ----------------------------------------------------------------------
def span(name: str, attrs: Optional[Dict] = None):
    """A span on the ambient tracer, or the shared no-op when tracing is
    off.  The off path is one global check and a singleton return."""
    tracer = _AMBIENT
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, attrs)

