"""Durable trace sinks: append-only ``trace.jsonl`` + Perfetto export.

Spans stream to ``<run_dir>/trace.jsonl`` with the same crash-safety
discipline as the evaluation history: each span is one JSON line,
written and flushed atomically *per line* in append mode, and readers
tolerate a truncated final line (the signature of a writer killed
mid-append).  Nothing is buffered across spans, so a live run's trace
can be tailed (``python -m repro status --follow``) and a killed run's
trace is complete up to its last finished span.

:func:`export_perfetto` converts a trace to the Chrome/Perfetto
``trace_event`` JSON format (``ph: "X"`` complete events, microsecond
timestamps), so any run directory opens directly in ``ui.perfetto.dev``
or ``chrome://tracing`` as a flame graph.

:func:`validate_spans` is the schema gate the CI obs-smoke job runs: it
checks required fields, types, timestamp sanity and parent linkage.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, List, Optional

from ..utils.io import ensure_parent_dir

__all__ = [
    "TRACE_FILENAME",
    "TraceSink",
    "read_trace",
    "to_perfetto",
    "export_perfetto",
    "validate_spans",
]

#: conventional trace file name inside a run directory.
TRACE_FILENAME = "trace.jsonl"

#: required span-dict fields and their types (validation schema).
_SCHEMA = {
    "name": str,
    "trace_id": str,
    "span_id": str,
    "t0": (int, float),
    "t1": (int, float),
    "pid": int,
    "tid": int,
}


class TraceSink:
    """Append-only JSONL span writer (thread-safe, crash-safe per line).

    Owned by the pid that created it: a forked worker that inherits the
    sink cannot corrupt the file — writes from a foreign pid are
    silently dropped.  Spans are only ever written by the run's own
    process; pool workers record none.
    """

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        ensure_parent_dir(self.path)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._handle = open(self.path, "a")
        self.written = 0

    def write(self, span_dict: Dict) -> None:
        if os.getpid() != self._pid:
            return
        line = json.dumps(span_dict, separators=(",", ":"))
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"TraceSink({self.path!r}, written={self.written})"


def read_trace(path: str) -> List[Dict]:
    """Every readable span in the file, in write (i.e. finish) order,
    skipping a truncated tail."""
    spans = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a killed writer
            if isinstance(payload, dict):
                spans.append(payload)
    return spans


# ----------------------------------------------------------------------
# Perfetto / Chrome trace_event export
# ----------------------------------------------------------------------
def to_perfetto(spans: Iterable[Dict]) -> Dict:
    """Spans -> Chrome ``trace_event`` JSON object (complete events).

    Timestamps become microseconds relative to the earliest span start,
    so the viewer opens at t=0; thread/process ids pass through, giving
    one track per (pid, tid) — parallel seeds land on their own rows.
    """
    spans = list(spans)
    base = min((s["t0"] for s in spans), default=0.0)
    events = []
    for span_dict in spans:
        t1 = span_dict.get("t1")
        if t1 is None:
            continue  # unfinished span (should not occur in a file)
        args = {}
        if span_dict.get("attrs"):
            args.update(span_dict["attrs"])
        if span_dict.get("counters"):
            args["counters"] = span_dict["counters"]
        args["span_id"] = span_dict["span_id"]
        if span_dict.get("parent_id"):
            args["parent_id"] = span_dict["parent_id"]
        events.append(
            {
                "name": span_dict["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (span_dict["t0"] - base) * 1e6,
                "dur": max(t1 - span_dict["t0"], 0.0) * 1e6,
                "pid": span_dict.get("pid", 0),
                "tid": span_dict.get("tid", 0),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_perfetto(trace_path: str, out_path: Optional[str] = None) -> str:
    """Convert ``trace.jsonl`` to a Perfetto-openable JSON file.

    Returns the output path (default: the trace path with a
    ``.perfetto.json`` suffix).
    """
    if out_path is None:
        stem = trace_path[:-len(".jsonl")] if trace_path.endswith(".jsonl") else trace_path
        out_path = stem + ".perfetto.json"
    payload = to_perfetto(read_trace(trace_path))
    ensure_parent_dir(out_path)
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
    return out_path


# ----------------------------------------------------------------------
# Schema validation (the CI obs-smoke gate)
# ----------------------------------------------------------------------
def validate_spans(spans: List[Dict]) -> List[str]:
    """Schema-check a span list; returns a list of problems (empty = ok).

    Checks per span: required fields present with the right types,
    ``t1 >= t0``; across the trace: exactly one trace id, unique span
    ids, and every ``parent_id`` resolvable (children are written before
    their parents finish, so a complete file must close the tree).
    """
    problems: List[str] = []
    ids = set()
    trace_ids = set()
    for i, span_dict in enumerate(spans):
        for field, types in _SCHEMA.items():
            value = span_dict.get(field)
            if value is None:
                problems.append(f"span {i}: missing field {field!r}")
            elif not isinstance(value, types):
                problems.append(
                    f"span {i}: field {field!r} has type {type(value).__name__}"
                )
        if "parent_id" not in span_dict:
            problems.append(f"span {i}: missing field 'parent_id' (may be null)")
        t0, t1 = span_dict.get("t0"), span_dict.get("t1")
        if isinstance(t0, (int, float)) and isinstance(t1, (int, float)) and t1 < t0:
            problems.append(f"span {i}: t1 < t0")
        span_id = span_dict.get("span_id")
        if span_id in ids:
            problems.append(f"span {i}: duplicate span_id {span_id!r}")
        ids.add(span_id)
        trace_ids.add(span_dict.get("trace_id"))
    if len(trace_ids) > 1:
        problems.append(f"multiple trace ids in one file: {sorted(map(str, trace_ids))}")
    for i, span_dict in enumerate(spans):
        parent = span_dict.get("parent_id")
        if parent is not None and parent not in ids:
            problems.append(f"span {i}: unresolvable parent_id {parent!r}")
    return problems
