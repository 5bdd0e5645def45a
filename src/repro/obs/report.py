"""Trace analysis: span trees, time attribution, live tailing.

Everything here consumes the span dicts produced by
:mod:`repro.obs.trace` (usually via :func:`repro.obs.sink.read_trace`)
and is pure — no engine imports — so reports can run against any
``trace.jsonl``, including one from a crashed or still-running process.

The key quantities:

``total``
    Wall-clock between a span's start and finish.
``self``
    ``total`` minus the total of the span's *direct children* (clamped
    at zero — children on other threads can overlap their parent).
``coverage``
    Fraction of the root span's wall-clock accounted for by its direct
    children; the acceptance gate requires ≥95% for a traced run.
``stage_totals``
    Sum of span durations per stage name, restricted to spans flagged
    ``attrs.stage == true`` — these carry durations *imposed* from the
    telemetry stage timers, so the totals reproduce
    ``EngineTelemetry.stage_seconds`` exactly.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SpanNode",
    "build_tree",
    "aggregate",
    "stage_totals",
    "coverage",
    "render_tree",
    "render_hot_stages",
    "follow_trace",
]


class SpanNode:
    """One span plus its resolved children (a tree vertex)."""

    __slots__ = ("data", "children")

    def __init__(self, data: Dict) -> None:
        self.data = data
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def duration(self) -> float:
        t0, t1 = self.data.get("t0"), self.data.get("t1")
        if t0 is None or t1 is None:
            return 0.0
        return max(t1 - t0, 0.0)

    @property
    def children_total(self) -> float:
        return sum(child.duration for child in self.children)

    @property
    def self_time(self) -> float:
        return max(self.duration - self.children_total, 0.0)

    def walk(self, depth: int = 0) -> Iterator[Tuple["SpanNode", int]]:
        yield self, depth
        for child in self.children:
            for item in child.walk(depth + 1):
                yield item

    def __repr__(self) -> str:
        return f"SpanNode({self.name!r}, {self.duration:.6f}s, {len(self.children)} children)"


def build_tree(spans: List[Dict]) -> List[SpanNode]:
    """Link span dicts into root trees (roots have no resolvable parent).

    Children are sorted by start time within each parent.  Spans whose
    parent id does not appear in the list (e.g. the parent was torn off
    by a crash) become roots themselves rather than being dropped.
    """
    nodes = {s["span_id"]: SpanNode(s) for s in spans if "span_id" in s}
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent_id = node.data.get("parent_id")
        parent = nodes.get(parent_id) if parent_id is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.data.get("t0", 0.0))
    roots.sort(key=lambda n: n.data.get("t0", 0.0))
    return roots


def aggregate(roots: List[SpanNode]) -> List[Dict]:
    """Per-name rollup across the forest: calls, total and self seconds.

    Sorted by self seconds descending — the "where did the time go"
    table.  ``total`` double counts nested same-name spans by design
    (it answers "how long were we inside X", per call site).
    """
    rollup: Dict[str, Dict] = {}
    for root in roots:
        for node, _ in root.walk():
            entry = rollup.setdefault(
                node.name, {"name": node.name, "calls": 0, "total": 0.0, "self": 0.0}
            )
            entry["calls"] += 1
            entry["total"] += node.duration
            entry["self"] += node.self_time
    return sorted(rollup.values(), key=lambda e: e["self"], reverse=True)


def stage_totals(spans: List[Dict]) -> Dict[str, float]:
    """Summed seconds per stage name over spans marked ``attrs.stage``.

    Stage spans get their durations imposed from the telemetry stage
    timers (one measurement, charged to both), so this reproduces the
    engine's ``stage_seconds`` from the trace alone.
    """
    totals: Dict[str, float] = {}
    for span_dict in spans:
        attrs = span_dict.get("attrs") or {}
        if not attrs.get("stage"):
            continue
        t0, t1 = span_dict.get("t0"), span_dict.get("t1")
        if t0 is None or t1 is None:
            continue
        name = span_dict["name"]
        totals[name] = totals.get(name, 0.0) + max(t1 - t0, 0.0)
    return totals


def coverage(root: SpanNode) -> float:
    """Fraction of the root's wall-clock covered by its direct children.

    Child intervals are merged before measuring, so overlapping
    parallel-seed spans are not double counted and the result is ≤ 1.
    """
    duration = root.duration
    if duration <= 0.0:
        return 0.0
    intervals = []
    for child in root.children:
        t0, t1 = child.data.get("t0"), child.data.get("t1")
        if t0 is None or t1 is None:
            continue
        lo = max(t0, root.data["t0"])
        hi = min(t1, root.data["t1"])
        if hi > lo:
            intervals.append((lo, hi))
    intervals.sort()
    covered = 0.0
    cursor: Optional[float] = None
    end = 0.0
    for lo, hi in intervals:
        if cursor is None or lo > end:
            if cursor is not None:
                covered += end - cursor
            cursor, end = lo, hi
        elif hi > end:
            end = hi
    if cursor is not None:
        covered += end - cursor
    return min(covered / duration, 1.0)


# ----------------------------------------------------------------------
# Rendering (the `repro report` subcommand's output)
# ----------------------------------------------------------------------
def _format_node(node: SpanNode, root_duration: float) -> str:
    pct = 100.0 * node.duration / root_duration if root_duration > 0 else 0.0
    label = node.name
    attrs = node.data.get("attrs") or {}
    tags = [
        f"{key}={attrs[key]}"
        for key in (
            "method",
            "seed",
            "seed_threads",
            "blas_threads",
            "batch",
            "outcome",
            "mode",
        )
        if key in attrs
    ]
    if tags:
        label += f" [{', '.join(tags)}]"
    return (
        f"{label}  total={node.duration:.3f}s  self={node.self_time:.3f}s  ({pct:.1f}%)"
    )


def render_tree(
    roots: List[SpanNode],
    max_depth: Optional[int] = None,
    min_seconds: float = 0.0,
    collapse_over: int = 8,
) -> str:
    """ASCII span tree with total/self attribution per node.

    When a node has more than ``collapse_over`` children, its children
    are grouped by name and each repeated name is summarized into one
    ``name ×N`` line (a 500-iteration run should not print 500
    ``evaluate`` lines); pass ``collapse_over=0`` to disable.
    """
    lines: List[str] = []
    for root in roots:
        root_duration = root.duration or 1e-12
        lines.append(_format_node(root, root_duration))
        _render_children(root, "", root_duration, max_depth, min_seconds, collapse_over, lines, 1)
    return "\n".join(lines)


def _render_children(
    node: SpanNode,
    prefix: str,
    root_duration: float,
    max_depth: Optional[int],
    min_seconds: float,
    collapse_over: int,
    lines: List[str],
    depth: int,
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    children = [c for c in node.children if c.duration >= min_seconds]
    if collapse_over and len(children) > collapse_over:
        # Group by name (first-appearance order): iteration loops emit
        # alternating or repeated names that must fold into one line.
        groups: List[List[SpanNode]] = []
        by_name: Dict[str, List[SpanNode]] = {}
        for child in children:
            group = by_name.get(child.name)
            if group is None:
                group = by_name[child.name] = []
                groups.append(group)
            group.append(child)
    else:
        groups = [[child] for child in children]
    rendered: List[Tuple[str, Optional[SpanNode]]] = []
    for group in groups:
        if len(group) > 1:
            total = sum(c.duration for c in group)
            self_total = sum(c.self_time for c in group)
            pct = 100.0 * total / root_duration
            rendered.append(
                (
                    f"{group[0].name} ×{len(group)}  total={total:.3f}s  "
                    f"self={self_total:.3f}s  ({pct:.1f}%)",
                    None,
                )
            )
        else:
            rendered.append((_format_node(group[0], root_duration), group[0]))
    for i, (text, child) in enumerate(rendered):
        last = i == len(rendered) - 1
        lines.append(f"{prefix}{'└─ ' if last else '├─ '}{text}")
        if child is not None:
            _render_children(
                child,
                prefix + ("   " if last else "│  "),
                root_duration,
                max_depth,
                min_seconds,
                collapse_over,
                lines,
                depth + 1,
            )


def render_hot_stages(roots: List[SpanNode], top: int = 10) -> str:
    """Top-N table of span names by self time."""
    entries = aggregate(roots)[:top]
    if not entries:
        return "(no spans)"
    name_width = max(len(e["name"]) for e in entries)
    name_width = max(name_width, len("span"))
    lines = [
        f"{'span':<{name_width}}  {'calls':>7}  {'total s':>10}  {'self s':>10}",
        f"{'-' * name_width}  {'-' * 7}  {'-' * 10}  {'-' * 10}",
    ]
    for e in entries:
        lines.append(
            f"{e['name']:<{name_width}}  {e['calls']:>7}  "
            f"{e['total']:>10.3f}  {e['self']:>10.3f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live tailing (the `repro status --follow` backend)
# ----------------------------------------------------------------------
def follow_trace(
    path: str,
    poll_interval: float = 0.5,
    stop: Optional[object] = None,
    timeout: Optional[float] = None,
) -> Iterator[Dict]:
    """Yield span dicts as a live writer appends them (``tail -f``).

    Waits for the file to exist, then polls at ``poll_interval``.
    Terminates when ``stop`` (anything with ``is_set()``, e.g. a
    ``threading.Event``) fires or ``timeout`` seconds elapse; a partial
    final line is retained in the buffer until its newline arrives.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None

    def _done() -> bool:
        if stop is not None and stop.is_set():
            return True
        return deadline is not None and time.monotonic() >= deadline

    while not os.path.exists(path):
        if _done():
            return
        time.sleep(min(poll_interval, 0.1))

    buffer = ""
    with open(path) as handle:
        while True:
            chunk = handle.read()
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(payload, dict):
                        yield payload
            else:
                if _done():
                    return
                time.sleep(poll_interval)
