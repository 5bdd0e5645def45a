"""Bench-side spans: timing calls into the program from outside it.

A :class:`Recorder` replaces a function or method with a wrapper that
records one span per call — name, start, end, parent span, thread and
thread CPU seconds — and then calls the original.  Each thread keeps its
own stack, so a span's parent is the innermost span open on the same
thread when it started.  Spans stay in memory until :meth:`Recorder.dump`
writes them out; :func:`self_seconds` derives self time as a span's
duration minus the part its children cover.

The program itself is untouched: only module and class attributes are
swapped, at the place each caller looks the name up, and
:meth:`Recorder.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: ``enter(args, kwargs) -> state`` runs before the call; ``after(args,
#: kwargs, result, state) -> attrs`` runs after it and returns counts
#: attached to the span (e.g. how many designs the call handled).
Enter = Callable[[tuple, dict], Any]
After = Callable[[tuple, dict, Any, Any], Dict[str, float]]


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        enter: Optional[Enter] = None,
        after: Optional[After] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            state = enter(args, kwargs) if enter is not None else None
            stack = recorder._stack()
            with recorder._lock:
                recorder._next_id += 1
                span_id = recorder._next_id
            span = {
                "id": span_id,
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
                "cpu": -time.thread_time(),
                "attrs": {},
            }
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] += time.thread_time()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(span)
            if after is not None:
                span["attrs"] = after(args, kwargs, result, state)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, in the order they finished."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_seconds(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children run on their parent's thread inside its interval and do not
    overlap one another, so their durations add up to the covered part.
    """
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= duration(span)
    return own
