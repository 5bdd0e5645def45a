"""Throughput, hit-rate and per-stage timing counters for the engine.

One :class:`EngineTelemetry` instance is a thread-safe bag of counters and
stage timers.  Each :class:`~repro.engine.service.EngineSimulator` owns a
per-run instance — the one sink every engine, planner and algorithm
write goes to — whose snapshot lands in
:class:`~repro.opt.results.RunRecord.telemetry`, so every figure/table
bench can report cache hit-rates and synthesis throughput alongside the
paper's sample-efficiency numbers.

Counters and stage timers are plain dicts under one lock, so
``as_dict()`` is computed from one atomic snapshot; its derived
``cache_hits``/``hit_rate``/``synth_throughput`` fields come from
:func:`derived_fields`, which also re-derives them for summed
snapshots.  The :func:`stage` helper also emits :mod:`repro.obs.trace`
spans (marked ``attrs.stage``) whose durations are *imposed* from the
same single wall-clock measurement that feeds ``stage_seconds``, so a
trace-derived report reproduces the engine's stage totals exactly.

This module only imports the stdlib-only :mod:`repro.obs.trace` (no
engine/core imports), so the rest of the codebase — core, baselines —
can record stage timings without creating import cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from ..obs import trace

__all__ = [
    "EngineTelemetry",
    "KNOWN_SPANS",
    "KNOWN_STAGES",
    "derived_fields",
    "stage",
]

#: shared attrs dict for stage spans (Span copies it; never mutated) —
#: a module constant so the tracing-off path allocates nothing.
#: thread-safe: written once at import time, read-only afterwards.
_STAGE_ATTRS = {"stage": True}

#: The canonical stage vocabulary.  :func:`stage` names must come from this set (plus the dynamic
#: ``train_kernel:<op>`` family from REPRO_PROFILE=1) — a typo'd
#: stage would silently create a fresh ``stage_seconds`` series, so
#: ``tests/test_invariants.py`` resolves every literal stage name in the
#: tree against this frozenset.
KNOWN_STAGES = frozenset(
    {
        "synthesis",
        "train",
        "acquisition",
        "variation",
        "proposal",
        "decode",
        "latent_search",
    }
)

#: The canonical trace-span vocabulary (stage spans reuse KNOWN_STAGES).
#: Same discipline as KNOWN_STAGES: report tooling groups by these names,
#: so new span call sites register here, and a name with no call site
#: left goes (``tests/test_invariants.py`` enforces both).
KNOWN_SPANS = frozenset(
    {
        "experiment",
        "seed",
        "final_records",
        "engine_evaluate",
        "evaluate_batch",
        "synthesize_chunk",
        "cache_load",
        "cache_refresh",
        "bench",
    }
)

def derived_fields(snapshot: Mapping) -> Dict[str, float]:
    """``cache_hits``, ``hit_rate`` and ``synth_throughput`` of one
    ``as_dict`` snapshot, or of a sum of them (missing counters read 0).

    ``hit_rate`` is the fraction of charged evaluations served without
    synthesis; ``synth_throughput`` is synthesis calls per second of
    synthesis wall-clock.
    """
    cache_hits = snapshot.get("memory_hits", 0) + snapshot.get("disk_hits", 0)
    synth_calls = snapshot.get("synth_calls", 0)
    charged = cache_hits + synth_calls
    seconds = snapshot.get("stage_seconds", {}).get("synthesis", 0.0)
    return {
        "cache_hits": cache_hits,
        "hit_rate": cache_hits / charged if charged else 0.0,
        "synth_throughput": synth_calls / seconds if seconds > 0 else 0.0,
    }


class EngineTelemetry:
    """Counters for one engine (or one engine-backed run).

    Counter semantics
    -----------------
    ``queries``
        Designs submitted through ``query``/``query_plan``/``query_many``.
    ``run_hits``
        Served from the per-run memo (same design queried twice in a run).
    ``memory_hits`` / ``disk_hits``
        Served from the shared persistent cache (RAM front / loaded from
        the on-disk store).  Both still charge the run's budget — the
        cache removes *physical synthesis work*, never accounting.
    ``inflight_hits``
        Served by waiting on another thread's concurrent synthesis of the
        same design (parallel seeds).  Not a cache hit: the work happened,
        just once, elsewhere.
    ``synth_calls``
        Designs that actually went through the physical-synthesis flow.
    ``budget_refusals``
        Designs refused because the budget was exhausted (single
        queries and batch entries alike).
    ``batches`` / ``batch_designs``
        Synthesis submissions and their total size (the ``synthesis``
        stage timer is their wall-clock).
    ``train_*``
        Neural-training engine counters (CircuitVAE / latent-BO rounds):
        epochs trained vs restored from checkpoints, and the
        compiled-step compile/replay/fallback counts from
        :mod:`repro.nn.compile`.
    """

    _COUNTERS = (
        "queries",
        "run_hits",
        "memory_hits",
        "disk_hits",
        "inflight_hits",
        "synth_calls",
        "budget_refusals",
        "batches",
        "batch_designs",
        "train_epochs",
        "train_epochs_skipped",
        "train_compiles",
        "train_replays",
        "train_fallbacks",
    )

    def __init__(self) -> None:
        #: guards the counters and both stage dicts, so a snapshot (and
        #: the ratios derived from it) is atomic with respect to
        #: concurrent ``add`` calls.
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(self._COUNTERS, 0)
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}

    def __getattr__(self, name: str):
        # counters read straight from ``_counts``; everything else is a
        # real attribute (this only fires on misses).
        counts = self.__dict__.get("_counts")
        if counts is not None and name in counts:
            return counts[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    def add(self, counter: str, amount: int = 1) -> None:
        """Atomically bump one of the named counters."""
        if counter not in self._counts:
            raise KeyError(f"unknown telemetry counter {counter!r}")
        with self._lock:
            self._counts[counter] += amount

    def add_stage_time(self, name: str, seconds: float) -> None:
        """Charge one timed call of ``seconds`` to stage ``name``."""
        with self._lock:
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
            self.stage_calls[name] = self.stage_calls.get(name, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (the shape stored in RunRecord)."""
        with self._lock:
            payload: Dict[str, object] = dict(self._counts)
            payload["stage_seconds"] = dict(self.stage_seconds)
            payload["stage_calls"] = dict(self.stage_calls)
        payload.update(derived_fields(payload))
        return payload

    def __repr__(self) -> str:
        return (
            f"EngineTelemetry(queries={self.queries}, "
            f"synth={self.synth_calls})"
        )


@contextmanager
def stage(telemetry: Optional[EngineTelemetry], name: str) -> Iterator[None]:
    """Time a named stage, or do nothing when ``telemetry`` is None.

    Algorithms call ``stage(getattr(simulator, "telemetry", None), "train")``
    so the same code runs unchanged against the plain serial simulator.
    When tracing is active the stage also becomes a span whose duration
    is imposed from the same measurement charged to ``stage_seconds``.
    """
    if telemetry is None:
        yield
        return
    span = trace.span(name, _STAGE_ATTRS)
    span.__enter__()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        telemetry.add_stage_time(name, elapsed)
        span.finish(elapsed=elapsed)
