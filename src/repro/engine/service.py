"""The evaluation engine and its drop-in simulator facade.

:class:`EvaluationEngine` owns the shared pieces — one persistent
:class:`~repro.engine.cache.EvaluationCache` and one
:class:`~repro.engine.pool.SynthesisPool` — and hands out
:class:`EngineSimulator` instances, one per (task, budget, run).

:class:`EngineSimulator` subclasses the plain
:class:`~repro.opt.simulator.CircuitSimulator`, so every existing caller
(Algorithm 1, all baselines, the run handle, the benches) works unchanged.
Only the execution backend differs: the planner in
:meth:`CircuitSimulator.query_plan` hands the unique new graphs of each
query or batch to :meth:`EngineSimulator._synthesize_many`, which serves
them through the persistent cache and synthesizes the rest in one
submission — a single design through ``task.synthesize``, two or more
through one vectorized :mod:`repro.synth.batched` pass (chunked across
pool workers when the batch is large enough).

Budget accounting is **identical** to serial execution by construction:
the planner walks designs in submission order and assigns ``sim_index``
before any parallel work starts, so ``history``, ``num_simulations`` and
``best_cost_curve`` are bit-identical whether a batch ran on 1 or 16
workers, cold or against a warm disk cache.  A persistent-cache hit
still charges the run's budget — the cache eliminates physical synthesis
work, never paper-semantics accounting.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.task import CircuitTask
from ..obs import trace
from ..opt.simulator import CircuitSimulator, Evaluation
from ..prefix.graph import PrefixGraph
from ..synth.cost import cost_from_metrics
from .cache import EvaluationCache, default_cache_dir, task_fingerprint
from .pool import SynthesisPool
from .telemetry import EngineTelemetry, stage

__all__ = ["EvaluationEngine", "EngineSimulator"]

Metrics = Tuple[float, float]  # (area_um2, delay_ns)


class EvaluationEngine:
    """Shared cache + worker pool behind any number of runs.

    Parameters
    ----------
    cache:
        An :class:`EvaluationCache` to share; built from ``cache_dir``
        (default ``$REPRO_CACHE_DIR``; unset = memory-only) when omitted.
    pool:
        A :class:`SynthesisPool` to share; built from ``workers``
        (default ``$REPRO_ENGINE_WORKERS``, i.e. 1 = serial) when omitted.
    """

    def __init__(
        self,
        cache: Optional[EvaluationCache] = None,
        pool: Optional[SynthesisPool] = None,
        cache_dir: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        if cache is None:
            cache = EvaluationCache(
                cache_dir=cache_dir if cache_dir is not None else default_cache_dir()
            )
        self.cache = cache
        self.pool = pool if pool is not None else SynthesisPool(workers)
        # In-flight synthesis registry: parallel seed threads that miss
        # the cache on the same design wait for the first thread's result
        # instead of synthesizing it again.
        self._inflight_lock = threading.Lock()
        self._inflight: Dict[Tuple[str, bytes], threading.Event] = {}

    # ------------------------------------------------------------------
    def simulator(
        self, task: CircuitTask, budget: Optional[int] = None
    ) -> "EngineSimulator":
        """A fresh engine-backed simulator for one run."""
        return EngineSimulator(task, budget=budget, engine=self)

    def evaluate(
        self,
        task: CircuitTask,
        graphs: Sequence[PrefixGraph],
        telemetry: EngineTelemetry,
        fingerprint: Optional[str] = None,
    ) -> List[Tuple[float, float, float]]:
        """(cost, area, delay) for each graph, cache-first, pool-backed.

        ``graphs`` must already be legalized and unique; callers own
        dedup and budget accounting.  Results preserve input order.
        Hits, synthesis calls and synthesis time are charged to the
        caller's ``telemetry``.  ``fingerprint`` lets long-lived callers
        (EngineSimulator) skip re-hashing the task configuration on every
        call.
        """
        if not graphs:
            return []
        if fingerprint is None:
            fingerprint = task_fingerprint(task)

        with trace.span("engine_evaluate") as span:
            span.set_attr("batch", len(graphs))
            return self._evaluate(task, graphs, telemetry, fingerprint, span)

    def _evaluate(
        self,
        task: CircuitTask,
        graphs: Sequence[PrefixGraph],
        telemetry: EngineTelemetry,
        fingerprint: str,
        span,
    ) -> List[Tuple[float, float, float]]:
        """:meth:`evaluate`'s body, under an ``engine_evaluate`` span
        (the shared no-op span when tracing is off)."""
        metrics: List[Optional[Metrics]] = [None] * len(graphs)
        missing: List[int] = []
        for i, graph in enumerate(graphs):
            hit = self.cache.get_with_origin(fingerprint, graph.key())
            if hit is not None:
                metrics[i], origin = hit
                counter = "memory_hits" if origin == "memory" else "disk_hits"
                span.add_counter(counter)
                telemetry.add(counter)
            else:
                missing.append(i)
        span.set_attr(
            "outcome",
            "hit" if not missing
            else ("miss" if len(missing) == len(graphs) else "partial"),
        )

        # The claim loop: claim each missing key or find the thread
        # already working on it, synthesize the claimed ones, wait for
        # the rest, then rescan.  A key still missing after its owner
        # finished (the owner's synthesis raised, or a memory-only cache
        # evicted the entry) goes round again, so exactly one waiter
        # reclaims it and the others wait on the new claimant.
        while missing:
            owned: List[int] = []
            waited: List[Tuple[int, threading.Event]] = []
            with self._inflight_lock:
                for i in missing:
                    flight_key = (fingerprint, graphs[i].key())
                    event = self._inflight.get(flight_key)
                    if event is None:
                        self._inflight[flight_key] = threading.Event()
                        owned.append(i)
                    else:
                        waited.append((i, event))

            if owned:
                try:
                    # Re-check the cache under our claim: another thread
                    # may have finished a design between our scan and the
                    # claim (TOCTOU) — don't synthesize it twice.
                    todo: List[int] = []
                    for i in owned:
                        hit = self.cache.get(fingerprint, graphs[i].key())
                        if hit is not None:
                            metrics[i] = hit
                            span.add_counter("inflight_hits")
                            telemetry.add("inflight_hits")
                        else:
                            todo.append(i)
                    if todo:
                        with stage(telemetry, "synthesis"):
                            fresh = self.pool.synthesize_batch(
                                task, [graphs[i] for i in todo]
                            )
                        # Counted after the batch returns, so a raised
                        # synthesis doesn't skew hit-rate/throughput.
                        span.add_counter("synth_calls", len(todo))
                        telemetry.add("synth_calls", len(todo))
                        telemetry.add("batches")
                        telemetry.add("batch_designs", len(todo))
                        for i, measured in zip(todo, fresh):
                            self.cache.put(fingerprint, graphs[i].key(), measured)
                            metrics[i] = measured
                finally:
                    # Release waiters even if synthesis raised; they retry.
                    with self._inflight_lock:
                        for i in owned:
                            event = self._inflight.pop(
                                (fingerprint, graphs[i].key()), None
                            )
                            if event is not None:
                                event.set()

            missing = []
            for i, event in waited:
                event.wait()
                hit = self.cache.get(fingerprint, graphs[i].key())
                if hit is not None:
                    metrics[i] = hit
                    span.add_counter("inflight_hits")
                    telemetry.add("inflight_hits")
                else:
                    missing.append(i)

        out: List[Tuple[float, float, float]] = []
        for m in metrics:
            assert m is not None
            area_um2, delay_ns = m
            out.append(
                (cost_from_metrics(area_um2, delay_ns, task.delay_weight), area_um2, delay_ns)
            )
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EvaluationEngine(cache={self.cache!r}, pool={self.pool!r})"


class EngineSimulator(CircuitSimulator):
    """`CircuitSimulator`-compatible facade over an :class:`EvaluationEngine`.

    Exposes a per-run ``telemetry`` attribute that
    :meth:`repro.opt.results.RunRecord.from_simulator` snapshots into the
    run record.
    """

    def __init__(
        self,
        task: CircuitTask,
        budget: Optional[int] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        super().__init__(task, budget=budget)
        self.engine = engine if engine is not None else EvaluationEngine()
        self.telemetry = EngineTelemetry()
        self._fingerprint = task_fingerprint(task)

    # ------------------------------------------------------------------
    def _synthesize_many(
        self, graphs: List[PrefixGraph]
    ) -> List[Tuple[float, float, float]]:
        """Where graphs meet the engine: persistent cache first, then
        the pool."""
        return self.engine.evaluate(
            self.task, graphs, self.telemetry, fingerprint=self._fingerprint
        )

    def query_plan(self, designs) -> List[Optional[Evaluation]]:
        """:meth:`CircuitSimulator.query_plan` (single queries included)
        under an ``evaluate_batch`` span, counting ``queries``."""
        designs = list(designs)
        self.telemetry.add("queries", len(designs))
        with trace.span("evaluate_batch") as span:
            span.set_attr("batch", len(designs))
            return super().query_plan(designs)
