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

:meth:`EvaluationEngine.evaluate` is one pass per batch: cache lookup,
one ``pool.synthesize_batch`` of the misses, ``cache.put``.  Parallel
seed threads that miss on the same design each synthesize it; the cache
settles the duplicate put as last-writer-wins, exactly as it does for
processes that share a cache directory, and both results are identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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

        metrics: List[Optional[Metrics]] = [None] * len(graphs)
        missing: List[int] = []
        # ``span`` is the shared no-op span when tracing is off.
        with trace.span("engine_evaluate") as span:
            span.set_attr("batch", len(graphs))
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
            if missing:
                with stage(telemetry, "synthesis"):
                    fresh = self.pool.synthesize_batch(
                        task, [graphs[i] for i in missing]
                    )
                # Counted after the batch returns, so a raised synthesis
                # caches nothing and doesn't skew hit-rate/throughput.
                span.add_counter("synth_calls", len(missing))
                telemetry.add("synth_calls", len(missing))
                telemetry.add("batches")
                telemetry.add("batch_designs", len(missing))
                for i, measured in zip(missing, fresh):
                    self.cache.put(fingerprint, graphs[i].key(), measured)
                    metrics[i] = measured
            return [
                (cost_from_metrics(area_um2, delay_ns, task.delay_weight), area_um2, delay_ns)
                for area_um2, delay_ns in metrics
            ]

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
