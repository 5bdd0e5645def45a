"""Which program entry points the traced run wraps, and the per-layer
metrics computed from the resulting spans.

Every patch targets the name where its caller looks it up (a function
imported into the caller's module, or a method on its class), so the
program runs unchanged apart from the wrapper.  Metric names are
``<module>.<function>.<quantity>``; :data:`PER_LAYER` lists them with
their units, in the order ``BENCHMARK.json`` declares them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from spans import Recorder, duration, self_seconds

#: (name, unit) of every per-layer metric a traced run reports.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.train_model.s", "s"),
    ("core.train_model.calls", "count"),
    ("core.train_model.epochs", "count"),
    ("core.train_model.s_per_epoch", "s"),
    ("core.latent_gradient_search.s", "s"),
    ("core.sample_designs.s", "s"),
    ("core.sample_designs.designs", "count"),
    ("core.decode.new_ratio", "ratio"),
    ("core.encode.s", "s"),
    ("nn.train_replays", "count"),
    ("nn.loop_replays", "count"),
    ("nn.train_compiles", "count"),
    ("nn.train_fallbacks", "count"),
    ("nn.stacked_replicas", "count"),
    ("nn.kernel.conv2d_s", "s"),
    ("nn.kernel.conv_transpose2d_s", "s"),
    ("nn.kernel.matmul_s", "s"),
    ("nn.kernel.other_s", "s"),
    ("baselines.gp.fit_s", "s"),
    ("baselines.gp.predict_s", "s"),
    ("opt.variation.s", "s"),
    ("opt.variation.calls", "count"),
    ("opt.query_plan.calls", "count"),
    ("opt.query_plan.designs", "count"),
    ("opt.run_hits", "count"),
    ("opt.budget_refusals", "count"),
    ("prefix.legalize.s", "s"),
    ("prefix.legalize.calls", "count"),
    ("prefix.legalize.p50_us", "us"),
    ("prefix.legalize.tail_us", "us"),
    ("prefix.legalize.tail_pct", "%"),
    ("engine.evaluate.self_s", "s"),
    ("engine.cache.lookup_s", "s"),
    ("engine.cache.put_s", "s"),
    ("engine.cache.hit_ratio", "ratio"),
    ("synth.scalar.s", "s"),
    ("synth.scalar.designs", "count"),
    ("synth.scalar.p50_ms", "ms"),
    ("synth.scalar.tail_ms", "ms"),
    ("synth.scalar.tail_pct", "%"),
    ("synth.batched.s", "s"),
    ("synth.batched.designs", "count"),
    ("synth.incremental.s", "s"),
    ("synth.incremental.designs", "count"),
    ("synth.incremental.cone_hit_ratio", "ratio"),
    ("synth.incremental.fallback_ratio", "ratio"),
    ("api.cell_s", "s"),
    ("api.parallel_efficiency", "ratio"),
    ("api.rundir.append_s", "s"),
    ("api.rundir.appends", "count"),
    ("obs.trace_overhead", "ratio"),
    ("obs.coverage", "ratio"),
    ("obs.stage_ratio.train", "ratio"),
    ("obs.stage_ratio.synthesis", "ratio"),
    ("obs.stage_ratio.acquisition", "ratio"),
    ("obs.stage_ratio.variation", "ratio"),
    ("obs.stage_ratio.decode", "ratio"),
    ("obs.stage_ratio.latent_search", "ratio"),
)

#: program stage (``telemetry["stage_seconds"]``) -> the bench-side
#: spans whose durations should add up to it.
STAGE_SPANS: Dict[str, Tuple[str, ...]] = {
    "train": ("core.train_model",),
    "synthesis": ("synth.scalar", "synth.batched", "synth.incremental"),
    "acquisition": ("baselines.gp.fit", "baselines.gp.predict", "baselines.bo.encode"),
    "variation": ("opt.variation",),
    "decode": ("core.sample_designs",),
    "latent_search": ("core.latent_gradient_search",),
}

#: telemetry counter -> per-layer metric.
_COUNTERS = {
    "train_replays": "nn.train_replays",
    "loop_replays": "nn.loop_replays",
    "train_compiles": "nn.train_compiles",
    "train_fallbacks": "nn.train_fallbacks",
    "stacked_replicas": "nn.stacked_replicas",
    "run_hits": "opt.run_hits",
    "budget_refusals": "opt.budget_refusals",
}


# ----------------------------------------------------------------------
# Patches
# ----------------------------------------------------------------------
def _count(key: str, of):
    return lambda args, kwargs, result, state: {key: of(args, kwargs, result)}


def _sims_before(args, kwargs):
    simulator = args[2] if len(args) > 2 else kwargs["simulator"]
    return simulator, simulator.num_simulations


def _decode_outcome(args, kwargs, result, state):
    simulator, before = state
    designs, _evaluations = result
    return {"designs": len(designs), "new": simulator.num_simulations - before}


def _incremental_outcome(args, kwargs, result, state):
    stats = kwargs.get("stats")
    graphs = args[1]
    return {
        "designs": len(graphs),
        "nodes": sum(graph.node_count() for graph in graphs),
        "cone_hits": stats.cone_hits if stats is not None else 0,
        "full_fallbacks": stats.full_fallbacks if stats is not None else 0,
    }


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.baselines.bo as bo
    import repro.baselines.ga as ga
    import repro.core.algorithm as algorithm
    import repro.core.vae as vae
    import repro.opt.simulator as simulator
    import repro.prefix.encoding as encoding
    from repro.api.rundir import RunCellWriter
    from repro.baselines.gp import GaussianProcess
    from repro.circuits.task import CircuitTask
    from repro.engine.cache import EvaluationCache
    from repro.engine.service import EngineSimulator, EvaluationEngine

    wrap = recorder.wrap
    for cls in (algorithm.CircuitVAEOptimizer, ga.GeneticAlgorithm, bo.LatentBO):
        wrap(cls, "run", "api.cell")

    # core: training, latent search, decode.
    epochs = _count("epochs", lambda a, k, stats: stats.epochs_run)
    for module in (algorithm, bo):
        wrap(module, "train_model", "core.train_model", after=epochs)
        wrap(module, "decode_and_query", "core.decode",
             enter=_sims_before, after=_decode_outcome)
    wrap(algorithm, "latent_gradient_search", "core.latent_gradient_search")
    wrap(vae.CircuitVAEModel, "sample_designs", "core.sample_designs",
         after=_count("designs", lambda a, k, designs: len(designs)))
    wrap(vae.CircuitVAEModel, "encode", "core.encode")
    # BO acquisition: GP fit/predict plus the encodes that feed them.
    wrap(bo.LatentBO, "_latents_of_dataset", "baselines.bo.encode")
    wrap(bo.LatentBO, "_candidate_pool", "baselines.bo.encode")
    wrap(GaussianProcess, "fit", "baselines.gp.fit")
    wrap(GaussianProcess, "predict", "baselines.gp.predict")

    # opt + prefix: variation, query planning, legalization.
    wrap(ga, "mutate", "opt.variation")
    wrap(ga, "crossover", "opt.variation")
    wrap(EngineSimulator, "query_plan", "opt.query_plan",
         after=_count("designs", lambda a, k, plan: len(plan)))
    for module in (simulator, encoding, vae):
        wrap(module, "legalize", "prefix.legalize")

    # engine + synth.
    wrap(EvaluationEngine, "evaluate", "engine.evaluate")
    wrap(EvaluationCache, "get_with_origin", "engine.cache.lookup",
         after=_count("hit", lambda a, k, hit: int(hit is not None)))
    wrap(EvaluationCache, "put", "engine.cache.put")
    wrap(CircuitTask, "synthesize", "synth.scalar",
         after=_count("designs", lambda a, k, r: 1))
    wrap(CircuitTask, "evaluate_many", "synth.batched",
         after=_count("designs", lambda a, k, results: len(results)))
    wrap(CircuitTask, "evaluate_population", "synth.incremental",
         after=_incremental_outcome)

    # api: durable history appends.
    wrap(RunCellWriter, "append", "api.rundir.append")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(p50, tail, tail percentile): the tail is the highest of p90, p99
    and p99.9 that still has at least ten samples beyond it (p50 when
    none has)."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)

    def at(pct: float) -> float:
        return ordered[min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))]

    tail_pct = 50.0
    for pct in (90.0, 99.0, 99.9):
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            tail_pct = pct
    return at(50.0), at(tail_pct), tail_pct


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    spans: List[Dict[str, Any]],
    telemetry: Dict[str, Any],
    wall: float,
    parallel_seeds: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced experiment (``obs.trace_overhead``
    is filled in by the caller, which also has the untraced wall)."""
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    own = self_seconds(spans)

    def seconds(name: str) -> float:
        return sum(duration(s) for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    out: Dict[str, float] = {}
    train_s, epochs = seconds("core.train_model"), attr("core.train_model", "epochs")
    out["core.train_model.s"] = train_s
    out["core.train_model.calls"] = count("core.train_model")
    out["core.train_model.epochs"] = epochs
    out["core.train_model.s_per_epoch"] = _ratio(train_s, epochs)
    out["core.latent_gradient_search.s"] = seconds("core.latent_gradient_search")
    out["core.sample_designs.s"] = seconds("core.sample_designs")
    out["core.sample_designs.designs"] = attr("core.sample_designs", "designs")
    out["core.decode.new_ratio"] = _ratio(
        attr("core.decode", "new"), attr("core.decode", "designs")
    )
    out["core.encode.s"] = seconds("core.encode")

    for counter, metric in _COUNTERS.items():
        out[metric] = telemetry.get(counter, 0)
    kernels = {"conv2d": 0.0, "conv_transpose2d": 0.0, "matmul": 0.0, "other": 0.0}
    for stage, value in telemetry.get("stage_seconds", {}).items():
        if stage.startswith("train_kernel:"):
            op = stage.rsplit(":", 1)[1]
            kernels[op if op in kernels else "other"] += value
    for op, value in kernels.items():
        out[f"nn.kernel.{op}_s"] = value

    out["baselines.gp.fit_s"] = seconds("baselines.gp.fit")
    out["baselines.gp.predict_s"] = seconds("baselines.gp.predict")

    out["opt.variation.s"] = seconds("opt.variation")
    out["opt.variation.calls"] = count("opt.variation")
    out["opt.query_plan.calls"] = count("opt.query_plan")
    out["opt.query_plan.designs"] = attr("opt.query_plan", "designs")

    legalize = [duration(s) for s in by_name.get("prefix.legalize", ())]
    p50, tail, tail_pct = percentiles(legalize)
    out["prefix.legalize.s"] = sum(legalize)
    out["prefix.legalize.calls"] = len(legalize)
    out["prefix.legalize.p50_us"] = p50 * 1e6
    out["prefix.legalize.tail_us"] = tail * 1e6
    out["prefix.legalize.tail_pct"] = tail_pct

    out["engine.evaluate.self_s"] = sum(
        own[s["id"]] for s in by_name.get("engine.evaluate", ())
    )
    out["engine.cache.lookup_s"] = seconds("engine.cache.lookup")
    out["engine.cache.put_s"] = seconds("engine.cache.put")
    out["engine.cache.hit_ratio"] = _ratio(
        attr("engine.cache.lookup", "hit"), count("engine.cache.lookup")
    )

    scalar = [duration(s) for s in by_name.get("synth.scalar", ())]
    p50, tail, tail_pct = percentiles(scalar)
    out["synth.scalar.s"] = sum(scalar)
    out["synth.scalar.designs"] = len(scalar)
    out["synth.scalar.p50_ms"] = p50 * 1e3
    out["synth.scalar.tail_ms"] = tail * 1e3
    out["synth.scalar.tail_pct"] = tail_pct
    out["synth.batched.s"] = seconds("synth.batched")
    out["synth.batched.designs"] = attr("synth.batched", "designs")
    designs = attr("synth.incremental", "designs")
    out["synth.incremental.s"] = seconds("synth.incremental")
    out["synth.incremental.designs"] = designs
    out["synth.incremental.cone_hit_ratio"] = _ratio(
        attr("synth.incremental", "cone_hits"), attr("synth.incremental", "nodes")
    )
    out["synth.incremental.fallback_ratio"] = _ratio(
        attr("synth.incremental", "full_fallbacks"), designs
    )

    cells = [duration(s) for s in by_name.get("api.cell", ())]
    out["api.cell_s"] = percentiles(cells)[0]
    out["api.parallel_efficiency"] = _ratio(sum(cells), wall * parallel_seeds)
    out["api.rundir.append_s"] = seconds("api.rundir.append")
    out["api.rundir.appends"] = count("api.rundir.append")

    out["obs.trace_overhead"] = 0.0
    cell_self = sum(own[s["id"]] for s in by_name.get("api.cell", ()))
    out["obs.coverage"] = 1.0 - _ratio(cell_self, sum(cells)) if cells else 0.0
    stages = telemetry.get("stage_seconds", {})
    for stage, names in STAGE_SPANS.items():
        bench = sum(seconds(name) for name in names)
        out[f"obs.stage_ratio.{stage}"] = _ratio(bench, stages.get(stage, 0.0))
    return out
