"""Engine microbench: batched/parallel/persistent evaluation throughput.

Not a paper figure — this measures the `repro.engine` subsystem itself on
cold and warm batches of unique legalized designs:

* **cold serial** — plain ``CircuitSimulator``, one synthesis at a time;
* **cold pooled** — ``EngineSimulator`` with a 4-worker synthesis pool
  plus the vectorized population fast path (the acceptance target is
  >= 2x wall-clock whenever the host has >= 2 cores; single-core hosts
  report the speedup line for the record rather than asserting it);
* **warm disk** — a *fresh* engine pointed at the first engine's cache
  directory: every design must be served from disk with zero new
  synthesis calls.

Correctness (identical evaluations in all three modes) is asserted here
and, independently, in ``tests/test_engine.py``.
"""

import os
import tempfile
import time

import numpy as np

from repro.circuits import adder_task
from repro.engine import EvaluationEngine
from repro.opt import CircuitSimulator
from repro.prefix import unique_random_graphs

from common import BITWIDTHS, once

WORKERS = 4
BATCH = 64


def run_throughput():
    n = max(BITWIDTHS)
    task = adder_task(n, 0.66)
    rng = np.random.default_rng(7)
    graphs = unique_random_graphs(n, BATCH, rng, density_low=0.15, density_high=0.65)

    serial_sim = CircuitSimulator(task, budget=None)
    start = time.perf_counter()
    serial = serial_sim.query_many(graphs)
    serial_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-engine-bench-") as cache_dir:
        with EvaluationEngine(cache_dir=cache_dir, workers=WORKERS) as engine:
            pooled_sim = engine.simulator(task)
            start = time.perf_counter()
            pooled = pooled_sim.query_many(graphs)
            pooled_s = time.perf_counter() - start

        # Fresh engine + fresh simulator on the same cache dir: warm disk.
        with EvaluationEngine(cache_dir=cache_dir, workers=1) as engine:
            warm_sim = engine.simulator(task)
            start = time.perf_counter()
            warm = warm_sim.query_many(graphs)
            warm_s = time.perf_counter() - start
            warm_synth_calls = warm_sim.telemetry.synth_calls

    for a, b in zip(serial, pooled):
        assert a.cost == b.cost and a.sim_index == b.sim_index
    for a, b in zip(serial, warm):
        assert a.cost == b.cost and a.sim_index == b.sim_index
    assert warm_synth_calls == 0, "warm disk cache must perform no synthesis"

    return {
        "n": n,
        "batch": BATCH,
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "warm_s": warm_s,
        "pooled_speedup": serial_s / pooled_s,
        "warm_speedup": serial_s / warm_s,
        "cpus": os.cpu_count() or 1,
    }


def test_engine_throughput(benchmark):
    stats = once(benchmark, run_throughput)
    print()
    print(
        f"engine throughput: n={stats['n']} batch={stats['batch']} "
        f"({stats['cpus']} CPUs, {WORKERS} workers)"
    )
    print(f"  cold serial      {stats['serial_s'] * 1000:8.1f} ms")
    print(
        f"  cold pooled      {stats['pooled_s'] * 1000:8.1f} ms "
        f"({stats['pooled_speedup']:.2f}x)"
    )
    print(
        f"  warm disk cache  {stats['warm_s'] * 1000:8.1f} ms "
        f"({stats['warm_speedup']:.2f}x, 0 synthesis calls)"
    )
    # The warm cache always wins big; that is hardware-independent.
    assert stats["warm_speedup"] > 2.0
    # The engine fast path (vectorized batches + worker pool) must beat
    # the serial loop on any multi-core host, so the gate arms when the
    # machine has >= 2 CPUs.
    if stats["cpus"] >= 2:
        assert stats["pooled_speedup"] >= 2.0, stats
