"""Microbench: vectorized population evaluation vs the scalar loop.

Measures the PR-3 fast path (:mod:`repro.synth.batched`, surfaced as
``CircuitTask.evaluate_many``) against the reference per-graph
``task.synthesize`` loop on one population of unique legalized designs,
asserts the two are **bit-identical** on every ``PhysicalResult`` field,
and writes a ``BENCH_batched_eval.json`` throughput record (consumed by
the CI perf-smoke job, which uploads it as an artifact).  The record also
carries batch-of-one costs (``b1_scalar_ms`` / ``b1_batched_ms``: one
design per call through each flow, on the same graphs, bit-identity
asserted) — the number that decides whether single queries can take the
batched flow too.

Environment knobs:

* ``REPRO_BENCH_POPULATION`` — population size (default 64).  The >= 3x
  speedup gate only applies at populations of 64+; CI's perf-smoke job
  runs a tiny population where only bit-identity is asserted.
* ``REPRO_BENCH_ASSERT_SPEEDUP=0`` — disable the speedup gate (the
  record is still written).
"""

import json
import os
import time

import numpy as np

from repro.circuits import adder_task
from repro.prefix import unique_random_graphs

from _record import record_path, write_record
from common import BITWIDTHS, once

POPULATION = int(os.environ.get("REPRO_BENCH_POPULATION", "64"))
OUT_PATH = record_path("batched_eval")
ROUNDS = 3
SPEEDUP_TARGET = 3.0
SPEEDUP_MIN_POPULATION = 64


def _assert_identical(scalar, batched):
    assert len(scalar) == len(batched)
    for i, (a, b) in enumerate(zip(scalar, batched)):
        assert a.area_um2 == b.area_um2, (i, a.area_um2, b.area_um2)
        assert a.delay_ns == b.delay_ns, (i, a.delay_ns, b.delay_ns)
        assert a.num_gates == b.num_gates, i
        assert a.num_buffers == b.num_buffers, i
        assert a.wirelength_um == b.wirelength_um, i
        assert a.cell_counts == b.cell_counts, i
        assert a.critical_output == b.critical_output, i


def run_batched_eval():
    n = max(BITWIDTHS)
    task = adder_task(n, 0.66)
    rng = np.random.default_rng(7)
    graphs = unique_random_graphs(
        n, POPULATION, rng, density_low=0.15, density_high=0.65
    )

    # Warm both paths (imports, library tables, allocator pools), then
    # time best-of-rounds: steady-state throughput is the quantity the
    # engine actually delivers over a run's many generations.
    task.synthesize(graphs[0])
    task.evaluate_many(graphs)

    scalar_s = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        scalar = [task.synthesize(graph) for graph in graphs]
        scalar_s = min(scalar_s, time.perf_counter() - start)

    batched_s = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        batched = task.evaluate_many(graphs)
        batched_s = min(batched_s, time.perf_counter() - start)

    _assert_identical(scalar, batched)

    # Batch of one: the same graphs, one design per synthesize_many call
    # (the scalar loop above is already one design per call).
    b1_batched_s = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        single = [task.evaluate_many([graph])[0] for graph in graphs]
        b1_batched_s = min(b1_batched_s, time.perf_counter() - start)
    _assert_identical(scalar, single)

    stats = {
        "n": n,
        "population": POPULATION,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
        "scalar_graphs_per_s": POPULATION / scalar_s,
        "batched_graphs_per_s": POPULATION / batched_s,
        "b1_scalar_ms": scalar_s * 1000 / POPULATION,
        "b1_batched_ms": b1_batched_s * 1000 / POPULATION,
        "bit_identical": True,
        "cpus": os.cpu_count() or 1,
    }
    write_record("batched_eval", stats)
    return stats


def test_batched_eval(benchmark):
    stats = once(benchmark, run_batched_eval)
    print()
    print(
        f"batched evaluation: n={stats['n']} population={stats['population']} "
        f"({stats['cpus']} CPUs)"
    )
    print(
        f"  scalar loop   {stats['scalar_s'] * 1000:8.1f} ms "
        f"({stats['scalar_graphs_per_s']:.0f} graphs/s)"
    )
    print(
        f"  vectorized    {stats['batched_s'] * 1000:8.1f} ms "
        f"({stats['batched_graphs_per_s']:.0f} graphs/s, {stats['speedup']:.2f}x)"
    )
    print(
        f"  batch of one  {stats['b1_batched_ms']:8.1f} ms/design "
        f"(scalar {stats['b1_scalar_ms']:.1f} ms/design)"
    )
    print(f"  record -> {OUT_PATH}")
    # Bit-identity always holds (asserted inside run_batched_eval); the
    # throughput gate applies at population scale, where packing
    # overhead is amortized.
    if (
        POPULATION >= SPEEDUP_MIN_POPULATION
        and os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP") != "0"
    ):
        assert stats["speedup"] >= SPEEDUP_TARGET, stats
