"""Microbench: vectorized population evaluation vs the scalar loop.

Measures the PR-3 fast path (:mod:`repro.synth.batched`, surfaced as
``CircuitTask.evaluate_many``) against the reference per-graph
``task.synthesize`` loop on one population of unique legalized designs,
asserts the two are **bit-identical** on every ``PhysicalResult`` field,
and writes one ``BENCH_batched_eval-n<bits>-pop<population>.json``
throughput record per case (the CI perf-smoke job uploads the records of
the cases it runs).  The record also carries batch-of-one costs
(``b1_scalar_ms`` / ``b1_batched_ms``: one design per call through each
flow, on the same graphs, bit-identity asserted) — the number that
decides whether single queries can take the batched flow too.

Cases (pytest ids):

* ``n16-pop64`` — the >= 3x speedup gate arms here, where packing
  overhead is amortized over a population of 64+;
* ``n16-pop12`` — a tiny population, CI's quick smoke;
* ``n64-pop16`` — 64-bit nets outgrow ``max_fanout**2`` sinks, so buffer
  trees take two or more waves.

Bit-identity is asserted in every case.
"""

import os
import time

import numpy as np
import pytest

from repro.circuits import adder_task
from repro.prefix import unique_random_graphs

from _record import write_record
from common import once

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


def run_batched_eval(n, population):
    task = adder_task(n, 0.66)
    rng = np.random.default_rng(7)
    graphs = unique_random_graphs(
        n, population, rng, density_low=0.15, density_high=0.65
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
        "population": population,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
        "scalar_graphs_per_s": population / scalar_s,
        "batched_graphs_per_s": population / batched_s,
        "b1_scalar_ms": scalar_s * 1000 / population,
        "b1_batched_ms": b1_batched_s * 1000 / population,
        "bit_identical": True,
        "cpus": os.cpu_count() or 1,
    }
    return stats, write_record(f"batched_eval-n{n}-pop{population}", stats)


@pytest.mark.parametrize(
    "n, population",
    [(16, 64), (16, 12), (64, 16)],
    ids=["n16-pop64", "n16-pop12", "n64-pop16"],
)
def test_batched_eval(benchmark, n, population):
    stats, path = once(benchmark, lambda: run_batched_eval(n, population))
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
    print(f"  record -> {path}")
    # Bit-identity always holds (asserted inside run_batched_eval); the
    # throughput gate applies at population scale, where packing
    # overhead is amortized.
    if population >= SPEEDUP_MIN_POPULATION:
        assert stats["speedup"] >= SPEEDUP_TARGET, stats
