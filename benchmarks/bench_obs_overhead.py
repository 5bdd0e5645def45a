"""Microbench: hierarchical tracing must be near-free when off.

The :mod:`repro.obs` tracer is threaded through the engine's hot paths
(every query, every stage timer, every pool job), so its *disabled* cost
is a correctness property, not a tuning detail.  This bench measures it
two ways and writes a ``BENCH_obs_overhead.json`` record (consumed by
the CI perf-smoke job, which uploads it as an artifact):

1. **Off-path estimate (the gate).**  With no tracer active,
   ``trace.span(name)`` is one global ``is None`` check returning a
   shared null span.  We time that call directly, multiply by the span
   count an actual traced run of the same spec produces, and divide by
   the untraced runtime: the fraction of a run the disabled hooks can
   possibly cost.  Asserted ``< 5%`` always — it is a deterministic
   nanoseconds-scale quantity, safe to gate on shared runners.
2. **On/off wall-clock ratio.**  The same tiny spec run durably with
   tracing on (default) vs ``REPRO_TRACE=0``, best-of-rounds.  Recorded
   for the artifact; gated only under ``REPRO_BENCH_ASSERT_OBS=1``
   because whole-run wall-clock on shared CI runners is too noisy for a
   hard threshold.
"""

import json
import os
import shutil
import tempfile
import time

from repro.api import Session, load_spec
from repro.obs import trace
from repro.obs.sink import read_trace

from _record import REPO_ROOT, read_record, record_path, write_record
from common import once

OUT_PATH = record_path("obs_overhead")
ROUNDS = 3
NULL_SPAN_CALLS = 200_000
OVERHEAD_LIMIT = 0.05  # the acceptance gate: < 5% when tracing is off


def _timed_run(session, spec, out_dir=None) -> float:
    start = time.perf_counter()
    session.run(spec, out_dir=out_dir)
    return time.perf_counter() - start


def _null_span_seconds() -> float:
    """Per-call cost of the disabled ``trace.span`` fast path."""
    assert not trace.active(), "microbench requires tracing to be off"
    span = trace.span  # attribute lookup outside the loop, like call sites
    start = time.perf_counter()
    for _ in range(NULL_SPAN_CALLS):
        with span("bench"):
            pass
    return (time.perf_counter() - start) / NULL_SPAN_CALLS


def run_obs_overhead():
    spec = load_spec(os.path.join(REPO_ROOT, "examples", "specs", "tiny.json"))
    saved_env = os.environ.get("REPRO_TRACE")
    tmp = tempfile.mkdtemp(prefix="bench_obs_")
    try:
        with Session() as session:
            _timed_run(session, spec)  # warm caches, imports, pools

            os.environ["REPRO_TRACE"] = "0"
            off_s = min(
                _timed_run(session, spec, out_dir=os.path.join(tmp, f"off{i}"))
                for i in range(ROUNDS)
            )
            os.environ.pop("REPRO_TRACE")
            on_dirs = [os.path.join(tmp, f"on{i}") for i in range(ROUNDS)]
            on_s = min(
                _timed_run(session, spec, out_dir=d) for d in on_dirs
            )
            spans = read_trace(os.path.join(on_dirs[0], "trace.jsonl"))
            assert spans, "traced run produced no spans"

        per_call_s = _null_span_seconds()
        overhead_off = per_call_s * len(spans) / off_s
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_TRACE", None)
        else:
            os.environ["REPRO_TRACE"] = saved_env
        shutil.rmtree(tmp, ignore_errors=True)

    stats = {
        "spec": spec.name,
        "spans": len(spans),
        "null_span_ns": per_call_s * 1e9,
        "untraced_s": off_s,
        "traced_s": on_s,
        "overhead_off_fraction": overhead_off,
        "overhead_on_fraction": on_s / off_s - 1.0,
        "limit": OVERHEAD_LIMIT,
        "cpus": os.cpu_count() or 1,
    }
    write_record("obs_overhead", stats)

    assert overhead_off < OVERHEAD_LIMIT, stats
    return stats


def test_obs_overhead(benchmark):
    stats = once(benchmark, run_obs_overhead)
    print()
    print(f"obs overhead: {stats['spans']} spans over the tiny spec")
    print(
        f"  disabled span call {stats['null_span_ns']:8.1f} ns "
        f"-> {stats['overhead_off_fraction']:.4%} of the untraced run "
        f"(gate < {stats['limit']:.0%})"
    )
    print(
        f"  untraced {stats['untraced_s'] * 1000:8.1f} ms   "
        f"traced {stats['traced_s'] * 1000:8.1f} ms "
        f"({stats['overhead_on_fraction']:+.1%})"
    )
    print(f"  record -> {OUT_PATH}")
    if os.environ.get("REPRO_BENCH_ASSERT_OBS") == "1":
        assert stats["overhead_on_fraction"] < OVERHEAD_LIMIT, stats


if __name__ == "__main__":
    run_obs_overhead()
    print(json.dumps(read_record("obs_overhead"), indent=2))
