"""Observability smoke: trace a tiny run end to end, validate, export.

Proves the whole :mod:`repro.obs` pipeline through the real API:

1. run ``examples/specs/tiny.json`` durably (tracing is on by default for
   durable runs), collecting the ``ExperimentStarted.trace_path`` from
   the event stream;
2. read ``trace.jsonl`` back and run :func:`repro.obs.sink.validate_spans`
   — the schema must be clean (required fields, unique span ids, one
   trace id, resolvable parents, ``t1 >= t0``);
3. assert the span tree has exactly one ``experiment`` root whose
   direct children cover >= 95% of its wall-clock (the acceptance
   gate), and that trace-derived stage totals reproduce the run's
   ``stage_seconds`` telemetry within 1%;
4. export the Perfetto/chrome://tracing JSON and load it back;
5. run the same spec under ``Session(workers=2)``, whose GA
   generations reach the synthesis pool, apply checks 2-3 to its trace
   and assert every span was written by this process (pool workers
   record none);
6. re-run with ``REPRO_TRACE=0`` and assert no trace is written.

Exit code 0 = the trace pipeline is sound.  Used by the CI
``obs-smoke`` job; run locally with
``PYTHONPATH=src python scripts/obs_smoke.py [out_dir]``.
"""

import json
import os
import sys
import tempfile

from repro.api import Session, load_spec
from repro.api.events import ExperimentStarted
from repro.obs.report import build_tree, coverage, stage_totals
from repro.obs.sink import export_perfetto, read_trace, validate_spans


TINY_SPEC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "specs", "tiny.json",
)


def main() -> int:
    if len(sys.argv) > 1:
        return smoke(sys.argv[1])
    # Without an output directory, everything the smoke writes lives in
    # one temporary directory removed on every exit.
    with tempfile.TemporaryDirectory(prefix="obs_smoke_") as base:
        return smoke(base)


def traced_run(spec, run_dir, workers=None):
    """Run ``spec`` durably into ``run_dir``; check its trace (schema,
    one well-covered ``experiment`` root, stage totals within 1% of
    telemetry).  Returns ``(spans, coverage, stage count, trace path)``."""
    started = []
    with Session(workers=workers) as session:
        result = session.run(
            spec,
            out_dir=run_dir,
            on_event=lambda e: started.append(e)
            if isinstance(e, ExperimentStarted)
            else None,
        )
    trace_path = os.path.join(run_dir, "trace.jsonl")
    assert started and started[0].trace_path == trace_path, started
    assert result.trace_path == trace_path, result.trace_path
    assert os.path.exists(trace_path), trace_path

    spans = read_trace(trace_path)
    problems = validate_spans(spans)
    assert not problems, problems[:10]

    roots = build_tree(spans)
    experiment_roots = [r for r in roots if r.name == "experiment"]
    assert len(roots) == len(experiment_roots) == 1, [r.name for r in roots]
    root = experiment_roots[0]
    cov = coverage(root)
    assert cov >= 0.95, f"coverage {cov:.3f} < 0.95"

    from_trace = stage_totals(spans)
    from_telemetry = (result.telemetry or {}).get("stage_seconds", {})
    for name, seconds in from_telemetry.items():
        if name.startswith("train_kernel:"):
            continue  # profiling breakdown; spans emitted only per round
        got = from_trace.get(name, 0.0)
        assert abs(got - seconds) <= max(0.01 * seconds, 1e-6), (
            name,
            got,
            seconds,
        )
    return spans, cov, len(from_telemetry), trace_path


def smoke(base) -> int:
    spec = load_spec(TINY_SPEC)
    spans, cov, stages, trace_path = traced_run(spec, os.path.join(base, "traced"))

    perfetto_path = export_perfetto(trace_path)
    with open(perfetto_path) as handle:
        payload = json.load(handle)
    events = payload["traceEvents"]
    assert len(events) == len(spans), (len(events), len(spans))
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)

    pooled, pooled_cov, _, _ = traced_run(
        spec, os.path.join(base, "pooled"), workers=2
    )
    pids = {s["pid"] for s in pooled}
    assert pids == {os.getpid()}, f"spans from pids {sorted(pids)}"

    untraced_dir = os.path.join(base, "untraced")
    os.environ["REPRO_TRACE"] = "0"
    try:
        with Session() as session:
            session.run(spec, out_dir=untraced_dir)
    finally:
        os.environ.pop("REPRO_TRACE")
    assert not os.path.exists(os.path.join(untraced_dir, "trace.jsonl"))

    print(
        f"obs smoke ok: {len(spans)} spans, coverage {cov:.1%}, "
        f"{stages} stage totals reproduced, "
        f"perfetto -> {perfetto_path}; "
        f"workers=2: {len(pooled)} spans, coverage {pooled_cov:.1%}, one pid"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
