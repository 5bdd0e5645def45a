"""One experiment of one workload, in a fresh process.

``run.py`` starts this script once per repeat with a cleaned environment
and a private temp directory.  It builds the workload's spec, opens a
:class:`~repro.api.Session`, runs the spec through ``Session.run``,
checks every cell's record and writes one JSON result file::

    python3 perfbench/cell.py --workload ga_adder64 --seed 0 \\
        --start <time.time() before the process was spawned> \\
        --tmp <empty dir> --out result.json [--trace]

With ``--trace`` the layer entry points are wrapped (see ``layers.py``)
and the per-layer metrics are added to the result; the spans are written
next to it as ``spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List


def check_record(task, record, budget: int) -> List[str]:
    """Why one cell's record is wrong (empty when it is right)."""
    import numpy as np
    from repro.prefix.verify import check_adder

    problems = []
    if record.num_simulations != budget:
        problems.append(f"{record.num_simulations} simulations, budget {budget}")
    values = np.concatenate([record.costs, record.areas, record.delays])
    if not np.all(np.isfinite(values)):
        problems.append("non-finite cost, area or delay")
    graph = record.best_graph
    if graph is None:
        return problems + ["no best_graph"]
    if not check_adder(graph, np.random.default_rng(0)):
        problems.append("best_graph does not add correctly")
    result = task.synthesize(graph)
    reference = (task.cost(result), result.area_um2, result.delay_ns)
    if reference != record.best_metrics():
        problems.append(
            f"re-synthesized best {reference} != recorded {record.best_metrics()}"
        )
    return problems


def records_digest(records) -> str:
    """sha256 over every cell's costs, areas and delays, in order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{record.method}/{record.seed}".encode())
        for values in (record.costs, record.areas, record.delays):
            digest.update(values.astype("<f8").tobytes())
    return digest.hexdigest()


def environment() -> Dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _cpu_seconds() -> float:
    """User + system CPU seconds of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(args) -> Dict[str, Any]:
    from workloads import WORKLOADS, build_spec
    from repro.api import Session, build_config

    workload = WORKLOADS[args.workload]
    spec = build_spec(workload, args.seed)
    task = spec.task.to_task()
    for method in spec.methods:
        build_config(method.method, method.params, n=task.n)
    cache_dir = os.path.join(args.tmp, "cache") if workload.durable else None
    run_dir = os.path.join(args.tmp, "run") if workload.durable else None
    session = Session(cache_dir=cache_dir, parallel_seeds=spec.engine.parallel_seeds)
    setup_s = time.time() - args.start

    recorder = None
    if args.trace:
        import layers
        from spans import Recorder

        recorder = Recorder()
        layers.install(recorder)

    cells = len(spec.methods) * len(spec.seed_list())
    out: Dict[str, Any] = {"setup_s": setup_s, "cells": cells, "env": environment()}
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    try:
        result = session.run(spec, out_dir=run_dir)
    except Exception:
        out.update(failed=cells, problems=[traceback.format_exc()])
        return out
    finally:
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        if recorder is not None:
            recorder.enabled = False
        session.close()

    records = result.all_records()
    problems = []
    failed = cells - len(records)
    for record in records:
        found = check_record(task, record, spec.budget)
        failed += bool(found)
        problems += [f"{record.method}/seed{record.seed}: {p}" for p in found]
    out.update(
        failed=failed,
        problems=problems,
        digest=records_digest(records),
        wall_s=wall,
        sims=sum(r.num_simulations for r in records),
        cpu_s=cpu,
        best_cost=statistics.median(r.best_cost() for r in records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        import layers

        out["layers"] = layers.summarize(
            recorder.spans, result.telemetry or {}, wall, spec.engine.parallel_seeds
        )
        recorder.restore()
        recorder.dump(os.path.join(os.path.dirname(args.out), "spans.jsonl"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out = run(args)
    with open(args.out, "w") as handle:
        json.dump(out, handle, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
