"""End-to-end benchmark of paper experiment cells, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload vae_adder32 --seed 0 --seconds 36 --trace 0

Each workload (see ``workloads.py``) is one experiment spec run through
``repro.api`` (``ExperimentSpec`` -> ``Session.run``).  The benchmark
repeats it for ``--seconds``, each time in a fresh process (``cell.py``) with a fresh
cache and run directory and an environment cleared of every inherited
``REPRO_*`` knob, then reports medians.

``--trace 0`` prints the end-to-end metrics: ``sims_per_s``, ``cpu_s``,
``best_cost``, ``peak_rss_mb`` and ``setup_s``, with the cells that
failed their output check counted against the cells attempted.
``--trace 1`` alternates untraced and traced repeats and prints the
per-layer metrics of ``layers.py`` instead, including the traced run's
overhead.  The last line of output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` also requires every repeat to produce the same records
digest.  The script exits 2, printing no result, when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = (
    ("sims_per_s", "1/s"),
    ("cpu_s", "s"),
    ("best_cost", "cost"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
#: No repeat starts once the run could no longer finish inside this many
#: seconds (a run must end within 180).
HARD_LIMIT_S = 150.0


def cell_env(tmp: str, trace: bool) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = tmp
    env["REPRO_TRACE"] = "0"  # no program-side trace files in durable runs
    if trace:
        env["REPRO_PROFILE"] = "1"  # the per-kernel training ledger
    return env


def run_cell(workload: str, seed: int, trace: bool, tmp_root: str, timeout: float) -> Dict[str, Any]:
    """One experiment in a fresh process; its result, or a failure record."""
    tmp = tempfile.mkdtemp(dir=tmp_root)
    out = os.path.join(tmp, "result.json")
    command = [
        sys.executable, str(HERE / "cell.py"),
        "--workload", workload, "--seed", str(seed),
        "--tmp", tmp, "--out", out, "--start", repr(time.time()),
    ] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=cell_env(tmp, trace), timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "traced": trace}
    if proc.returncode != 0 or not os.path.exists(out):
        return {"error": proc.stderr[-2000:] or f"exit code {proc.returncode}", "traced": trace}
    with open(out) as handle:
        result = json.load(handle)
    result["traced"] = trace
    result["spans"] = os.path.join(tmp, "spans.jsonl")
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp_root: str) -> List[Dict[str, Any]]:
    """Repeat the experiment for ``seconds`` (at least once).

    A round starts only if a round of the average length so far still
    fits.  With ``trace`` every round runs one untraced and one traced
    repeat, alternating which goes first.
    """
    start = time.perf_counter()
    repeats: List[Dict[str, Any]] = []
    rounds = 0
    while True:
        kinds = [False] if not trace else [False, True][:: 1 if rounds % 2 == 0 else -1]
        for traced in kinds:
            left = HARD_LIMIT_S + 20 - (time.perf_counter() - start)
            repeats.append(run_cell(workload, seed, traced, tmp_root, max(left, 1.0)))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > min(seconds, HARD_LIMIT_S):
            return repeats


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(repeats: List[Dict[str, Any]], trace: bool) -> Dict[str, float]:
    ok = [r for r in repeats if "error" not in r and "wall_s" in r]
    plain = [r for r in ok if not r["traced"]]
    if not trace:
        return {
            "sims_per_s": _median([r["sims"] / r["wall_s"] for r in plain]),
            "cpu_s": _median([r["cpu_s"] for r in plain]),
            "best_cost": _median([r["best_cost"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "setup_s": _median([r["setup_s"] for r in ok]),
        }
    traced = [r for r in ok if r["traced"]]
    metrics = {
        name: _median([r["layers"][name] for r in traced]) for name, _unit in PER_LAYER
    }
    untraced_wall = _median([r["wall_s"] for r in plain])
    if traced and untraced_wall:
        metrics["obs.trace_overhead"] = (
            _median([r["wall_s"] for r in traced]) / untraced_wall - 1.0
        )
    return metrics


def report(workload: str, seed: int, trace: bool, repeats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Print the human-readable report; return the result object."""
    attempted = failed = 0
    digests = set()
    for r in repeats:
        cells = r.get("cells", WORKLOADS[workload].cells)
        attempted += cells
        failed += r.get("failed", cells)
        if "digest" in r:
            digests.add(r["digest"])
        for problem in r.get("problems", []) + ([r["error"]] if "error" in r else []):
            print(f"cell failure ({'traced' if r['traced'] else 'untraced'}): {problem}", file=sys.stderr)
    metrics = summarize(repeats, trace)
    units = dict(PER_LAYER if trace else END_TO_END)

    env = next((r["env"] for r in repeats if "env" in r), {})
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  repeats {len(repeats)}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("records digest " + (" ".join(sorted(digests)) or "-"))
    for i, r in enumerate(repeats, 1):
        if "wall_s" in r:
            print(
                f"  repeat {i}{' traced' if r['traced'] else ''}: wall {r['wall_s']:.3f} s"
                f"  cpu {r['cpu_s']:.3f} s  setup {r['setup_s']:.3f} s"
                f"  sims {r['sims']}  best {r['best_cost']:.6f}"
            )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  cells_failed/cells_attempted            {failed}/{attempted}")
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def keep_spans(workload: str, seed: int, repeats: List[Dict[str, Any]]) -> None:
    """Copy the last traced repeat's spans to ``.perfbench_out/``."""
    for r in reversed(repeats):
        if r.get("traced") and os.path.exists(r.get("spans", "")):
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            target = out / f"{workload}-seed{seed}.spans.jsonl"
            shutil.copyfile(r["spans"], target)
            print(f"spans of the last traced repeat: {target.relative_to(ROOT)}")
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to run", file=sys.stderr)
        return 2

    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=tmp_parent)
    try:
        trace = bool(args.trace)
        repeats = measure(args.workload, args.seed, args.seconds, trace, tmp_root)
        if trace:
            keep_spans(args.workload, args.seed, repeats)
        result = report(args.workload, args.seed, trace, repeats)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
