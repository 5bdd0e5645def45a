"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 perfbench/steady.py --workload bo_adder16_par2 --seeds 0-4
    python3 perfbench/steady.py --seeds 0-9 --twice 0   # every workload
    python3 perfbench/steady.py --seeds 0               # one run of each

For each workload it runs ``BENCHMARK.json``'s command once per seed
(``--trace 0``, ``run_seconds`` from the file), then prints, per
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median`` next to the metric's bound.  A
spread above a third of the bound is flagged; ``setup_s`` is judged by
its median alone.  ``--twice S`` reruns seed ``S`` and requires its
records digest to be identical (as it must be for every run of one
commit).  Exits 1 when a run is incorrect, a digest differs, or a spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(bench: Dict, workload: str, seed: int) -> Tuple[Dict, str]:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("records digest")), "-")
    return json.loads(lines[-1]), digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--twice", type=int, help="rerun this seed; digests must match")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        values: Dict[str, List[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        digests: Dict[int, str] = {}
        seeds = seed_range(args.seeds)
        for seed in seeds + ([args.twice] if args.twice is not None else []):
            result, digest = run_once(bench, workload, seed)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} digest={digest[:16]} "
                  + " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
            bad |= not result["correct"]
            if seed in digests and digests[seed] != digest:
                print(f"  digest of seed {seed} differs between runs")
                bad = True
            digests.setdefault(seed, digest)
            if len(values["setup_s"]) < len(seeds):
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
        if len(seeds) < 2:
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, bad = "  OVER BOUND", True
            elif name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3"
            print(f"  {name:12s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
