"""Shared-cache smoke: two concurrent runs on one ``--cache-dir``.

Concurrent runs share synthesis results through one evaluation-cache
directory (append-only JSONL shards, :mod:`repro.engine.cache`).  This
script proves that path end to end with real processes:

1. run the reference spec in-process, with no cache directory;
2. run TWO concurrent ``python -m repro run`` processes of the same spec
   on one fresh ``--cache-dir`` and assert both wrote records
   bit-identical to the reference, and that neither warned about a
   corrupt cache line (concurrent appends must never be misread);
3. run the spec a third time on the now-warm directory and assert it
   reports ``0 synthesis calls``.

Exit code 0 = every contract held.  Used by the CI ``shared-cache-smoke``
job; run locally with ``PYTHONPATH=src python scripts/shared_cache_smoke.py``.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.api import ExperimentSpec, Session  # noqa: E402
from repro.opt import load_records  # noqa: E402

SPEC = {
    "name": "shared-cache-smoke",
    "task": {"circuit_type": "adder", "n": 16, "delay_weight": 0.66},
    "methods": [
        {"method": "GA", "label": None, "params": {"population_size": 20}},
    ],
    "budget": 100,
    "num_seeds": 2,
    "base_seed": 0,
    "seeds": None,
    "curve_points": 4,
    "engine": {"cache_dir": None, "workers": None, "parallel_seeds": 1},
}


def start_run(spec_path, out, cache_dir, log_prefix):
    """``repro run`` in a child process; stdout/stderr go to log files."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with open(log_prefix + ".out", "w") as stdout, open(
        log_prefix + ".err", "w"
    ) as stderr:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "run", spec_path,
             "--cache-dir", cache_dir, "--out", out],
            env=env, cwd=REPO, stdout=stdout, stderr=stderr,
        )


def finish(process, log_prefix, label):
    """Wait for a run; return its (stdout, stderr), failing loudly."""
    code = process.wait()
    with open(log_prefix + ".out") as handle:
        stdout = handle.read()
    with open(log_prefix + ".err") as handle:
        stderr = handle.read()
    if code != 0:
        raise SystemExit(f"{label} exited {code}:\n{stdout}\n{stderr}")
    return stdout, stderr


def assert_identical(path, reference_path, label):
    records = load_records(path)
    reference = load_records(reference_path)
    assert len(records) == len(reference), (label, len(records))
    for record, ref in zip(records, reference):
        assert record.method == ref.method and record.seed == ref.seed, label
        assert list(record.costs) == list(ref.costs), (label, record.seed)
        assert list(record.areas) == list(ref.areas), (label, record.seed)
        assert list(record.delays) == list(ref.delays), (label, record.seed)
        assert record.best_graph == ref.best_graph, (label, record.seed)
    print(f"[shared-cache-smoke] {label}: bit-identical to the reference")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(SPEC, handle)
        cache_dir = os.path.join(tmp, "cache")

        # 1. in-process reference, no cache directory anywhere
        os.environ.pop("REPRO_CACHE_DIR", None)
        ref = os.path.join(tmp, "ref.jsonl")
        with Session() as session:
            session.run(ExperimentSpec.from_dict(SPEC)).save(ref)

        # 2. two concurrent runs on one fresh cache directory
        runs = {}
        for label in ("a", "b"):
            prefix = os.path.join(tmp, label)
            out = prefix + ".jsonl"
            runs[label] = (start_run(spec_path, out, cache_dir, prefix), prefix, out)
        for label, (process, prefix, out) in runs.items():
            _, stderr = finish(process, prefix, f"concurrent run {label}")
            assert "corrupt evaluation-cache line" not in stderr, stderr
            assert_identical(out, ref, f"concurrent run {label}")

        # 3. a warm third run synthesizes nothing
        prefix = os.path.join(tmp, "warm")
        process = start_run(spec_path, prefix + ".jsonl", cache_dir, prefix)
        stdout, _ = finish(process, prefix, "warm run")
        assert "engine: 0 synthesis calls" in stdout, stdout
        assert_identical(prefix + ".jsonl", ref, "warm run")
        print("[shared-cache-smoke] warm run: 0 synthesis calls")

    print("[shared-cache-smoke] OK")


if __name__ == "__main__":
    main()
