"""Resume smoke: SIGKILL a live run mid-checkpoint, resume, compare.

The hardest crash the run-directory design must survive is not a polite
``RunInterrupted`` or Ctrl-C but a ``kill -9`` while a seed is mid-write.
This script proves it end to end through the real CLI:

1. run the reference spec to completion in one process (``ref/``);
2. start the same spec in a child process (``killed/``), poll its run
   directory until the CircuitVAE cell's first training checkpoint
   (``cells/<cell>/train/``) is durable, then SIGKILL the child with no
   warning — by then GA and Random are finished and CircuitVAE has
   part of its evaluation history on disk;
3. ``python -m repro run --resume killed/`` in a fresh process;
4. assert the resumed ``records.json`` is bit-identical to the
   uninterrupted reference (costs/areas/delays/graphs — telemetry is
   attribution, not paper semantics, and legitimately differs), that
   every cell's ``history.jsonl`` equals the reference's byte for byte
   (the trail is append-only: a resume appends past the recorded prefix
   and leaves no second trail file behind), and that the resumed
   CircuitVAE cell restored training epochs from the checkpoint instead
   of re-training them.

Exit code 0 = the crash lost nothing.  Used by the CI ``resume-smoke``
job; run locally with ``PYTHONPATH=src python scripts/resume_smoke.py``.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(REPO, "examples", "specs", "fig3-panel.json")) as _handle:
    #: the reduced-scale CircuitVAE params of the checked-in fig3 panel.
    TINY_VAE_PARAMS = json.load(_handle)["methods"][0]["params"]

SPEC = {
    "name": "resume-smoke",
    "task": {"circuit_type": "adder", "n": 8, "delay_weight": 0.66},
    "methods": [
        {"method": "GA", "label": None, "params": {"population_size": 16}},
        {"method": "Random", "label": None, "params": {}},
        {"method": "CircuitVAE", "label": None, "params": TINY_VAE_PARAMS},
    ],
    "budget": 40,
    "num_seeds": 1,
    "base_seed": 0,
    "seeds": None,
    "curve_points": 4,
    "engine": {"cache_dir": None, "workers": None, "parallel_seeds": 1},
}


def cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=env, cwd=REPO, **kwargs
    )


def checkpointed_lines(run_dir):
    """Durable history lines across the run's cells (its checkpoints)."""
    pattern = os.path.join(run_dir, "cells", "*", "history.jsonl")
    total = 0
    for path in glob.glob(pattern):
        with open(path) as handle:
            total += sum(1 for line in handle if line.strip())
    return total


def train_checkpoints(run_dir):
    """Durable training-checkpoint metadata files across the run's cells."""
    return glob.glob(os.path.join(run_dir, "cells", "*", "train", "*.json"))


def history_trails(run_dir):
    """{cell directory name: history.jsonl bytes} across the run's cells."""
    trails = {}
    for path in glob.glob(os.path.join(run_dir, "cells", "*", "history.jsonl")):
        with open(path, "rb") as handle:
            trails[os.path.basename(os.path.dirname(path))] = handle.read()
    return trails


def load_records(records_path):
    with open(records_path) as handle:
        return json.load(handle)["records"]


def essentials(records):
    """Records minus telemetry (attribution differs across attempts)."""
    return [{k: v for k, v in record.items() if k != "telemetry"} for record in records]


def main() -> int:
    # Everything the smoke writes (spec, both run directories, training
    # checkpoints) lives in one temporary directory removed on every exit.
    with tempfile.TemporaryDirectory(prefix="repro-resume-smoke-") as base:
        return smoke(base)


def smoke(base) -> int:
    spec_path = os.path.join(base, "spec.json")
    ref_dir = os.path.join(base, "ref")
    killed_dir = os.path.join(base, "killed")
    with open(spec_path, "w") as handle:
        json.dump(SPEC, handle)

    print("== reference run (uninterrupted)")
    assert cli("run", spec_path, "--out-dir", ref_dir).wait() == 0

    print("== victim run: SIGKILL after the first training checkpoint is durable")
    victim = cli("run", spec_path, "--out-dir", killed_dir)
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            if train_checkpoints(killed_dir) or victim.poll() is not None:
                break
            time.sleep(0.01)
        killed = victim.poll() is None
    finally:
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait()
    if killed:
        print(
            f"   killed with {checkpointed_lines(killed_dir)} durable evaluations "
            f"and {len(train_checkpoints(killed_dir))} training checkpoint(s)"
        )
    else:
        # The run outraced the poll loop; a finished directory still must
        # resume as a clean no-op, so the comparison below stays valid.
        print("   victim finished before the kill; resume degrades to a no-op")

    print("== resume in a fresh process")
    assert cli("run", "--resume", killed_dir).wait() == 0

    reference = load_records(os.path.join(ref_dir, "records.json"))
    resumed = load_records(os.path.join(killed_dir, "records.json"))
    if essentials(reference) != essentials(resumed):
        print("FAIL: resumed records differ from the uninterrupted reference")
        return 1
    trails = history_trails(killed_dir)
    if not trails or trails != history_trails(ref_dir):
        print("FAIL: resumed history trails differ from the reference's")
        return 1
    leftover = glob.glob(os.path.join(killed_dir, "cells", "*", "history.resume.jsonl"))
    if leftover:
        print(f"FAIL: a second trail file was left behind: {leftover}")
        return 1
    (vae,) = [r for r in resumed if r["method"] == "CircuitVAE"]
    skipped = vae["telemetry"]["train_epochs_skipped"]
    if killed and skipped == 0:
        print("FAIL: the resumed CircuitVAE cell re-trained instead of restoring")
        return 1
    print(
        f"OK: {len(resumed)} resumed records and {len(trails)} history trails "
        "bit-identical to the reference; "
        f"CircuitVAE restored {skipped} training epoch(s) from checkpoints"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
