"""Shared writer for the ``BENCH_<name>.json`` throughput records.

Every microbench publishes one JSON record that the CI perf-smoke job
uploads as an artifact.  This module gives them a single, atomic way to
do it:

* records land at the **repo root** regardless of the pytest invocation
  directory (CI globs ``BENCH_*.json`` from the workspace root);
* ``REPRO_BENCH_OUT`` names another directory to write them into
  (created if missing);
* the write is atomic (temp file + ``os.replace`` in the destination
  directory), so a record is never observed half-written — benches run
  under ``REPRO_CACHE_DIR`` sharing may be re-invoked while a previous
  record is being consumed.
"""

import json
import os
import tempfile

__all__ = ["record_path", "write_record", "read_record"]

#: benchmarks/ lives directly under the repo root.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record_path(name: str) -> str:
    """Destination for the ``BENCH_<name>.json`` record.

    The record goes into the directory ``REPRO_BENCH_OUT`` names, else
    into the repo root.
    """
    directory = os.environ.get("REPRO_BENCH_OUT") or REPO_ROOT
    return os.path.join(directory, f"BENCH_{name}.json")


def write_record(name: str, stats: dict) -> str:
    """Atomically publish ``stats`` as ``BENCH_<name>.json``; returns the path."""
    path = record_path(name)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".BENCH_{name}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(stats, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_record(name: str) -> dict:
    """Load a previously written record (e.g. for __main__ pretty-print)."""
    with open(record_path(name)) as handle:
        return json.load(handle)
