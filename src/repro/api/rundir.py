"""Durable run directories: the on-disk form of a running experiment.

A run directory makes a long (method x seed) grid crash-safe and
resumable.  Layout::

    <run_dir>/
        spec.json                     the ExperimentSpec (atomic)
        run.json                      {format, run_id, status} (atomic)
        lock.json                     {pid} of the executing process
                                      (atomic; removed when the run settles)
        records.json                  final combined records (atomic)
        trace.jsonl                   span stream (appended + flushed per
                                      span; absent with REPRO_TRACE=0)
        cells/<method>--seed<N>/
            meta.json                 {method, seed} (human-readable)
            history.jsonl             evaluation trail, appended + flushed
                                      after every simulator query
            record.json               final RunRecord = completion ledger
            train/                    per-round training checkpoints of
                                      model-based methods (atomic pairs)

Design notes
------------
* **Everything single-shot is atomic** (temp + rename via
  :mod:`repro.utils.io`); the only incrementally-written files are the
  history JSONLs, whose readers tolerate a truncated final line.  A
  running cell keeps its trail open in one handle, flushed per line.
* **The history is the whole correctness checkpoint.**  Every registered
  method is deterministic given (seed, evaluation history), so resume
  re-runs the algorithm from its seed while the recorded evaluations are
  served from a warm cache — bit-identical, with zero new synthesis for
  anything already recorded.  The budget state is likewise implied:
  evaluations recorded = budget consumed.  ``train/`` holds model,
  optimizer and rng state (:mod:`repro.core.training`), but only so a
  resume can skip re-training: deleting it changes wall-clock, never
  records.
* **record.json is the completion ledger.**  Its presence marks a cell
  finished; resume serves such cells straight from disk.  An interrupted
  cell has history lines but no record, and is the only kind of cell a
  resume actually re-runs.
* **The trail is append-only.**  When a cell restarts, its
  ``history.jsonl`` is atomically rewritten to its contiguous recorded
  prefix (``sim_index`` 1..k, dropping a truncated tail) and the replay
  appends past it: re-derived evaluations with ``sim_index <= k`` are
  already on disk and are not written again.  The file never shrinks
  below what was recorded, so a resume that itself dies mid-replay
  loses nothing, however often it happens.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from typing import Dict, List, Optional

from ..opt.records_io import (
    evaluation_to_dict,
    load_evaluations,
    load_records,
    save_records,
)
from ..opt.results import RunRecord
from ..opt.simulator import Evaluation
from ..utils.io import atomic_write_json, atomic_write_text
from ..utils.locks import pid_alive, read_lock_pid, warn_stale_lock
from .spec import ExperimentSpec

__all__ = ["RunDirectory", "RunCellWriter"]

_RUN_FORMAT = 1

#: run.json status values, in lifecycle order.
STATUSES = ("created", "running", "finished", "interrupted", "failed")


def _cell_slug(method: str) -> str:
    """Filesystem-safe cell directory stem for a method display name.

    Sanitized names get a short content hash appended so two labels that
    sanitize identically ("GA 1" / "GA_1") can never share a directory.
    """
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in method)
    if safe != method or not safe:
        digest = hashlib.sha1(method.encode("utf-8")).hexdigest()[:8]
        safe = f"{safe or 'method'}-{digest}"
    return safe


class RunDirectory:
    """One experiment's durable home; see the module docstring for layout."""

    SPEC_FILE = "spec.json"
    RUN_FILE = "run.json"
    RECORDS_FILE = "records.json"
    CELLS_DIR = "cells"
    TRACE_FILE = "trace.jsonl"

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        self._spec: Optional[ExperimentSpec] = None

    # ------------------------------------------------------------------
    # Creation / opening
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str, spec: ExperimentSpec) -> "RunDirectory":
        """Initialize a fresh run directory for ``spec``.

        Refuses a directory that already holds a run (resume it
        instead).  ``run.json`` is written last, so a half-created
        directory (crash between the writes) is simply re-created.
        """
        run_dir = cls(path)
        if os.path.exists(run_dir._run_path()):
            raise ValueError(
                f"{run_dir.path} already holds a run; resume it with "
                "Session.resume / --resume instead of starting over"
            )
        os.makedirs(os.path.join(run_dir.path, cls.CELLS_DIR), exist_ok=True)
        atomic_write_text(run_dir._spec_path(), spec.to_json() + "\n")
        atomic_write_json(
            run_dir._run_path(),
            {
                "format": _RUN_FORMAT,
                "run_id": f"run-{uuid.uuid4().hex[:12]}",
                "status": "created",
            },
            indent=2,
        )
        run_dir._spec = spec
        return run_dir

    @classmethod
    def open(cls, path: str) -> "RunDirectory":
        """Attach to an existing run directory, validating its metadata."""
        run_dir = cls(path)
        if not os.path.exists(run_dir._run_path()):
            raise ValueError(f"{run_dir.path} is not a run directory (no run.json)")
        meta = run_dir._run_meta()
        if meta.get("format") != _RUN_FORMAT:
            raise ValueError(
                f"unsupported run-directory format {meta.get('format')!r} "
                f"in {run_dir.path}"
            )
        run_dir.spec()  # validates spec.json eagerly
        return run_dir

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _spec_path(self) -> str:
        return os.path.join(self.path, self.SPEC_FILE)

    def _run_path(self) -> str:
        return os.path.join(self.path, self.RUN_FILE)

    def records_path(self) -> str:
        return os.path.join(self.path, self.RECORDS_FILE)

    def trace_path(self) -> str:
        """The run's span stream (``trace.jsonl``; appended + flushed by
        the active :class:`~repro.obs.sink.TraceSink`, may not exist for
        runs executed with ``REPRO_TRACE=0``)."""
        return os.path.join(self.path, self.TRACE_FILE)

    def _lock_path(self) -> str:
        return os.path.join(self.path, "lock.json")

    def acquire_lock(self) -> None:
        """Advisory single-writer guard for the execution lifetime.

        Two live processes appending to the same cell trails would
        silently lose each other's evaluations, so run/resume refuse
        a directory whose lock names a still-running process.  A stale
        lock (dead pid — e.g. the SIGKILLed run a resume is exactly
        for — or an unreadable file) is stolen with a
        :class:`RuntimeWarning` naming the dead pid, so the operator
        learns that a previous execution died uncleanly.  Advisory only:
        a pathological simultaneous acquire can still race, but the
        realistic double-resume mistake is caught.
        """
        path = self._lock_path()
        if os.path.exists(path):
            pid = read_lock_pid(path)
            if pid is not None and pid_alive(pid):
                raise ValueError(
                    f"{self.path} is already being executed by live process "
                    f"{pid}; interrupt it (or wait) before resuming here"
                )
            warn_stale_lock(path, pid)
        atomic_write_json(path, {"pid": os.getpid()}, indent=2)

    def release_lock(self) -> None:
        try:
            os.unlink(self._lock_path())
        except OSError:
            pass

    def _run_meta(self) -> Dict:
        with open(self._run_path()) as handle:
            return json.load(handle)

    def spec(self) -> ExperimentSpec:
        """The stored experiment spec (parsed once, strict validation)."""
        if self._spec is None:
            with open(self._spec_path()) as handle:
                self._spec = ExperimentSpec.from_json(handle.read())
        return self._spec

    @property
    def run_id(self) -> str:
        return str(self._run_meta()["run_id"])

    @property
    def status(self) -> str:
        return str(self._run_meta()["status"])

    def set_status(self, status: str) -> None:
        """Advance run.json's lifecycle status (atomic rewrite)."""
        if status not in STATUSES:
            raise ValueError(f"unknown run status {status!r}; choose from {STATUSES}")
        meta = self._run_meta()
        meta["status"] = status
        atomic_write_json(self._run_path(), meta, indent=2)

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def cell_dir(self, method: str, seed: int) -> str:
        return os.path.join(
            self.path, self.CELLS_DIR, f"{_cell_slug(method)}--seed{seed}"
        )

    def _history_path(self, method: str, seed: int) -> str:
        return os.path.join(self.cell_dir(method, seed), "history.jsonl")

    def _record_path(self, method: str, seed: int) -> str:
        return os.path.join(self.cell_dir(method, seed), "record.json")

    def completed_record(self, method: str, seed: int) -> Optional[RunRecord]:
        """The cell's ledger entry: its final record, or None if unfinished."""
        path = self._record_path(method, seed)
        if not os.path.exists(path):
            return None
        records = load_records(path)
        if len(records) != 1:
            raise ValueError(f"{path} should hold exactly one record")
        return records[0]

    def load_history(self, method: str, seed: int) -> List[Evaluation]:
        """Every evaluation recorded in a cell's trail (empty if none)."""
        path = self._history_path(method, seed)
        return load_evaluations(path) if os.path.exists(path) else []

    # ------------------------------------------------------------------
    # Final records
    # ------------------------------------------------------------------
    def write_final_records(self, records: List[RunRecord]) -> str:
        path = self.records_path()
        save_records(path, records)
        return path

    # ------------------------------------------------------------------
    # Introspection (the CLI `status` subcommand)
    # ------------------------------------------------------------------
    def progress(self) -> List[Dict]:
        """Per-cell state, in spec order.

        Each entry: ``{"method", "seed", "state", "evaluations",
        "best_cost"}`` with state ``done`` (ledgered), ``partial``
        (history but no record — what resume re-runs) or ``pending``.
        """
        spec = self.spec()
        rows: List[Dict] = []
        for method_spec in spec.methods:
            method = method_spec.display_name
            for seed in spec.seed_list():
                record = self.completed_record(method, seed)
                if record is not None:
                    state, count = "done", record.num_simulations
                    best = record.best_cost() if count else None
                else:
                    history = self.load_history(method, seed)
                    count = len(history)
                    best = min((e.cost for e in history), default=None)
                    state = "partial" if count else "pending"
                rows.append(
                    {
                        "method": method,
                        "seed": seed,
                        "state": state,
                        "evaluations": count,
                        "best_cost": best,
                    }
                )
        return rows

    def __repr__(self) -> str:
        return f"RunDirectory({self.path!r})"


def _history_line(evaluation: Evaluation) -> str:
    return json.dumps(evaluation_to_dict(evaluation)) + "\n"


class RunCellWriter:
    """Incremental persistence for one running (method, seed) cell.

    Created when the cell starts (or restarts) running; holds the cell's
    one history handle until :meth:`finish` or :meth:`close`.  A restart
    keeps the trail's contiguous recorded prefix (:attr:`recorded`) and
    the replay appends past it, so the execution layer only ever says
    "this evaluation happened" / "this cell is done".
    """

    def __init__(self, run_dir: RunDirectory, method: str, seed: int) -> None:
        self.run_dir = run_dir
        self.method = method
        self.seed = seed
        self.history_path = run_dir._history_path(method, seed)
        cell = run_dir.cell_dir(method, seed)
        os.makedirs(cell, exist_ok=True)
        meta_path = os.path.join(cell, "meta.json")
        if not os.path.exists(meta_path):
            atomic_write_json(meta_path, {"method": method, "seed": seed}, indent=2)
        #: the evaluations a previous attempt recorded, ``sim_index``
        #: 1..k in order (empty on a first run) — what a resume replays.
        self.recorded: List[Evaluation] = []
        if os.path.exists(self.history_path):
            for evaluation in load_evaluations(self.history_path):
                if evaluation.sim_index != len(self.recorded) + 1:
                    break
                self.recorded.append(evaluation)
            atomic_write_text(
                self.history_path, "".join(map(_history_line, self.recorded))
            )
        self._handle = open(self.history_path, "a")

    def append(self, evaluation: Evaluation) -> None:
        """Durably record one evaluation.

        A replayed evaluation (``sim_index`` within :attr:`recorded`) is
        already on disk and is not written again.
        """
        if evaluation.sim_index > len(self.recorded):
            self._handle.write(_history_line(evaluation))
            self._handle.flush()

    def finish(self, record: RunRecord) -> None:
        """Ledger the cell as complete and close its trail."""
        save_records(self.run_dir._record_path(self.method, self.seed), [record])
        self.close()

    def close(self) -> None:
        self._handle.close()
