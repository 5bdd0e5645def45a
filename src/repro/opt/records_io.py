"""Persistence for run records: save experiment traces, reload for analysis.

Long sweeps (the Fig. 3 grid at paper scale is days of simulation) need
their traces on disk so aggregation, plotting and speedup computation can
re-run without re-simulating.  Records serialize to a compact JSON; costs
and metrics round-trip exactly (binary64 via strings is avoided — JSON
floats are binary64 already).

Two granularities live here:

* **record files** (:func:`save_records` / :func:`load_records`) — whole
  finished runs, written atomically (temp file + rename, parents
  created) so a crash mid-save can never corrupt an existing file;
* **evaluation history JSONL** (:func:`evaluation_to_dict` /
  :func:`load_evaluations`) — one line per unique simulation, appended
  and flushed *incrementally while a run is still going* by
  :class:`repro.api.rundir.RunCellWriter`.  This is the durable trail
  run directories checkpoint after every simulator query; a truncated
  final line (writer killed mid-append) is skipped with a
  ``RuntimeWarning`` on load, exactly like the evaluation cache's
  shards.
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, List, Sequence

import numpy as np

from ..prefix.io import graph_from_dict, graph_to_dict
from ..utils.io import atomic_write_json
from .results import RunRecord
from .simulator import Evaluation

__all__ = [
    "save_records",
    "load_records",
    "evaluation_to_dict",
    "evaluation_from_dict",
    "load_evaluations",
]

_FORMAT_VERSION = 1


def _record_to_dict(record: RunRecord) -> Dict:
    payload = {
        "method": record.method,
        "task_name": record.task_name,
        "seed": record.seed,
        "costs": record.costs.tolist(),
        "areas": record.areas.tolist(),
        "delays": record.delays.tolist(),
    }
    if record.telemetry is not None:
        payload["telemetry"] = record.telemetry
    if record.best_graph is not None:
        payload["best_graph"] = graph_to_dict(record.best_graph)
    return payload


def _record_from_dict(payload: Dict) -> RunRecord:
    costs = np.asarray(payload["costs"], dtype=np.float64)
    areas = np.asarray(payload["areas"], dtype=np.float64)
    delays = np.asarray(payload["delays"], dtype=np.float64)
    if not (len(costs) == len(areas) == len(delays)):
        raise ValueError("corrupt record: metric arrays have different lengths")
    return RunRecord(
        method=str(payload["method"]),
        task_name=str(payload["task_name"]),
        seed=int(payload["seed"]),
        costs=costs,
        areas=areas,
        delays=delays,
        telemetry=payload.get("telemetry"),
        best_graph=(
            graph_from_dict(payload["best_graph"])
            if payload.get("best_graph") is not None
            else None
        ),
    )


def save_records(path: str, records: Sequence[RunRecord]) -> None:
    """Write records to a JSON file, atomically (parents created).

    The payload is staged to a temp file in the destination directory
    and renamed into place, so a crash mid-save leaves any previous
    version of the file intact instead of a truncated JSON document.
    """
    payload = {
        "version": _FORMAT_VERSION,
        "records": [_record_to_dict(r) for r in records],
    }
    atomic_write_json(path, payload)


def load_records(path: str) -> List[RunRecord]:
    """Read records back; validates the format version and array shapes."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported records version {payload.get('version')!r}")
    return [_record_from_dict(entry) for entry in payload["records"]]


# ----------------------------------------------------------------------
# Incremental evaluation-history JSONL (the run-directory checkpoint
# trail; see repro.api.rundir).
# ----------------------------------------------------------------------
def evaluation_to_dict(evaluation: Evaluation) -> Dict:
    """One history line: the graph plus every measured field."""
    return {
        "graph": graph_to_dict(evaluation.graph),
        "cost": evaluation.cost,
        "area_um2": evaluation.area_um2,
        "delay_ns": evaluation.delay_ns,
        "sim_index": evaluation.sim_index,
    }


def evaluation_from_dict(payload: Dict) -> Evaluation:
    """Rebuild (and re-validate the graph of) one history line."""
    return Evaluation(
        graph=graph_from_dict(payload["graph"]),
        cost=float(payload["cost"]),
        area_um2=float(payload["area_um2"]),
        delay_ns=float(payload["delay_ns"]),
        sim_index=int(payload["sim_index"]),
    )


def load_evaluations(path: str) -> List[Evaluation]:
    """Read an evaluation-history JSONL; corrupt lines are skipped.

    A truncated or otherwise unparseable line (writer killed mid-append,
    manual edits) is dropped with a ``RuntimeWarning`` instead of taking
    resume down — the evaluation it described is simply re-synthesized.
    """
    evaluations: List[Evaluation] = []
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                evaluations.append(evaluation_from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                warnings.warn(
                    f"skipping corrupt evaluation-history line in {path}: "
                    f"{line[:60]!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return evaluations
