"""Typed events a running experiment emits to its ``on_event`` observer.

An experiment is observable while it runs: every event below is
emitted at a well-defined boundary and carries plain data, so an
observer — the CLI's ``--progress`` printer, an early-stop policy, a
test — can fold the events however it likes.  Events arrive in causal
order per (method, seed) cell; with ``parallel_seeds > 1`` the cells
interleave.

The events of one run are always shaped::

    ExperimentStarted
      SeedStarted            (per unfinished cell)
        EvaluationDone       (per unique simulation, at the simulator
                              query boundary; in a durable run the
                              cell's history line is already on disk)
      SeedFinished           (per cell — also for ledger-served cells,
                              with resumed=True and no SeedStarted)

The outcome is what :meth:`repro.api.Session.run` returns or raises; a
durable run also records it in ``run.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # annotations only: events stay plain data at runtime
    from ..opt.results import RunRecord
    from .spec import ExperimentSpec

__all__ = [
    "RunEvent",
    "ExperimentStarted",
    "SeedStarted",
    "EvaluationDone",
    "SeedFinished",
]


@dataclass(frozen=True)
class RunEvent:
    """Base class of everything a run emits."""


@dataclass(frozen=True)
class ExperimentStarted(RunEvent):
    """The run is set up; the grid is about to execute."""

    run_id: str
    #: the durable run directory, or None for an in-memory run.
    run_dir: Optional[str]
    spec: "ExperimentSpec"
    #: method display names, in execution order.
    methods: Tuple[str, ...]
    seeds: Tuple[int, ...]
    #: True when this run continues a previous run directory.
    resumed: bool = False
    #: the run's ``trace.jsonl`` when tracing is active, else None
    #: (in-memory runs, ``REPRO_TRACE=0``).
    trace_path: Optional[str] = None


@dataclass(frozen=True)
class SeedStarted(RunEvent):
    """One (method, seed) cell is about to run its algorithm."""

    method: str
    seed: int
    #: evaluations primed from the cell's recorded history (resume
    #: replay); 0 on a fresh run.
    replayed: int = 0


@dataclass(frozen=True)
class EvaluationDone(RunEvent):
    """One unique simulation finished (the paper's unit of budget).

    With a run directory, the cell's history line for this evaluation
    is durable before the event is emitted: interrupting (or killing)
    the run after it loses nothing up to and including this evaluation,
    and resume replays it without new synthesis.
    """

    method: str
    seed: int
    #: 1-based position in the cell's history (== budget consumed).
    sim_index: int
    cost: float
    area_um2: float
    delay_ns: float
    #: running minimum cost for this cell, this evaluation included.
    best_cost: float


@dataclass(frozen=True)
class SeedFinished(RunEvent):
    """One (method, seed) cell completed with a final record."""

    method: str
    seed: int
    record: "RunRecord"
    #: True when the record was served from the run directory's
    #: completion ledger (the cell finished in a previous attempt).
    resumed: bool = False

