"""Typed events streamed by a :class:`~repro.api.handle.RunHandle`.

A submitted experiment is observable while it runs: every event below is
emitted at a well-defined boundary and carries plain data, so any
frontend — the CLI's ``--progress`` printer, a future web dashboard, a
test harness — can fold the stream however it likes.  Events arrive in
causal order per (method, seed) cell; with ``parallel_seeds > 1`` the
cells interleave.

The stream of one run is always shaped::

    ExperimentStarted
      SeedStarted            (per unfinished cell)
        EvaluationDone       (per unique simulation, at the simulator
        Checkpointed          query boundary; Checkpointed only when the
                              run persists to a run directory)
      SeedFinished           (per cell — also for ledger-served cells,
                              with resumed=True and no SeedStarted)
    ExperimentFinished       (status: finished | interrupted | failed)

``EvaluationDone.telemetry_delta`` carries the engine-counter increments
since the cell's previous event (see
:func:`repro.engine.telemetry.snapshot_delta`): whether work was cache
hits or fresh synthesis, and how much wall-clock each stage took.  For
batched submissions the whole batch's counters arrive with its first
evaluation (see the field's doc); event sums are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # imports would cycle: spec/session import the runner
    from ..opt.results import RunRecord
    from .spec import ExperimentSpec

__all__ = [
    "RunEvent",
    "ExperimentStarted",
    "SeedStarted",
    "EvaluationDone",
    "Checkpointed",
    "TrainingRoundFinished",
    "SeedFinished",
    "ExperimentFinished",
]


@dataclass(frozen=True)
class RunEvent:
    """Base class of everything a run stream yields."""


@dataclass(frozen=True)
class ExperimentStarted(RunEvent):
    """The run thread is up; the grid is about to execute."""

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
    """One unique simulation finished (the paper's unit of budget)."""

    method: str
    seed: int
    #: 1-based position in the cell's history (== budget consumed).
    sim_index: int
    cost: float
    area_um2: float
    delay_ns: float
    #: running minimum cost for this cell, this evaluation included.
    best_cost: float
    #: engine-counter increments accrued since the cell's *previous*
    #: event (None when the simulator has no telemetry).  For scalar
    #: queries this is exactly this query's work; batched submissions
    #: (``query_plan``/``query_many``) record their work before any
    #: evaluation is announced, so the whole batch's counters land on
    #: its first ``EvaluationDone`` and the batch's later events carry
    #: empty deltas — sums over events are always exact, per-event
    #: attribution is exact only for scalar queries.
    telemetry_delta: Optional[Dict] = None


@dataclass(frozen=True)
class Checkpointed(RunEvent):
    """The cell's history line for the last evaluation is durable on disk.

    Interrupting (or killing) the run after this event loses nothing up
    to and including that evaluation: resume replays it from the run
    directory without new synthesis.
    """

    method: str
    seed: int
    #: the cell's history JSONL file.
    path: str
    #: total evaluations durable for this cell in the current attempt.
    evaluations: int = 0


@dataclass(frozen=True)
class TrainingRoundFinished(RunEvent):
    """A model-based method (CircuitVAE, latent BO) finished a retrain.

    Emitted between query boundaries, whenever the method's
    ``train_model`` call returns.  ``counters`` carries the compiled
    graph-executor's compile/replay/arena deltas for the round (empty
    for eager training); ``epochs_skipped`` counts epochs restored from
    a durable training checkpoint instead of re-trained (resume).
    """

    method: str
    seed: int
    #: 0-based acquisition-round index within the seed's run.
    round: int
    #: epochs actually trained this round.
    epochs: int
    #: epochs restored from a checkpoint (only on resumed runs).
    epochs_skipped: int
    #: True when the compiled graph executor ran the steps.
    compiled: bool
    #: last-epoch losses: total / reconstruction / kl / cost.
    losses: Dict[str, float]
    #: compiled-step counter deltas (repro.nn.CompileStats keys).
    counters: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class SeedFinished(RunEvent):
    """One (method, seed) cell completed with a final record."""

    method: str
    seed: int
    record: "RunRecord"
    #: True when the record was served from the run directory's
    #: completion ledger (the cell finished in a previous attempt).
    resumed: bool = False


@dataclass(frozen=True)
class ExperimentFinished(RunEvent):
    """Terminal event: exactly one per stream, always the last."""

    run_id: str
    #: ``finished`` | ``interrupted`` | ``failed``.
    status: str
    run_dir: Optional[str] = None
