"""Canonical registry of every ``REPRO_*`` environment knob.

This file is the single source of truth: the README env table is
*generated* from it (``python -m repro check --render-env-table``) and
the env-knob lint (:mod:`repro.check.rules`) fails when either drifts —
an ``os.environ`` read of an unregistered ``REPRO_*`` name, a registry
entry nothing reads, or a README table that disagrees row-for-row with
:func:`render_env_table`.

``kill_switch=True`` marks fast-path opt-outs: those knobs must be
claimed by exactly one module-level ``FAST_PATH_CONTRACT`` declaration
(see the fast-path rule), which ties the switch to its reference
fallback and gating bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["KnobDef", "KNOBS", "render_env_table", "table_rows"]


@dataclass(frozen=True)
class KnobDef:
    """One environment knob: name, rendered default, one-line effect."""

    name: str
    default: str
    effect: str
    kill_switch: bool = False


_ALL: Tuple[KnobDef, ...] = (
    KnobDef(
        "REPRO_CACHE_DIR",
        "unset (memory-only)",
        "Directory for the append-only JSONL disk cache; set it to make "
        "repeated bench invocations perform zero new synthesis calls.",
    ),
    KnobDef(
        "REPRO_ENGINE_WORKERS",
        "`1` (serial)",
        "Worker-process count for the synthesis pool.",
    ),
    KnobDef(
        "REPRO_VECTORIZED_EVAL",
        "`1` (on)",
        "`0` disables the vectorized batch fast path (scalar reference "
        "loop everywhere).",
        kill_switch=True,
    ),
    KnobDef(
        "REPRO_COMPILED_TRAIN",
        "`1` (on)",
        "`0` forces VAE training onto the eager define-by-run tape (the "
        "numerical reference).",
        kill_switch=True,
    ),
    KnobDef(
        "REPRO_IR_VERIFY",
        "`0` (off)",
        "`1` runs the GraphProgram IR verifier (`repro.check.ir`) on every "
        "train-step compile; findings abort the compile and training falls "
        "back to the eager tape. Compile-time only — replay cost is "
        "unchanged.",
    ),
    KnobDef(
        "REPRO_TRACE",
        "`1` (on)",
        "`0` disables the hierarchical span trace durable runs write to "
        "`trace.jsonl` (in-memory runs never trace).",
    ),
    KnobDef(
        "REPRO_PROFILE",
        "`0` (off)",
        "`1` wraps compiled train-step replay with per-kernel timers, "
        "surfaced as `train_kernel:*` stage times and spans.",
    ),
    KnobDef(
        "REPRO_SCALE",
        "`small`",
        "`paper` runs benches at full paper scale.",
    ),
    KnobDef(
        "REPRO_BENCH_POPULATION",
        "`64`",
        "Population size for the batched-eval bench; the speedup gate "
        "only arms at 64+.",
    ),
    KnobDef(
        "REPRO_BENCH_TRAIN_EPOCHS",
        "`8`",
        "Timed epochs for the VAE-training bench; the compiled-vs-eager "
        "speedup gate only arms at 4+.",
    ),
    KnobDef(
        "REPRO_BENCH_ASSERT_SPEEDUP",
        "`1` (gate armed)",
        "`0` records throughput ratios without enforcing the >= Nx "
        "speedup gates (noisy shared runners).",
    ),
    KnobDef(
        "REPRO_BENCH_ASSERT_OBS",
        "`0` (off)",
        "`1` additionally gates the *measured* on/off tracing wall-clock "
        "ratio, not just the deterministic off-path estimate.",
    ),
    KnobDef(
        "REPRO_BENCH_OUT",
        "unset (repo root)",
        "Directory the benches write their `BENCH_*.json` records into.",
    ),
)

#: name -> definition, in canonical (README table) order.
KNOBS: Dict[str, KnobDef] = {knob.name: knob for knob in _ALL}


def table_rows() -> List[str]:
    """The README table's data rows, one markdown row per knob."""
    return [
        f"| `{knob.name}` | {knob.default} | {knob.effect} |"
        for knob in _ALL
    ]


def render_env_table() -> str:
    """The full README env-knob table (header included)."""
    return "\n".join(
        ["| Variable | Default | Meaning |", "| --- | --- | --- |"]
        + table_rows()
    )
