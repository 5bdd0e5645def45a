"""``repro.api`` — declarative experiment specs, a method registry, sessions.

The single public entrypoint for running experiments.  The paper's
results are a grid of (task x method x seed x budget) runs; this package
makes each grid cell *data* instead of driver code, so the
``python -m repro`` CLI, CI smoke jobs and library callers submit the
same serializable description and get identical records back:

``spec``
    :class:`TaskSpec` / :class:`MethodSpec` / :class:`EngineSpec` /
    :class:`ExperimentSpec` — frozen dataclasses with strict
    ``to_dict``/``from_dict``/JSON round-trips that reject unknown
    fields, unknown method names and unknown method parameters before
    any synthesis runs.  Defaults mirror the paper's grid.  The
    ``engine`` block (:class:`EngineSpec`) is read by ``repro run``
    only; :meth:`Session.run` ignores it, so library callers pass
    ``workers`` / ``cache_dir`` / ``parallel_seeds`` to
    :class:`Session` itself.
``registry``
    One table maps method names to (config dataclass, algorithm class)
    pairs for CircuitVAE and its four baselines;
    :func:`available_methods` lists them, and
    :func:`build_config` materializes JSON params into configs (nested
    dataclasses and named classical structures included).
``session``
    :class:`Session` owns one :class:`~repro.engine.EvaluationEngine`
    (persistent cache, worker pool, telemetry) so callers never pass raw
    ``engine=`` handles; :meth:`Session.run` executes a spec on the
    calling thread and returns an :class:`ExperimentResult` (records +
    aggregated curves + telemetry snapshot).  Its ``on_event`` observer
    sees typed :mod:`~repro.api.events` at simulator query boundaries
    and can stop the run losslessly; :meth:`Session.resume` continues an
    interrupted run directory bit-identically.
``handle`` / ``events`` / ``rundir``
    The execution under the session: the grid executor (cells, seed
    threads, interrupt flag, trace root), the typed event dataclasses,
    and :class:`RunDirectory` (durable spec + incremental per-seed
    evaluation history + completion ledger + final records).
``cli``
    ``python -m repro run spec.json`` / ``methods`` / ``status <run_dir>``
    / ``report`` with ``--workers/--cache-dir/--out/--out-dir/
    --resume/--progress`` flags; the checked-in specs live under
    ``examples/specs/``.

Guarantees
----------
Running a spec is **bit-identical** to hand-assembling the same grid
with per-method factories and a direct serial simulator: sessions route
through :mod:`repro.engine`, whose accounting is serial-identical by
construction, and specs resolve to exactly the config dataclasses the
optimizers consume.

Quickstart
----------
>>> from repro.api import ExperimentSpec, MethodSpec, Session, TaskSpec
>>> spec = ExperimentSpec(
...     name="demo",
...     task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
...     methods=(MethodSpec("GA", params={"population_size": 16}),),
...     budget=50, num_seeds=2,
... )
>>> with Session() as session:          # doctest: +SKIP
...     result = session.run(spec)
...     result.best_costs()
"""

from .events import (
    EvaluationDone,
    ExperimentStarted,
    RunEvent,
    SeedFinished,
    SeedStarted,
)
from .registry import (
    MethodEntry,
    available_methods,
    build_config,
    get_method,
    validate_params,
)
from .rundir import RunDirectory
from .session import ExperimentResult, Session
from .spec import (
    EngineSpec,
    ExperimentSpec,
    MethodSpec,
    TaskSpec,
    load_spec,
    save_spec,
)

__all__ = [
    "TaskSpec",
    "MethodSpec",
    "EngineSpec",
    "ExperimentSpec",
    "load_spec",
    "save_spec",
    "MethodEntry",
    "available_methods",
    "get_method",
    "validate_params",
    "build_config",
    "Session",
    "ExperimentResult",
    "RunDirectory",
    "RunEvent",
    "ExperimentStarted",
    "SeedStarted",
    "EvaluationDone",
    "SeedFinished",
]
