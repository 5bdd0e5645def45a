"""Declarative experiment specifications with strict JSON round-trips.

An experiment — the paper's (task x method x seed x budget) grid cell —
is described by four frozen dataclasses instead of hand-written driver
code:

:class:`TaskSpec`
    Which circuit to design: circuit type, bitwidth, omega, cell
    library, optional datapath IO-timing profile.  ``to_task()`` builds
    the concrete :class:`~repro.circuits.task.CircuitTask`.
:class:`MethodSpec`
    Which registered method to run (see :mod:`repro.api.registry`) with
    which parameter overrides, under an optional display label.
:class:`EngineSpec`
    How to execute: cache directory, synthesis workers, seed
    parallelism.  Only ``python -m repro run`` reads it, merging each
    field as flag > spec > environment; :meth:`repro.api.Session.run`
    ignores it, so a library caller passes these to the
    :class:`repro.api.Session` constructor instead.
:class:`ExperimentSpec`
    The whole grid: one task, several methods, a budget and a seed
    derivation — everything :meth:`repro.api.Session.run` needs.

Serialization is **strict** both ways: ``to_dict`` emits every field,
``from_dict`` rejects unknown keys, unknown method names and unknown
method parameters, so a typo in a JSON spec fails before any synthesis
runs.  Defaults mirror the paper's grid (32-bit adder, omega = 0.66,
five seeds, 5000-simulation budget).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import typing
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..circuits.adder import IO_PROFILES, adder_task, realistic_adder_task
from ..circuits.gray import gray_to_binary_task
from ..circuits.lzd import lzd_task
from ..circuits.task import CircuitTask
from ..synth.library import LIBRARIES, LIBRARY_NAMES
from ..utils.io import atomic_write_text
from ..utils.rng import seed_sequence
from . import registry

__all__ = [
    "TaskSpec",
    "MethodSpec",
    "EngineSpec",
    "ExperimentSpec",
    "load_spec",
    "save_spec",
]


def _check_field_types(spec, context: str) -> None:
    """Scalar fields of the wrong JSON type fail here, naming the dotted
    field, instead of as a ``TypeError`` deep inside a run."""
    for name, annotation in typing.get_type_hints(type(spec)).items():
        where = f"{context}.{name}" if context else name
        registry.check_type(where, getattr(spec, name), annotation)


def _reject_unknown_keys(payload: Mapping[str, Any], cls, context: str) -> None:
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(
            f"{context}: unknown field(s) {unknown}; "
            f"known: {sorted(f.name for f in fields(cls))}"
        )


@dataclass(frozen=True)
class TaskSpec:
    """Serializable description of one :class:`CircuitTask`."""

    circuit_type: str = "adder"
    n: int = 32
    delay_weight: float = 0.66
    library: str = "nangate45"
    #: None = the uniform IO timing of Sec. 5.2; a profile name builds the
    #: Sec. 5.4 datapath IO timings (adders only).  The library is chosen
    #: independently — pair a profile with ``library="8nm"`` to get the
    #: paper's full realistic setting (:func:`realistic_adder_task`).
    io_profile: Optional[str] = None
    io_skew_ns: float = 0.15
    #: overrides the builder's derived task name when set.
    name: Optional[str] = None

    def __post_init__(self):
        _check_field_types(self, "task")
        if self.circuit_type not in CircuitTask.circuit_types():
            raise ValueError(
                f"unknown circuit_type {self.circuit_type!r}; "
                f"choose from {CircuitTask.circuit_types()}"
            )
        if self.n < 2:
            raise ValueError("tasks need at least 2 bits")
        if not 0.0 <= self.delay_weight <= 1.0:
            raise ValueError("delay_weight must be in [0, 1]")
        if self.library not in LIBRARY_NAMES:
            raise ValueError(
                f"unknown library {self.library!r}; choose from {LIBRARY_NAMES}"
            )
        if self.io_profile is not None:
            if self.io_profile not in IO_PROFILES:
                raise ValueError(
                    f"unknown io_profile {self.io_profile!r}; "
                    f"choose from {IO_PROFILES}"
                )
            if self.circuit_type != "adder":
                raise ValueError("io_profile is only modeled for adder tasks")

    def to_task(self) -> CircuitTask:
        """Build the concrete task this spec describes."""
        library = LIBRARIES()[self.library]
        if self.circuit_type == "gray":
            task = gray_to_binary_task(
                n=self.n, delay_weight=self.delay_weight, library=library
            )
        elif self.circuit_type == "lzd":
            task = lzd_task(n=self.n, delay_weight=self.delay_weight, library=library)
        elif self.io_profile is None:
            task = adder_task(self.n, self.delay_weight, library=library)
        else:
            task = realistic_adder_task(
                self.n,
                self.delay_weight,
                profile=self.io_profile,
                library=library,
                skew_ns=self.io_skew_ns,
            )
        if self.name is not None:
            task = dataclasses.replace(task, name=self.name)
        return task

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TaskSpec":
        _reject_unknown_keys(payload, cls, "task spec")
        return cls(**payload)


@dataclass(frozen=True)
class MethodSpec:
    """One registered method plus its JSON-able parameter overrides."""

    method: str
    #: display/record name; several specs of one method (ablation
    #: variants) distinguish themselves by label.  Defaults to ``method``.
    label: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.params is None:  # a natural hand-edit in JSON specs
            object.__setattr__(self, "params", {})
        if not isinstance(self.params, Mapping):
            raise ValueError(
                f"method {self.method!r}: params must be an object, "
                f"got {type(self.params).__name__}"
            )
        _check_field_types(self, "methods")
        # Snapshot the caller's dict: what was validated here is exactly
        # what runs and serializes later, even if the caller mutates.
        object.__setattr__(self, "params", copy.deepcopy(dict(self.params)))
        entry = registry.get_method(self.method)  # rejects unknown names
        registry.validate_params(entry.config_cls, self.params, context=self.method)

    @property
    def display_name(self) -> str:
        return self.label if self.label is not None else self.method

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "label": self.label,
            "params": copy.deepcopy(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MethodSpec":
        _reject_unknown_keys(payload, cls, "method spec")
        return cls(**payload)


@dataclass(frozen=True)
class EngineSpec:
    """Execution settings for ``python -m repro run``.

    The CLI builds its :class:`repro.api.Session` from this block, each
    field overridden by the matching flag (flag > spec > environment).
    ``Session.run`` never reads it: in library code, pass ``cache_dir``,
    ``workers`` and ``parallel_seeds`` to ``Session(...)``.
    """

    #: persistent cache directory (None = ``$REPRO_CACHE_DIR``, unset =
    #: memory-only).
    cache_dir: Optional[str] = None
    #: synthesis worker processes (None = ``$REPRO_ENGINE_WORKERS``).
    workers: Optional[int] = None
    #: seeds run concurrently on threads (1 = sequential).
    parallel_seeds: int = 1

    def __post_init__(self):
        _check_field_types(self, "engine")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for the default)")
        if self.parallel_seeds < 1:
            raise ValueError("parallel_seeds must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineSpec":
        _reject_unknown_keys(payload, cls, "engine spec")
        return cls(**payload)


@dataclass(frozen=True)
class ExperimentSpec:
    """One full experiment: task x methods x seeds at a budget."""

    name: str
    task: TaskSpec = field(default_factory=TaskSpec)
    methods: Tuple[MethodSpec, ...] = field(
        default_factory=lambda: (MethodSpec("CircuitVAE"),)
    )
    budget: int = 5000
    #: seed derivation: ``num_seeds`` well-separated seeds from
    #: ``base_seed`` (the harness convention), unless ``seeds`` pins an
    #: explicit list.
    num_seeds: int = 5
    base_seed: int = 0
    seeds: Optional[Tuple[int, ...]] = None
    #: points on the cost-vs-budget curve ladder (Figs. 3/7 use 8).
    curve_points: int = 8
    engine: EngineSpec = field(default_factory=EngineSpec)

    def __post_init__(self):
        if isinstance(self.methods, list):
            object.__setattr__(self, "methods", tuple(self.methods))
        if isinstance(self.seeds, list):
            object.__setattr__(self, "seeds", tuple(self.seeds))
        _check_field_types(self, "")
        if not self.name:
            raise ValueError("experiments need a name")
        if not self.methods:
            raise ValueError("experiments need at least one method")
        labels = [m.display_name for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"method labels must be unique, got {labels}; "
                "set MethodSpec.label on variants of one method"
            )
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.seeds is not None and not self.seeds:
            raise ValueError("explicit seeds must be non-empty")
        if self.seeds is None and self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")
        if not 1 <= self.curve_points <= self.budget:
            raise ValueError("curve_points must be in [1, budget]")

    # ------------------------------------------------------------------
    def seed_list(self) -> List[int]:
        """The run seeds: explicit ``seeds``, else the derived sequence."""
        if self.seeds is not None:
            return list(self.seeds)
        return seed_sequence(self.base_seed, self.num_seeds)

    def budget_ladder(self) -> List[int]:
        """Budgets at which aggregated curves are reported.

        Evenly spaced ``curve_points`` steps, always ending at the full
        ``budget`` (an extra point is appended when the budget is not
        divisible, so curves never stop short of the spec's budget).
        """
        step = max(self.budget // self.curve_points, 1)
        ladder = list(range(step, self.budget + 1, step))
        if ladder[-1] != self.budget:
            ladder.append(self.budget)
        return ladder

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "task": self.task.to_dict(),
            "methods": [m.to_dict() for m in self.methods],
            "budget": self.budget,
            "num_seeds": self.num_seeds,
            "base_seed": self.base_seed,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "curve_points": self.curve_points,
            "engine": self.engine.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        _reject_unknown_keys(payload, cls, "experiment spec")
        parsed = dict(payload)
        if "task" in parsed:
            parsed["task"] = TaskSpec.from_dict(parsed["task"])
        if "methods" in parsed:
            parsed["methods"] = tuple(
                MethodSpec.from_dict(m) for m in parsed["methods"]
            )
        if "engine" in parsed:
            parsed["engine"] = EngineSpec.from_dict(parsed["engine"])
        return cls(**parsed)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


def load_spec(path: str) -> ExperimentSpec:
    """Read and validate an :class:`ExperimentSpec` from a JSON file."""
    with open(path) as handle:
        return ExperimentSpec.from_json(handle.read())


def save_spec(spec: ExperimentSpec, path: str) -> None:
    """Write a spec as indented JSON, atomically (round-trips via
    :func:`load_spec`; parent directories are created)."""
    atomic_write_text(path, spec.to_json() + "\n")
