"""The method registry: search algorithms resolved by name.

Every optimization method sits in one table under a stable name, as a
``(config dataclass, algorithm class)`` pair, so the CLI and JSON specs
can say ``"GA"`` instead of importing
:class:`~repro.baselines.ga.GeneticAlgorithm`.  The table holds
CircuitVAE and its four baselines.

Method parameters travel as plain JSON-able dicts
(:attr:`repro.api.MethodSpec.params`) and are materialized into the
method's config dataclass by :func:`build_config`, which understands
nested config dataclasses (``{"train": {"epochs": 5}}`` builds a
:class:`~repro.core.training.TrainConfig`) and resolves named classical
structures for :class:`~repro.prefix.graph.PrefixGraph`-typed fields
(``{"fixed_init_graph": "sklansky"}`` becomes ``sklansky(n)`` for the
task bitwidth) — that keeps every spec serializable while still covering
the paper's ablations.
"""

from __future__ import annotations

import dataclasses
import numbers
import typing
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..baselines import (
    BOConfig,
    GAConfig,
    GeneticAlgorithm,
    LatentBO,
    PrefixRL,
    RandomSearch,
    RandomSearchConfig,
    RLConfig,
)
from ..core import CircuitVAEConfig, CircuitVAEOptimizer
from ..opt.optimizer import SearchAlgorithm
from ..prefix.graph import PrefixGraph
from ..prefix.structures import STRUCTURES, make_structure

__all__ = [
    "MethodEntry",
    "available_methods",
    "get_method",
    "check_type",
    "validate_params",
    "build_config",
]


@dataclasses.dataclass(frozen=True)
class MethodEntry:
    """One method: its name, config type and factory (``factory(config)``
    returns a fresh algorithm)."""

    name: str
    config_cls: type
    factory: Callable[[Any], SearchAlgorithm]


#: The paper's contribution and its four baselines.
_METHODS: Dict[str, MethodEntry] = {
    entry.name: entry
    for entry in (
        MethodEntry("CircuitVAE", CircuitVAEConfig, CircuitVAEOptimizer),
        MethodEntry("GA", GAConfig, GeneticAlgorithm),
        MethodEntry("RL", RLConfig, PrefixRL),
        MethodEntry("BO", BOConfig, LatentBO),
        MethodEntry("Random", RandomSearchConfig, RandomSearch),
    )
}


def available_methods() -> List[str]:
    """Sorted names of every method."""
    return sorted(_METHODS)


def get_method(name: str) -> MethodEntry:
    """Look up one method; unknown names list the alternatives."""
    try:
        return _METHODS[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; available: {', '.join(available_methods())}"
        ) from None


# ----------------------------------------------------------------------
# Params <-> config dataclasses
# ----------------------------------------------------------------------
def _concrete_type(tp: Any) -> Any:
    """Strip ``Optional[...]`` so dataclass/graph fields are recognizable."""
    if typing.get_origin(tp) is Union:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if len(args) == 1:
            return args[0]
    return tp


#: scalar annotation -> the value types that fill it; ``check_type``
#: additionally refuses ``bool`` (an ``Integral``) for ``int`` and ``float``.
_SCALARS = {
    bool: (bool,),
    int: (numbers.Integral,),
    float: (numbers.Real,),
    str: (str,),
}


def check_type(where: str, value: Any, annotation: Any) -> None:
    """Raise ``ValueError`` naming ``where`` when ``value`` does not fit
    a scalar ``annotation``.

    ``bool`` is never an ``int``, an ``int`` may fill a ``float``, and
    ``Optional`` takes ``None``; ``Tuple[T, ...]`` checks each element.
    Other annotations pass (their fields validate themselves).
    """
    concrete = _concrete_type(annotation)
    if value is None and concrete is not annotation:
        return
    if typing.get_origin(concrete) is tuple and isinstance(value, tuple):
        args = typing.get_args(concrete)
        if len(args) == 2 and args[1] is Ellipsis:
            for i, item in enumerate(value):
                check_type(f"{where}[{i}]", item, args[0])
        return
    accepted = _SCALARS.get(concrete)
    if accepted is None:
        return
    if not isinstance(value, accepted) or (
        concrete is not bool and isinstance(value, bool)
    ):
        raise ValueError(
            f"{where} must be {concrete.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )


def validate_params(
    config_cls: type, params: Mapping[str, Any], context: str = ""
) -> None:
    """Reject parameter names that are not fields of ``config_cls``, and
    scalar values of the wrong type (see :func:`check_type`).

    Recurses into nested config dataclasses, so a typo anywhere in a spec
    fails at validation time with its dotted path, not at run time.
    """
    names = {f.name for f in dataclasses.fields(config_cls)}
    # Resolved annotations: configs use ``from __future__ import
    # annotations``, so raw ``field.type`` is a string.
    types = typing.get_type_hints(config_cls)
    for key, value in params.items():
        where = f"{context}.{key}" if context else key
        if key not in names:
            raise ValueError(
                f"unknown parameter {where!r} for {config_cls.__name__}; "
                f"known fields: {sorted(names)}"
            )
        nested = _concrete_type(types.get(key))
        if dataclasses.is_dataclass(nested) and isinstance(value, Mapping):
            validate_params(nested, value, context=where)
        elif nested is PrefixGraph and isinstance(value, str):
            # Structure names materialize later (they need the task
            # bitwidth), but a typo must fail here, at validation time.
            if value not in STRUCTURES:
                raise ValueError(
                    f"{where}={value!r} is not a known classical structure; "
                    f"choose from {sorted(STRUCTURES)}"
                )
        else:
            check_type(where, value, types.get(key))


def _materialize(
    config_cls: type, params: Mapping[str, Any], n: Optional[int], context: str
) -> Any:
    types = typing.get_type_hints(config_cls)
    kwargs: Dict[str, Any] = {}
    for key, value in params.items():
        where = f"{context}.{key}"
        declared = _concrete_type(types.get(key))
        if dataclasses.is_dataclass(declared) and isinstance(value, Mapping):
            value = _materialize(declared, value, n, where)
        elif declared is PrefixGraph and isinstance(value, str):
            if n is None:
                raise ValueError(
                    f"{where}={value!r} names a classical structure, which "
                    "needs the task bitwidth; pass n="
                )
            value = make_structure(value, n)
        kwargs[key] = value
    return config_cls(**kwargs)


def build_config(method: str, params: Mapping[str, Any], n: Optional[int] = None):
    """Materialize a method's config dataclass from JSON-able ``params``.

    Unlisted fields keep their dataclass defaults.  ``n`` (the task
    bitwidth) is only needed when a graph-typed field names a classical
    structure.
    """
    entry = get_method(method)
    validate_params(entry.config_cls, params, context=method)
    return _materialize(entry.config_cls, params, n, context=method)

