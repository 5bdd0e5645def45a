"""The project-invariant analyzers.

Each rule encodes a contract the codebase otherwise enforces only by
convention:

``check-env-knobs`` / ``check-env-stale`` / ``check-readme-env-table``
    Every ``os.environ`` read of a ``REPRO_*`` name must be registered
    in :mod:`repro.check.knobs` (and therefore in README's generated
    env table); registered knobs nothing reads are rot.
``check-telemetry-names``
    Counter/stage/span string literals must resolve against the names
    :class:`~repro.engine.telemetry.EngineTelemetry` registers — a
    typo'd counter raises at runtime, but a typo'd stage or span
    silently creates a new series in the
    :class:`~repro.obs.metrics.MetricsRegistry`.
``check-fast-path-contract``
    Modules declaring ``FAST_PATH_CONTRACT`` must read their kill
    switch, call their reference fallback, and be imported by their
    gating bench; every registered kill-switch knob must be claimed by
    exactly one contract.
``check-thread-safety``
    Module/class-level mutable state in code reached from more than one
    thread (the engine parallel seeds share, the vectorized synthesis
    flow, the thread utilities) must carry a ``thread-safe``/``lock``
    annotation comment explaining its discipline (or actually be
    lock-guarded, which the annotation names).

Rules yield :class:`~repro.check.findings.Finding` objects with only
location/message/symbol filled; the engine stamps rule id, severity and
the fixer hint from the registry entry.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import CheckContext, SourceFile, register_rule
from .findings import Finding
from .knobs import KNOBS, render_env_table

__all__: List[str] = []


def _f(
    path: str,
    line: int,
    message: str,
    symbol: str = "",
    severity: str = "",
    hint: str = "",
) -> Finding:
    return Finding(
        rule="",
        severity=severity,
        path=path,
        line=line,
        message=message,
        hint=hint,
        symbol=symbol,
    )


# ----------------------------------------------------------------------
# env-knob discipline
# ----------------------------------------------------------------------
def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` / bare ``environ`` (from-imported)."""
    if isinstance(node, ast.Attribute) and node.attr == "environ":
        return True
    return isinstance(node, ast.Name) and node.id == "environ"


def _env_name(arg: ast.AST, consts: Dict[str, str]) -> Optional[str]:
    """Resolve an env-name argument: literal or module-level constant."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        return consts.get(arg.id)
    return None


def _env_reads(source: SourceFile) -> Iterator[Tuple[str, int]]:
    """Every resolvable env-var access in one file: (name, line)."""
    if source.tree is None:
        return
    consts = source.module_constants()
    for node in ast.walk(source.tree):
        arg: Optional[ast.AST] = None
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            arg = node.slice
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr in ("get", "setdefault") and _is_environ(func.value))
                or func.attr == "getenv"
            ):
                arg = node.args[0]
        if arg is None:
            continue
        name = _env_name(arg, consts)
        if name is not None:
            yield name, node.lineno


@register_rule(
    "check-env-knobs",
    "error",
    "register the knob in src/repro/check/knobs.py (name, default, "
    "effect) and regenerate the README table",
)
def env_knob_rule(context: CheckContext) -> Iterator[Finding]:
    """``REPRO_*`` env accesses must name registered knobs."""
    for source in context.files:
        for name, line in _env_reads(source):
            if name.startswith("REPRO_") and name not in KNOBS:
                yield _f(
                    source.rel,
                    line,
                    f"env knob {name} is not in the check/knobs.py registry",
                    symbol=name,
                )


@register_rule(
    "check-env-stale",
    "warning",
    "delete the registry entry (and its README row) or wire the knob up",
)
def env_stale_rule(context: CheckContext) -> Iterator[Finding]:
    """Registered knobs must be read somewhere in the tree."""
    if not context.full_tree:
        return
    read: Set[str] = set()
    for source in context.files:
        for name, _line in _env_reads(source):
            read.add(name)
    for name in KNOBS:
        if name not in read:
            yield _f(
                "src/repro/check/knobs.py",
                1,
                f"registered knob {name} is never read by any scanned file",
                symbol=name,
            )


@register_rule(
    "check-readme-env-table",
    "error",
    "regenerate with: PYTHONPATH=src python -m repro check --render-env-table",
)
def readme_env_table_rule(context: CheckContext) -> Iterator[Finding]:
    """README's env table must equal the one rendered from the registry."""
    if not context.full_tree:
        return
    readme = context.read_root_file("README.md")
    if readme is None:
        yield _f("README.md", 1, "README.md not found", symbol="missing")
        return
    expected = render_env_table().splitlines()
    lines = readme.splitlines()
    try:
        start = lines.index(expected[0])
    except ValueError:
        yield _f(
            "README.md",
            1,
            "env-knob table header not found "
            "('| Variable | Default | Meaning |')",
            symbol="env-table",
        )
        return
    actual = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        actual.append(line)
    if actual != expected:
        extra = [l for l in actual if l not in expected]
        missing = [l for l in expected if l not in actual]
        detail = "; ".join(
            part
            for part in (
                f"{len(missing)} row(s) missing/outdated" if missing else "",
                f"{len(extra)} row(s) not in the registry" if extra else "",
                "row order differs" if not missing and not extra else "",
            )
            if part
        )
        yield _f(
            "README.md",
            start + 1,
            f"env-knob table disagrees with check/knobs.py: {detail}",
            symbol="env-table",
        )


# ----------------------------------------------------------------------
# telemetry-name discipline
# ----------------------------------------------------------------------
def _receiver_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our trees
        return ""


def _telemetryish(text: str) -> bool:
    lowered = text.lower()
    return "telemetry" in lowered or lowered in ("sink", "sinks")


def _traceish(text: str) -> bool:
    lowered = text.lower()
    return "trace" in lowered or "tracer" in lowered


@register_rule(
    "check-telemetry-names",
    "error",
    "use a name EngineTelemetry registers (_COUNTERS / KNOWN_STAGES / "
    "KNOWN_SPANS / KNOWN_HISTOGRAMS in repro.engine.telemetry) or "
    "register the new name there",
)
def telemetry_name_rule(context: CheckContext) -> Iterator[Finding]:
    """Counter/stage/span literals must resolve against registered names."""
    from ..engine.telemetry import (
        KNOWN_HISTOGRAMS,
        KNOWN_SPANS,
        KNOWN_STAGES,
        EngineTelemetry,
    )

    counters = set(EngineTelemetry._COUNTERS)

    def first_literal(call: ast.Call, index: int = 0) -> Optional[str]:
        if len(call.args) > index:
            arg = call.args[index]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        return None

    for source in context.files:
        if source.tree is None or source.rel == "src/repro/engine/telemetry.py":
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # stage(telemetry, "name") / stage_all(sinks, "name")
            if isinstance(func, ast.Name) and func.id in ("stage", "stage_all"):
                name = first_literal(node, 1)
                if name is not None and name not in KNOWN_STAGES:
                    yield _f(
                        source.rel,
                        node.lineno,
                        f"unknown stage name {name!r}",
                        symbol=f"stage:{name}",
                    )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            recv = _receiver_text(func.value)
            if func.attr == "add" and _telemetryish(recv):
                name = first_literal(node)
                if name is not None and name not in counters:
                    yield _f(
                        source.rel,
                        node.lineno,
                        f"unknown telemetry counter {name!r}",
                        symbol=f"counter:{name}",
                    )
            elif func.attr in ("time", "add_stage_time") and _telemetryish(recv):
                name = first_literal(node)
                if (
                    name is not None
                    and name not in KNOWN_STAGES
                    and not name.startswith("train_kernel:")
                ):
                    yield _f(
                        source.rel,
                        node.lineno,
                        f"unknown stage name {name!r}",
                        symbol=f"stage:{name}",
                    )
            elif func.attr == "observe_latency" and _telemetryish(recv):
                name = first_literal(node)
                if name is not None and name not in KNOWN_HISTOGRAMS:
                    yield _f(
                        source.rel,
                        node.lineno,
                        f"unknown latency histogram {name!r}",
                        symbol=f"histogram:{name}",
                    )
            elif func.attr == "span" and _traceish(recv):
                name = first_literal(node)
                if name is not None and name not in KNOWN_SPANS:
                    yield _f(
                        source.rel,
                        node.lineno,
                        f"unknown span name {name!r}",
                        symbol=f"span:{name}",
                    )


# ----------------------------------------------------------------------
# fast-path contracts
# ----------------------------------------------------------------------
_CONTRACT_KEYS = {"kill_switch", "reference", "bench"}


def _contract_of(source: SourceFile) -> Optional[Tuple[Dict[str, str], int]]:
    if source.tree is None:
        return None
    for node in source.tree.body:  # type: ignore[attr-defined]
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "FAST_PATH_CONTRACT"
            and isinstance(node.value, ast.Dict)
        ):
            contract: Dict[str, str] = {}
            for k, v in zip(node.value.keys, node.value.values):
                if (
                    isinstance(k, ast.Constant)
                    and isinstance(k.value, str)
                    and isinstance(v, ast.Constant)
                    and isinstance(v.value, str)
                ):
                    contract[k.value] = v.value
            return contract, node.lineno
    return None


def _module_dotted(rel: str) -> Optional[str]:
    if rel.startswith("src/") and rel.endswith(".py"):
        return rel[len("src/"):-len(".py")].replace("/", ".")
    return None


def _imports_module(tree: ast.AST, dotted: str) -> bool:
    parent, _, leaf = dotted.rpartition(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == dotted for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == dotted:
                return True
            if node.module == parent and any(
                alias.name == leaf for alias in node.names
            ):
                return True
    return False


@register_rule(
    "check-fast-path-contract",
    "error",
    "a fast path needs all three legs: the kill-switch env read, a "
    "fallback call to the reference function, and a benchmarks/bench_*.py "
    "importing the module",
)
def fast_path_rule(context: CheckContext) -> Iterator[Finding]:
    """FAST_PATH_CONTRACT declarations must be complete and honest."""
    claimed: Dict[str, str] = {}  # kill switch -> declaring rel path
    for source in context.files:
        found = _contract_of(source)
        if found is None:
            continue
        contract, line = found
        missing_keys = sorted(_CONTRACT_KEYS - set(contract))
        if missing_keys:
            yield _f(
                source.rel,
                line,
                f"FAST_PATH_CONTRACT missing key(s) {missing_keys}",
                symbol="contract-keys",
            )
            continue
        switch = contract["kill_switch"]
        reference = contract["reference"]
        bench = contract["bench"]
        knob = KNOBS.get(switch)
        if knob is None or not knob.kill_switch:
            yield _f(
                source.rel,
                line,
                f"kill switch {switch} is not a registered kill-switch knob",
                symbol=f"switch:{switch}",
            )
        if switch in claimed:
            yield _f(
                source.rel,
                line,
                f"kill switch {switch} already claimed by {claimed[switch]}",
                symbol=f"claimed:{switch}",
            )
        claimed.setdefault(switch, source.rel)
        if not any(name == switch for name, _ in _env_reads(source)):
            yield _f(
                source.rel,
                line,
                f"module never reads its declared kill switch {switch}",
                symbol=f"read:{switch}",
            )
        calls_reference = source.tree is not None and any(
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == reference)
                or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == reference
                )
            )
            for node in ast.walk(source.tree)
        )
        if not calls_reference:
            yield _f(
                source.rel,
                line,
                f"module never calls its reference fallback {reference}()",
                symbol=f"reference:{reference}",
            )
        bench_rel = f"benchmarks/{bench}"
        bench_source = context.find(bench_rel)
        if bench_source is None and not os.path.exists(
            os.path.join(context.root, bench_rel)
        ):
            yield _f(
                source.rel,
                line,
                f"declared bench {bench_rel} does not exist",
                symbol=f"bench:{bench}",
            )
        elif bench_source is not None and bench_source.tree is not None:
            dotted = _module_dotted(source.rel)
            if dotted is not None and not _imports_module(
                bench_source.tree, dotted
            ):
                yield _f(
                    bench_source.rel,
                    1,
                    f"bench does not import {dotted} (declared by its "
                    "FAST_PATH_CONTRACT)",
                    symbol=f"bench-import:{dotted}",
                )
    if context.full_tree:
        for name, knob in KNOBS.items():
            if knob.kill_switch and name not in claimed:
                yield _f(
                    "src/repro/check/knobs.py",
                    1,
                    f"kill-switch knob {name} is not claimed by any "
                    "FAST_PATH_CONTRACT",
                    symbol=f"unclaimed:{name}",
                )


# ----------------------------------------------------------------------
# thread-safety basics
# ----------------------------------------------------------------------
#: rel-path prefixes reached from pool/thread entry points (parallel
#: seeds share one in-process engine).
_SHARED_PREFIXES = ("src/repro/engine/",)
_SHARED_FILES = (
    "src/repro/synth/batched.py",
    "src/repro/utils/threads.py",
)

_MUTABLE_CALLS = {
    "dict",
    "list",
    "set",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
    "count",
}


def _is_mutable_ctor(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        return name in _MUTABLE_CALLS
    return False


def _annotated(source: SourceFile, lineno: int) -> bool:
    """A ``thread-safe``/``lock`` marker on the line or in the comment
    block above it."""
    lines = source.text.splitlines()
    window = lines[max(0, lineno - 6): lineno]
    return any(
        "#" in line and ("thread-safe" in line.lower() or "lock" in line.lower())
        for line in window
    )


@register_rule(
    "check-thread-safety",
    "warning",
    "guard the state with a lock (and say so) or add a '# thread-safety:' "
    "comment explaining why unguarded access is sound",
)
def thread_safety_rule(context: CheckContext) -> Iterator[Finding]:
    """Shared-scope module/class mutable state must be annotated."""
    for source in context.files:
        in_scope = source.rel.startswith(_SHARED_PREFIXES) or (
            source.rel in _SHARED_FILES
        )
        if not in_scope or source.tree is None:
            continue

        def scan(body, owner: str) -> Iterator[Finding]:
            for node in body:
                targets: List[ast.expr] = []
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if value is None or not _is_mutable_ctor(value):
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    # dunders (__all__ etc.) are interpreter conventions,
                    # and FAST_PATH_CONTRACT is a declaration the
                    # fast-path rule owns — both are write-once by design.
                    if target.id.startswith("__") or target.id == "FAST_PATH_CONTRACT":
                        continue
                    if _annotated(source, node.lineno):
                        continue
                    where = f"{owner}.{target.id}" if owner else target.id
                    yield _f(
                        source.rel,
                        node.lineno,
                        f"mutable shared state {where} has no lock/"
                        "thread-safety annotation",
                        symbol=where,
                    )

        yield from scan(source.tree.body, "")  # type: ignore[attr-defined]
        for node in source.tree.body:  # type: ignore[attr-defined]
            if isinstance(node, ast.ClassDef):
                yield from scan(node.body, node.name)
