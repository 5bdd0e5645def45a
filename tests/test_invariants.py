"""Project invariants the interpreter does not enforce, checked on the source.

Plain :mod:`ast` scans of ``src/repro``, ``scripts/`` and ``benchmarks/``:

* every file parses;
* the ``REPRO_*`` environment names the code reads are exactly the rows
  of README's env table, which is the only knob registry (edit it by
  hand; this file checks it);
* counter/stage/span literals resolve against the names
  :mod:`repro.engine.telemetry` registers — a typo'd counter raises at
  runtime, but a typo'd stage or span silently opens a new series — and
  every registered span name keeps at least one call site;
* each kill switch's module reads the switch and calls its reference
  path, and the bench gating it imports the module (:data:`FAST_PATHS`);
* mutable module/class state in code reached from more than one thread
  carries a lock or ``thread-safe`` annotation comment.

Each check is a function returning problem strings (``path:line: what``),
so the seeded-violation fixtures exercise the same code the tree tests run.
"""

import ast
import os
import re
import textwrap
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: directories scanned, relative to the repo root; code outside ``src/``
#: carries the same env-knob and telemetry-name invariants.
SCANNED = ("src/repro", "scripts", "benchmarks")

#: (kill switch, module reading it, reference it falls back to, bench
#: gating the fast path, which must import the module).
FAST_PATHS = (
    (
        "REPRO_COMPILED_TRAIN",
        "src/repro/core/training.py",
        "training_losses",
        "benchmarks/bench_vae_training.py",
    ),
)

#: path prefixes of code reached from more than one thread (parallel
#: seeds share one in-process engine).
SHARED_SCOPE = (
    "src/repro/engine/",
    "src/repro/synth/batched.py",
    "src/repro/utils/threads.py",
)

ENV_TABLE_HEADER = "| Variable | Default | Meaning |"


class Source(NamedTuple):
    rel: str  # repo-root-relative, posix separators
    text: str
    tree: Optional[ast.Module]  # None when the file does not parse
    error: str


def load_sources(root: str, bases: Sequence[str] = SCANNED) -> List[Source]:
    """Every ``.py`` file under ``bases``, parsed once (skipping
    ``__pycache__`` and dot-directories)."""
    sources = []
    for base in bases:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                try:
                    sources.append(Source(rel, text, ast.parse(text, rel), ""))
                except SyntaxError as exc:
                    error = f"{exc.msg} (line {exc.lineno})"
                    sources.append(Source(rel, text, None, error))
    return sources


def parse_problems(sources: Sequence[Source]) -> List[str]:
    return [f"{s.rel}: cannot parse: {s.error}" for s in sources if s.tree is None]


# ----------------------------------------------------------------------
# env knobs
# ----------------------------------------------------------------------
def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` or a from-imported bare ``environ``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def module_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments, so reads through a
    constant (``os.environ.get(_ENV_WORKERS)``) resolve."""
    consts = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            consts[node.targets[0].id] = node.value.value
    return consts


def env_reads(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of every resolvable ``os.environ[...]``/``.get``/
    ``.setdefault``/``getenv`` read."""
    consts = module_constants(tree)
    for node in ast.walk(tree):
        arg = None
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            arg = node.slice
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr in ("get", "setdefault") and _is_environ(func.value))
                or func.attr == "getenv"
            ):
                arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield arg.value, node.lineno
        elif isinstance(arg, ast.Name) and arg.id in consts:
            yield consts[arg.id], node.lineno


def readme_env_names(readme: str) -> Optional[List[str]]:
    """The variable names of README's env table, in row order (None when
    the table header is missing)."""
    lines = readme.splitlines()
    if ENV_TABLE_HEADER not in lines:
        return None
    names = []
    for line in lines[lines.index(ENV_TABLE_HEADER) + 1:]:
        if not line.startswith("|"):
            break
        cell = line.split("|")[1].strip()
        if not cell.startswith("---"):
            names.append(cell.strip("`"))
    return names


def env_problems(root: str, sources: Sequence[Source]) -> List[str]:
    """``REPRO_*`` names read must equal README's env-table rows."""
    with open(os.path.join(root, "README.md"), encoding="utf-8") as handle:
        documented = readme_env_names(handle.read())
    if documented is None:
        return [f"README.md: env table header {ENV_TABLE_HEADER!r} not found"]
    problems, read = [], set()
    for source in sources:
        if source.tree is None:
            continue
        for name, line in env_reads(source.tree):
            if not name.startswith("REPRO_"):
                continue
            read.add(name)
            if name not in documented:
                problems.append(
                    f"{source.rel}:{line}: reads {name}, which README's env "
                    "table does not list"
                )
    problems += [
        f"README.md: env table lists {name}, which no scanned file reads"
        for name in documented
        if name not in read
    ]
    return problems


# ----------------------------------------------------------------------
# telemetry names
# ----------------------------------------------------------------------
#: telemetry method name -> the registry its first argument must be in
_TELEMETRY_METHODS = {
    "add": "counter",
    "add_stage_time": "stage",
}
_SPAN_CALLS = ("span", "start_span")


def _telemetry_name(call: ast.Call) -> Optional[Tuple[str, str]]:
    """(kind, literal name) when ``call`` names a counter/stage/span
    with a string literal."""
    func, kind, index = call.func, None, 0
    if isinstance(func, ast.Name):
        if func.id == "stage":
            kind, index = "stage", 1  # stage(telemetry, "name")
        elif func.id in _SPAN_CALLS:
            kind = "span"
    elif isinstance(func, ast.Attribute):
        receiver = ast.unparse(func.value).lower()
        if "telemetry" in receiver:
            kind = _TELEMETRY_METHODS.get(func.attr)
        elif "trace" in receiver and func.attr in _SPAN_CALLS:
            kind = "span"
    if kind is None or len(call.args) <= index:
        return None
    arg = call.args[index]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return kind, arg.value
    return None


def telemetry_problems(sources: Sequence[Source]) -> List[str]:
    """Telemetry literals must name what ``repro.engine.telemetry``
    registers (stages may also be the dynamic ``train_kernel:*`` family)."""
    from repro.engine.telemetry import KNOWN_SPANS, KNOWN_STAGES, EngineTelemetry

    known = {
        "counter": set(EngineTelemetry._COUNTERS),
        "stage": KNOWN_STAGES,
        "span": KNOWN_SPANS,
    }
    problems = []
    for source in sources:
        if source.tree is None or source.rel == "src/repro/engine/telemetry.py":
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            found = _telemetry_name(node)
            if found is None:
                continue
            kind, name = found
            if name in known[kind] or (
                kind == "stage" and name.startswith("train_kernel:")
            ):
                continue
            problems.append(f"{source.rel}:{node.lineno}: unknown {kind} {name!r}")
    return problems


def unused_span_problems(
    sources: Sequence[Source], known: Optional[Sequence[str]] = None
) -> List[str]:
    """Every registered span name (``KNOWN_SPANS`` unless ``known`` is
    given) appears as the literal name of at least one span call."""
    if known is None:
        from repro.engine.telemetry import KNOWN_SPANS as known
    used = set()
    for source in sources:
        if source.tree is None:
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                found = _telemetry_name(node)
                if found is not None and found[0] == "span":
                    used.add(found[1])
    return [
        f"KNOWN_SPANS: {name!r} has no span(...)/start_span(...) call site"
        for name in sorted(set(known) - used)
    ]


# ----------------------------------------------------------------------
# fast-path contracts
# ----------------------------------------------------------------------
def _calls(tree: ast.Module, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                return True
    return False


def _imports(tree: ast.Module, dotted: str) -> bool:
    parent, _, leaf = dotted.rpartition(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == dotted for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == dotted or (
                node.module == parent
                and any(alias.name == leaf for alias in node.names)
            ):
                return True
    return False


def fast_path_problems(
    sources: Sequence[Source], fast_paths: Sequence[Tuple[str, str, str, str]]
) -> List[str]:
    """Each kill switch's module reads it and calls its reference; its
    bench imports the module."""
    by_rel = {source.rel: source for source in sources}
    problems = []
    for switch, module, reference, bench in fast_paths:
        source = by_rel.get(module)
        if source is None or source.tree is None:
            problems.append(f"{module}: missing (the module of {switch})")
            continue
        if switch not in {name for name, _ in env_reads(source.tree)}:
            problems.append(f"{module}: never reads its kill switch {switch}")
        if not _calls(source.tree, reference):
            problems.append(f"{module}: never calls its reference {reference}()")
        dotted = module[len("src/"):-len(".py")].replace("/", ".")
        bench_source = by_rel.get(bench)
        if bench_source is None or bench_source.tree is None:
            problems.append(f"{bench}: missing (the bench of {switch})")
        elif not _imports(bench_source.tree, dotted):
            problems.append(f"{bench}: does not import {dotted}")
    return problems


# ----------------------------------------------------------------------
# thread-shared state
# ----------------------------------------------------------------------
#: ``lock`` must not follow a letter, so ``_LOCK``, ``lock-guarded`` and
#: ``Guarded by _LOCK`` annotate while ``block`` and ``clock`` do not.
_ANNOTATION = re.compile(r"thread-safe|thread-safety|(?<![a-z])lock", re.IGNORECASE)

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


def _is_mutable(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", "")
        return name in _MUTABLE_CALLS
    return False


def _annotated(lines: List[str], lineno: int) -> bool:
    """An annotation comment on the statement's line or the five above."""
    return any(
        "#" in line and _ANNOTATION.search(line[line.index("#"):])
        for line in lines[max(0, lineno - 6):lineno]
    )


def shared_state_problems(sources: Sequence[Source]) -> List[str]:
    """Module/class-level mutable state in :data:`SHARED_SCOPE` must say
    how concurrent access is safe."""
    problems = []
    for source in sources:
        if source.tree is None or not source.rel.startswith(SHARED_SCOPE):
            continue
        lines = source.text.splitlines()
        scopes = [("", source.tree.body)] + [
            (node.name + ".", node.body)
            for node in source.tree.body
            if isinstance(node, ast.ClassDef)
        ]
        for owner, body in scopes:
            for node in body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                else:
                    continue
                if not _is_mutable(node.value) or _annotated(lines, node.lineno):
                    continue
                for target in targets:
                    # dunders (__all__ etc.) are write-once conventions
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        problems.append(
                            f"{source.rel}:{node.lineno}: mutable shared state "
                            f"{owner}{target.id} has no lock/thread-safety "
                            "annotation"
                        )
    return problems


# ----------------------------------------------------------------------
# the tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tree():
    return load_sources(ROOT)


class TestTree:
    def test_every_file_parses(self, tree):
        for base in SCANNED:
            assert any(s.rel.startswith(base + "/") for s in tree), base
        assert parse_problems(tree) == []

    def test_env_reads_match_readme_table(self, tree):
        assert env_problems(ROOT, tree) == []

    def test_telemetry_names_resolve(self, tree):
        assert telemetry_problems(tree) == []

    def test_every_known_span_has_a_call_site(self, tree):
        assert unused_span_problems(tree) == []

    def test_fast_path_contracts_hold(self, tree):
        assert fast_path_problems(tree, FAST_PATHS) == []

    def test_shared_state_is_annotated(self, tree):
        assert shared_state_problems(tree) == []


# ----------------------------------------------------------------------
# seeded-violation fixtures
# ----------------------------------------------------------------------
def _write(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def _sources(tmp_path):
    return load_sources(str(tmp_path), ["."])


def _readme(tmp_path, *names):
    rows = "".join(f"| `{name}` | `1` | effect |\n" for name in names)
    (tmp_path / "README.md").write_text(
        f"# fixture\n\n{ENV_TABLE_HEADER}\n| --- | --- | --- |\n{rows}\nmore\n"
    )


class TestEnvKnobs:
    def test_unregistered_read_fires(self, tmp_path):
        _readme(tmp_path)
        _write(
            tmp_path,
            "bad.py",
            """
            import os
            os.environ.get("REPRO_BOGUS_KNOB", "1")
            """,
        )
        assert env_problems(str(tmp_path), _sources(tmp_path)) == [
            "bad.py:3: reads REPRO_BOGUS_KNOB, which README's env table "
            "does not list"
        ]

    def test_indirect_constant_read_resolves(self, tmp_path):
        _write(
            tmp_path,
            "indirect.py",
            """
            import os
            _ENV = "REPRO_ALSO_BOGUS"
            value = os.environ[_ENV]
            """,
        )
        (source,) = _sources(tmp_path)
        assert list(env_reads(source.tree)) == [("REPRO_ALSO_BOGUS", 4)]

    def test_registered_and_foreign_reads_silent(self, tmp_path):
        _readme(tmp_path, "REPRO_TRACE", "REPRO_CACHE_DIR", "REPRO_WORKERS")
        _write(
            tmp_path,
            "ok.py",
            """
            import os
            from os import environ
            os.environ.get("REPRO_TRACE")       # documented knob
            os.environ.get("HOME")              # not our namespace
            os.getenv("REPRO_CACHE_DIR")
            environ.setdefault("REPRO_WORKERS", "1")
            """,
        )
        assert env_problems(str(tmp_path), _sources(tmp_path)) == []

    def test_unread_readme_row_fires(self, tmp_path):
        _readme(tmp_path, "REPRO_TRACE", "REPRO_STALE")
        _write(tmp_path, "ok.py", 'import os\nos.environ.get("REPRO_TRACE")\n')
        assert env_problems(str(tmp_path), _sources(tmp_path)) == [
            "README.md: env table lists REPRO_STALE, which no scanned file reads"
        ]


class TestReadmeEnvTable:
    def test_matching_table_is_accepted(self, tmp_path):
        _readme(tmp_path, "REPRO_A", "REPRO_B")
        text = (tmp_path / "README.md").read_text()
        assert readme_env_names(text) == ["REPRO_A", "REPRO_B"]

    def test_dropped_row_fires(self, tmp_path):
        _readme(tmp_path, "REPRO_A")
        _write(
            tmp_path,
            "reads.py",
            'import os\nos.environ.get("REPRO_A")\nos.environ.get("REPRO_B")\n',
        )
        problems = env_problems(str(tmp_path), _sources(tmp_path))
        assert problems == [
            "reads.py:3: reads REPRO_B, which README's env table does not list"
        ]

    def test_missing_header_fires(self, tmp_path):
        (tmp_path / "README.md").write_text("# fixture\n\nno table\n")
        problems = env_problems(str(tmp_path), [])
        assert len(problems) == 1 and "header" in problems[0]

    def test_table_has_compiled_train_row(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
            names = readme_env_names(handle.read())
        assert "REPRO_COMPILED_TRAIN" in names and "REPRO_IR_VERIFY" not in names


class TestTelemetryNames:
    def test_unknown_names_fire_with_symbols(self, tmp_path):
        _write(
            tmp_path,
            "t.py",
            """
            def run(telemetry, tracer):
                telemetry.add("synth_callz", 1)
                telemetry.add_stage_time("synthesiss", 0.1)
                with tracer.span("bogus_span"):
                    pass
            """,
        )
        assert telemetry_problems(_sources(tmp_path)) == [
            "t.py:3: unknown counter 'synth_callz'",
            "t.py:4: unknown stage 'synthesiss'",
            "t.py:5: unknown span 'bogus_span'",
        ]

    def test_known_names_and_foreign_receivers_silent(self, tmp_path):
        _write(
            tmp_path,
            "ok.py",
            """
            def run(telemetry, tracer, queue):
                telemetry.add("synth_calls", 1)
                telemetry.add_stage_time("synthesis", 0.1)
                telemetry.add_stage_time("train_kernel:matmul", 0.1)
                with tracer.span("synthesize_chunk"):
                    pass
                trace.start_span("seed")
                queue.add("anything")  # not a telemetry receiver
            """,
        )
        assert telemetry_problems(_sources(tmp_path)) == []

    def test_stage_helper_first_positional_name(self, tmp_path):
        _write(
            tmp_path,
            "s.py",
            """
            def run(telemetry):
                with stage(telemetry, "not_a_stage"):
                    pass
                with stage(telemetry, "train"):
                    pass
            """,
        )
        assert telemetry_problems(_sources(tmp_path)) == [
            "s.py:3: unknown stage 'not_a_stage'"
        ]

    def test_start_span_literal_fires(self, tmp_path):
        _write(
            tmp_path,
            "sp.py",
            """
            from repro.obs import trace
            from repro.obs.trace import span

            span_ = trace.start_span("typo")
            with span("also_typo"):
                pass
            """,
        )
        assert telemetry_problems(_sources(tmp_path)) == [
            "sp.py:5: unknown span 'typo'",
            "sp.py:6: unknown span 'also_typo'",
        ]

    def test_span_without_call_site_fires(self, tmp_path):
        _write(
            tmp_path,
            "used.py",
            """
            from repro.obs import trace

            with trace.span("seed"):
                pass
            tracer.start_span("synthesize").finish()
            span_name = "gather"  # a bare string is not a call site
            """,
        )
        sources = _sources(tmp_path)
        assert unused_span_problems(sources, ["seed", "synthesize"]) == []
        assert unused_span_problems(sources, ["seed", "synthesize", "gather"]) == [
            "KNOWN_SPANS: 'gather' has no span(...)/start_span(...) call site"
        ]

    def test_registering_gather_again_fires_on_the_tree(self, tree):
        from repro.engine.telemetry import KNOWN_SPANS

        known = set(KNOWN_SPANS) | {"gather"}
        assert unused_span_problems(tree, known) == [
            "KNOWN_SPANS: 'gather' has no span(...)/start_span(...) call site"
        ]


#: one fast path, as the fixtures below declare it.
_FIXTURE_PATH = (
    ("REPRO_COMPILED_TRAIN", "src/repro/fastmod.py", "reference_fn", "benchmarks/bench_fast.py"),
)

_FAST_MODULE = """
import os

def fast(x):
    if os.environ.get("REPRO_COMPILED_TRAIN", "1") == "0":
        return reference_fn(x)
    return x
"""


class TestFastPathContract:
    def test_incomplete_contract_fires_every_leg(self, tmp_path):
        _write(tmp_path, "src/repro/fastmod.py", "def fast(x):\n    return x\n")
        assert fast_path_problems(_sources(tmp_path), _FIXTURE_PATH) == [
            "src/repro/fastmod.py: never reads its kill switch REPRO_COMPILED_TRAIN",
            "src/repro/fastmod.py: never calls its reference reference_fn()",
            "benchmarks/bench_fast.py: missing (the bench of REPRO_COMPILED_TRAIN)",
        ]

    def test_complete_contract_is_silent(self, tmp_path):
        _write(tmp_path, "src/repro/fastmod.py", _FAST_MODULE)
        _write(tmp_path, "benchmarks/bench_fast.py", "from repro.fastmod import fast\n")
        assert fast_path_problems(_sources(tmp_path), _FIXTURE_PATH) == []

    def test_bench_not_importing_module_fires(self, tmp_path):
        _write(tmp_path, "src/repro/fastmod.py", _FAST_MODULE)
        _write(tmp_path, "benchmarks/bench_fast.py", "import os\n")
        assert fast_path_problems(_sources(tmp_path), _FIXTURE_PATH) == [
            "benchmarks/bench_fast.py: does not import repro.fastmod"
        ]

    def test_missing_module_fires(self, tmp_path):
        assert fast_path_problems([], _FIXTURE_PATH) == [
            "src/repro/fastmod.py: missing (the module of REPRO_COMPILED_TRAIN)"
        ]


class TestThreadSafety:
    def _problems(self, tmp_path, rel, text):
        _write(tmp_path, rel, text)
        return shared_state_problems(_sources(tmp_path))

    def test_unannotated_shared_state_warns(self, tmp_path):
        problems = self._problems(
            tmp_path,
            "src/repro/engine/state.py",
            """
            CACHE = {}

            class Registry:
                entries = []
            """,
        )
        assert problems == [
            "src/repro/engine/state.py:2: mutable shared state CACHE has no "
            "lock/thread-safety annotation",
            "src/repro/engine/state.py:5: mutable shared state Registry.entries "
            "has no lock/thread-safety annotation",
        ]

    def test_annotation_and_dunders_silence(self, tmp_path):
        problems = self._problems(
            tmp_path,
            "src/repro/engine/state.py",
            """
            __all__ = ["CACHE"]

            # thread-safety: guarded by _LOCK in every accessor.
            CACHE = {}
            PENDING = []  # lock-guarded
            # Guarded by _LOCK.
            SEEN = set()
            # thread-safe: written once at import.
            NAMES = ["a"]
            """,
        )
        assert problems == []

    @pytest.mark.parametrize(
        "comment", ["# one block per graph", "# wall clock"], ids=["block", "clock"]
    )
    def test_substring_lock_does_not_annotate(self, tmp_path, comment):
        problems = self._problems(
            tmp_path, "src/repro/engine/state.py", f"{comment}\n_CACHE = {{}}\n"
        )
        assert problems == [
            "src/repro/engine/state.py:2: mutable shared state _CACHE has no "
            "lock/thread-safety annotation"
        ]

    def test_out_of_scope_files_ignored(self, tmp_path):
        assert self._problems(tmp_path, "src/repro/prefix/state.py", "CACHE = {}\n") == []


class TestParseErrors:
    def test_syntax_error_is_reported(self, tmp_path):
        _write(tmp_path, "broken.py", "def nope(:\n")
        (problem,) = parse_problems(_sources(tmp_path))
        assert problem.startswith("broken.py: cannot parse:")


class TestLoadSources:
    def test_skips_pycache_and_dotdirs(self, tmp_path):
        _write(tmp_path, "pkg/__pycache__/junk.py", "x = (\n")
        _write(tmp_path, "pkg/.hidden/junk.py", "x = (\n")
        _write(tmp_path, "pkg/ok.py", "x = 1\n")
        assert [s.rel for s in load_sources(str(tmp_path), ["pkg"])] == ["pkg/ok.py"]
