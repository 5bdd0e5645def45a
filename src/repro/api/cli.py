"""``python -m repro`` — the command-line frontend over specs + sessions.

Four subcommands:

``run <spec.json>`` / ``run --resume <run_dir>``
    Load, validate and execute a declarative experiment spec; print the
    per-method summary table and optionally persist the run records.
    ``--out-dir`` makes the run durable (a resumable run directory with
    per-seed evaluation history checkpointed after every simulation);
    Ctrl-C then stops it losslessly and ``--resume <run_dir>`` continues
    it bit-identically.  ``--progress`` streams per-seed best-cost lines
    while the run executes (quiet by default so CI logs stay clean).
``status <run_dir>``
    Inspect a run directory without touching it: overall lifecycle
    state plus a per-(method, seed) table of done/partial/pending cells.
    ``--follow`` then tails the run's live span stream (``trace.jsonl``)
    until the experiment root span lands or Ctrl-C.
``report <run_dir | trace.jsonl>``
    Post-hoc trace analysis: the hierarchical span tree with total/self
    attribution, the top-N hottest span names, the stage-seconds
    breakdown reproduced from the trace alone, and ``--perfetto`` to
    export a ``chrome://tracing`` / Perfetto-loadable JSON.
``methods``
    List every registered method with its config fields and defaults
    (the vocabulary a spec's ``params`` may use).

Reduced-scale versions of the paper's grid are spec files under
``examples/specs/`` and run with ``run``.

``--workers``, ``--cache-dir`` and ``--parallel-seeds`` override the
spec's :class:`~repro.api.spec.EngineSpec`, which in turn overrides the
environment; the CLI is the only reader of that block.  ``--out``
writes records via :mod:`repro.opt.records_io`.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from ..engine.pool import default_worker_count
from ..utils.tables import format_median_iqr, format_table
from . import registry
from .events import (
    EvaluationDone,
    ExperimentStarted,
    RunEvent,
    SeedFinished,
    SeedStarted,
)
from .rundir import RunDirectory
from .session import Session
from .spec import EngineSpec, ExperimentSpec, load_spec

__all__ = ["main"]


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------
class _ProgressPrinter:
    """Folds the run's events into per-seed best-cost lines.

    Prints a line when a seed starts/finishes and whenever its running
    best improves — enough to watch a long run converge without echoing
    every checkpoint.  With ``echo=False`` it prints nothing and only
    notes that the run started.  Seed threads call it concurrently, so
    each line is written in one call and each seed keeps its own entry.
    """

    def __init__(self, echo: bool) -> None:
        self._echo = echo
        #: whether the run got past setup (spec, run directory, lock).
        self.started = False
        self._best: Dict[Tuple[str, int], float] = {}

    def _say(self, line: str) -> None:
        if self._echo:
            sys.stdout.write(line + "\n")

    def __call__(self, event: RunEvent) -> None:
        if isinstance(event, ExperimentStarted):
            self.started = True
            where = f" -> {event.run_dir}" if event.run_dir else ""
            verb = "resuming" if event.resumed else "running"
            self._say(f"{verb} {event.run_id}{where}")
        elif isinstance(event, SeedStarted):
            note = f" (replaying {event.replayed} recorded evals)" if event.replayed else ""
            self._say(f"[{event.method} seed {event.seed}] started{note}")
        elif isinstance(event, EvaluationDone):
            key = (event.method, event.seed)
            if event.best_cost < self._best.get(key, float("inf")):
                self._best[key] = event.best_cost
                self._say(
                    f"[{event.method} seed {event.seed}] "
                    f"sim {event.sim_index}: best {event.best_cost:.4f}"
                )
        elif isinstance(event, SeedFinished):
            record = event.record
            source = "ledger" if event.resumed else f"{record.num_simulations} sims"
            best = record.best_cost() if record.num_simulations else float("nan")
            self._say(
                f"[{event.method} seed {event.seed}] finished "
                f"({source}), best {best:.4f}"
            )


def _resolve_trace_path(target: str) -> str:
    """``report``'s argument: a run directory or a trace file directly."""
    from ..obs.sink import TRACE_FILENAME

    if os.path.isdir(target):
        return os.path.join(target, TRACE_FILENAME)
    return target


def _print_report(args: argparse.Namespace) -> None:
    from ..obs.report import (
        build_tree,
        coverage,
        render_hot_stages,
        render_tree,
        stage_totals,
    )
    from ..obs.sink import export_perfetto, read_trace

    path = _resolve_trace_path(args.target)
    if not os.path.exists(path):
        raise ValueError(
            f"no trace at {path} (durable runs write one unless REPRO_TRACE=0)"
        )
    spans = read_trace(path)
    if not spans:
        raise ValueError(f"{path} holds no complete spans yet")
    roots = build_tree(spans)
    print(f"trace: {path}  ({len(spans)} spans)")
    for root in roots:
        if root.children:
            print(
                f"coverage: {coverage(root):.1%} of {root.name!r} "
                f"({root.duration:.3f}s) covered by direct children"
            )
    print()
    print(render_tree(roots, max_depth=args.max_depth, min_seconds=args.min_seconds))
    print()
    print(render_hot_stages(roots, top=args.top))
    totals = stage_totals(spans)
    if totals:
        print("\nstage seconds (reproduced from imposed stage spans):")
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<24} {seconds:.3f}")
    if args.perfetto is not None:
        out = export_perfetto(path, args.perfetto or None)
        print(f"\nperfetto trace written to {out}")


def _follow_status(run_dir: RunDirectory, interval: float) -> None:
    """Tail the run's span stream until the experiment root span lands.

    The experiment root is the last span the run writes before closing
    its sink, so seeing it finish means the run is over.  A terminal run
    with no trace file (``REPRO_TRACE=0``) is reported instead of waited
    on forever.
    """
    from ..obs.report import follow_trace

    trace_path = run_dir.trace_path()
    if not os.path.exists(trace_path) and run_dir.status in (
        "finished",
        "interrupted",
        "failed",
    ):
        print(f"(no trace stream: {trace_path} does not exist)")
        return
    print(f"following {trace_path}  (Ctrl-C to stop)")
    try:
        for span in follow_trace(trace_path, poll_interval=interval):
            duration_ms = (span.get("t1", 0.0) - span.get("t0", 0.0)) * 1e3
            attrs = span.get("attrs") or {}
            tags = " ".join(
                f"{key}={attrs[key]}"
                for key in ("method", "seed", "batch", "outcome", "status")
                if key in attrs
            )
            print(f"{span.get('name', '?'):<20} {duration_ms:10.2f} ms  {tags}")
            if span.get("name") == "experiment" and span.get("parent_id") is None:
                return
    except KeyboardInterrupt:
        print("", file=sys.stderr)


def _print_status(run_dir: RunDirectory) -> None:
    spec = run_dir.spec()
    task = spec.task
    print(
        f"run {run_dir.run_id}: {run_dir.status}  ({run_dir.path})\n"
        f"spec {spec.name}: {task.circuit_type}{task.n} @ w{task.delay_weight} "
        f"({task.library}), budget {spec.budget}, seeds {spec.seed_list()}"
    )
    rows = []
    for cell in run_dir.progress():
        best = "-" if cell["best_cost"] is None else f"{cell['best_cost']:.4f}"
        rows.append(
            [
                cell["method"],
                str(cell["seed"]),
                cell["state"],
                f"{cell['evaluations']}/{spec.budget}",
                best,
            ]
        )
    print(format_table(["method", "seed", "state", "evals", "best cost"], rows))


def _print_result(result, out: Optional[str]) -> None:
    from ..opt.results import median_iqr

    spec = result.spec
    task = spec.task
    print(
        f"{spec.name}: {task.circuit_type}{task.n} @ w{task.delay_weight} "
        f"({task.library}), budget {spec.budget}, seeds {spec.seed_list()}"
    )
    rows = []
    for name, records in result.records.items():
        best = median_iqr([r.best_cost() for r in records])
        sims = max(r.num_simulations for r in records)
        rows.append([name, format_median_iqr(*best, digits=3), str(sims)])
    print(format_table(["method", "best cost (median, IQR)", "sims used"], rows))
    if result.telemetry:
        t = result.telemetry
        print(
            f"engine: {t.get('synth_calls', 0)} synthesis calls, "
            f"{t.get('memory_hits', 0)} memory hits, "
            f"{t.get('disk_hits', 0)} disk hits"
        )
    if result.run_dir:
        print(f"run directory: {result.run_dir}")
    if out:
        result.save(out)
        print(f"records written to {out}")


def _default_repr(field: dataclasses.Field) -> str:
    if field.default is not dataclasses.MISSING:
        return repr(field.default)
    if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f"{field.default_factory().__class__.__name__}(...)"
    return "<required>"


def _print_methods() -> None:
    for name in registry.available_methods():
        entry = registry.get_method(name)
        print(f"{name}  ({entry.config_cls.__name__})")
        for f in dataclasses.fields(entry.config_cls):
            print(f"    {f.name} = {_default_repr(f)}")


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="synthesis worker processes (overrides the spec's engine block)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent evaluation-cache directory (overrides the spec)",
    )
    parser.add_argument(
        "--parallel-seeds", type=int, default=None,
        help="seeds run concurrently per method (overrides the spec)",
    )
    parser.add_argument(
        "--out", default=None, help="write run records to this path"
    )
    parser.add_argument(
        "--out-dir", default=None,
        help="create a durable, resumable run directory at this path "
        "(per-seed history checkpointed after every simulation)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="stream per-seed best-cost lines while the run executes",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run declarative CircuitVAE-reproduction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="execute an experiment spec (JSON file) or resume a run dir"
    )
    run_p.add_argument(
        "spec", nargs="?", default=None,
        help="path to an ExperimentSpec JSON file (omit with --resume)",
    )
    run_p.add_argument(
        "--resume", default=None, metavar="RUN_DIR",
        help="continue an interrupted run directory (the spec, finished "
        "cells and recorded evaluations all come from the directory)",
    )
    _add_execution_flags(run_p)

    status_p = sub.add_parser("status", help="inspect a run directory")
    status_p.add_argument("run_dir", help="path to a run directory")
    status_p.add_argument(
        "--follow", action="store_true",
        help="tail the run's live span stream (trace.jsonl) after the "
        "status table, until the run finishes or Ctrl-C",
    )
    status_p.add_argument(
        "--interval", type=float, default=0.5,
        help="poll interval in seconds for --follow (default 0.5)",
    )

    report_p = sub.add_parser(
        "report", help="analyze a run's trace: span tree + time attribution"
    )
    report_p.add_argument(
        "target", help="a run directory (containing trace.jsonl) or a trace file"
    )
    report_p.add_argument(
        "--top", type=int, default=10,
        help="hot-stage table size (default 10)",
    )
    report_p.add_argument(
        "--max-depth", type=int, default=None,
        help="truncate the span tree below this depth",
    )
    report_p.add_argument(
        "--min-seconds", type=float, default=0.0,
        help="hide spans shorter than this from the tree",
    )
    report_p.add_argument(
        "--perfetto", nargs="?", const="", default=None, metavar="OUT",
        help="also export a Perfetto/chrome://tracing JSON "
        "(default: <trace>.perfetto.json next to the trace)",
    )

    sub.add_parser("methods", help="list registered methods")

    return parser


def _effective_engine(spec: ExperimentSpec, args: argparse.Namespace) -> EngineSpec:
    """The spec's engine block with CLI flags applied — building an
    EngineSpec runs the same validation a spec-file value gets, so a bad
    ``--workers 0`` (or ``$REPRO_ENGINE_WORKERS``) fails in the
    friendly-error zone, not mid-run."""
    workers = args.workers if args.workers is not None else spec.engine.workers
    return EngineSpec(
        cache_dir=args.cache_dir if args.cache_dir is not None else spec.engine.cache_dir,
        workers=workers if workers is not None else default_worker_count(),
        parallel_seeds=(
            args.parallel_seeds
            if args.parallel_seeds is not None
            else spec.engine.parallel_seeds
        ),
    )


def _execute(
    spec: ExperimentSpec,
    engine: EngineSpec,
    out: Optional[str],
    out_dir: Optional[str] = None,
    resume: Optional[RunDirectory] = None,
    progress: bool = False,
) -> int:
    """Run (or resume) one experiment and print the outcome.

    Ctrl-C is first-class: the run settles as ``interrupted`` (so the
    run directory stays consistent) and the resume command is printed.
    Returns a shell exit code.
    """
    printer = _ProgressPrinter(echo=progress)
    with Session(
        cache_dir=engine.cache_dir,
        workers=engine.workers,
        parallel_seeds=engine.parallel_seeds,
    ) as session:
        try:
            result = (
                session.resume(resume, on_event=printer)
                if resume is not None
                else session.run(spec, out_dir=out_dir, on_event=printer)
            )
        except ValueError as error:
            if printer.started:
                raise  # a failure during execution keeps its traceback
            # e.g. --out-dir pointing at a directory that already holds
            # a run: validation, so it gets the friendly one-liner.
            print(f"error: {error}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            if not printer.started:
                raise
            where = resume.path if resume is not None else out_dir
            if where is not None:
                print(
                    f"\ninterrupted — continue with:\n"
                    f"  python -m repro run --resume {os.path.abspath(where)}",
                    file=sys.stderr,
                )
            else:
                print("\ninterrupted (no run directory; nothing kept)", file=sys.stderr)
            return 130
    _print_result(result, out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # The reader closed stdout (``| head``); that is not a bad
        # argument.  Exit as a SIGPIPE-killed command would, with stdout
        # on /dev/null so the interpreter's exit flush cannot fail again.
        _stdout_to_devnull()
        return 128 + 13


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:
        return  # an in-memory stream: nothing to flush at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "methods":
        _print_methods()
        return 0

    # Only spec/run-dir loading and validation get the friendly one-line
    # treatment; failures *during* execution are real bugs and keep
    # their traceback.
    resume = getattr(args, "resume", None)
    try:
        if args.command == "status":
            run_dir = RunDirectory.open(args.run_dir)
            _print_status(run_dir)
            if args.follow:
                _follow_status(run_dir, args.interval)
            return 0
        if args.command == "report":
            _print_report(args)
            return 0
        # run
        if resume is not None:
            if args.spec is not None:
                raise ValueError(
                    "--resume takes its spec from the run directory; "
                    "drop the spec argument"
                )
            if args.out_dir is not None:
                raise ValueError(
                    "--resume continues its own run directory; "
                    "--out-dir cannot redirect it"
                )
            # opened once; _execute resumes this same instance
            resume = RunDirectory.open(resume)
            spec = resume.spec()
        elif args.spec is None:
            raise ValueError("run needs a spec file (or --resume <run_dir>)")
        else:
            spec = load_spec(args.spec)
        engine = _effective_engine(spec, args)
    except BrokenPipeError:
        raise  # a closed stdout, handled by main
    except (ValueError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    return _execute(
        spec,
        engine,
        args.out,
        out_dir=args.out_dir,
        resume=resume,
        progress=args.progress,
    )
