"""End-to-end tests for the run lifecycle.

Covers run -> events -> checkpoint -> interrupt -> resume, with resumed
records bit-identical to an uninterrupted run for every registered
method and zero new synthesis for already-recorded evaluations.
"""

import os
import threading

import numpy as np
import pytest

from repro.api import (
    EvaluationDone,
    ExperimentStarted,
    ExperimentSpec,
    MethodSpec,
    RunDirectory,
    SeedFinished,
    SeedStarted,
    Session,
    TaskSpec,
)
from repro.api.cli import main
from repro.opt import RunInterrupted, load_records


def assert_bit_identical(record, reference):
    """Everything paper-semantics must match exactly; telemetry may not
    (a resumed run replays recorded evaluations from the cache)."""
    assert record.method == reference.method
    assert record.task_name == reference.task_name
    assert record.seed == reference.seed
    np.testing.assert_array_equal(record.costs, reference.costs)
    np.testing.assert_array_equal(record.areas, reference.areas)
    np.testing.assert_array_equal(record.delays, reference.delays)
    assert record.best_graph == reference.best_graph


def tiny_spec(name="lifecycle", **overrides):
    base = dict(
        name=name,
        task=TaskSpec(circuit_type="adder", n=4, delay_weight=0.66),
        methods=(
            MethodSpec("GA", params={"population_size": 8}),
            MethodSpec("Random"),
        ),
        budget=6,
        num_seeds=2,
        curve_points=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def stop_after_evaluations(count):
    """A synchronous on_event observer that interrupts deterministically
    after the ``count``-th EvaluationDone event."""
    seen = {"n": 0}

    def observer(event):
        if isinstance(event, EvaluationDone):
            seen["n"] += 1
            if seen["n"] >= count:
                raise RunInterrupted(f"test stop after evaluation {count}")

    return observer


class TestEventStream:
    def test_stream_shape_and_contents(self):
        spec = tiny_spec()
        events = []
        with Session() as session:
            result = session.run(spec, on_event=events.append)

        assert isinstance(events[0], ExperimentStarted)
        assert isinstance(events[-1], SeedFinished)
        assert events[0].methods == ("GA", "Random")
        assert tuple(events[0].seeds) == tuple(spec.seed_list())

        started = [e for e in events if isinstance(e, SeedStarted)]
        finished = [e for e in events if isinstance(e, SeedFinished)]
        cells = {(m.display_name, s) for m in spec.methods for s in spec.seed_list()}
        assert {(e.method, e.seed) for e in started} == cells
        assert {(e.method, e.seed) for e in finished} == cells
        assert all(e.replayed == 0 for e in started)
        assert not any(e.resumed for e in finished)

        evaluations = [e for e in events if isinstance(e, EvaluationDone)]
        total_sims = sum(
            r.num_simulations for rs in result.records.values() for r in rs
        )
        assert len(evaluations) == total_sims
        # per-cell: sim_index counts up, best_cost is the running minimum
        for method, seed in cells:
            cell = [e for e in evaluations if (e.method, e.seed) == (method, seed)]
            assert [e.sim_index for e in cell] == list(range(1, len(cell) + 1))
            running = np.minimum.accumulate([e.cost for e in cell])
            np.testing.assert_array_equal([e.best_cost for e in cell], running)

    def test_streamed_records_match_blocking_run(self):
        # Observing every event changes nothing about the records.
        spec = tiny_spec()
        with Session() as session:
            reference = session.run(spec)
        events = []
        with Session() as session:
            result = session.run(spec, on_event=events.append)
        assert events
        for name in reference.records:
            for a, b in zip(reference.records[name], result.records[name]):
                assert_bit_identical(b, a)


class TestRunDirectory:
    def test_layout_and_durability(self, tmp_path):
        spec = tiny_spec()
        out = str(tmp_path / "run")
        durable_lines = []

        def observer(event):
            # Runs as the event is emitted: the evaluation it
            # announces must already be in the cell's history on disk.
            if isinstance(event, EvaluationDone):
                history = RunDirectory.open(out).load_history(event.method, event.seed)
                durable_lines.append((len(history), event.sim_index))

        with Session() as session:
            result = session.run(spec, out_dir=out, on_event=observer)

        run_dir = RunDirectory.open(out)
        assert run_dir.status == "finished"
        assert run_dir.spec() == spec
        assert result.run_dir == run_dir.path

        # each EvaluationDone is emitted after its history line is durable
        assert len(durable_lines) == sum(
            r.num_simulations for r in result.all_records()
        )
        assert all(lines == sim for lines, sim in durable_lines)

        for method_spec in spec.methods:
            name = method_spec.display_name
            for seed, record in zip(spec.seed_list(), result.records[name]):
                history = run_dir.load_history(name, seed)
                assert len(history) == record.num_simulations
                np.testing.assert_array_equal(
                    [e.cost for e in history], record.costs
                )
                ledgered = run_dir.completed_record(name, seed)
                assert_bit_identical(ledgered, record)

        reloaded = load_records(run_dir.records_path())
        assert len(reloaded) == len(result.all_records())
        for restored, original in zip(reloaded, result.all_records()):
            assert_bit_identical(restored, original)

    def test_refuses_existing_run_directory(self, tmp_path):
        out = str(tmp_path / "run")
        with Session() as session:
            session.run(tiny_spec(), out_dir=out)
            with pytest.raises(ValueError, match="already holds a run"):
                session.run(tiny_spec(), out_dir=out)

    def test_progress_reports_cell_states(self, tmp_path):
        out = str(tmp_path / "run")
        with Session() as session:
            with pytest.raises(RunInterrupted):
                session.run(
                    tiny_spec(), out_dir=out, on_event=stop_after_evaluations(3)
                )
        rows = RunDirectory.open(out).progress()
        states = {(r["method"], r["seed"]): r["state"] for r in rows}
        assert len(states) == 4
        assert "partial" in states.values() or "done" in states.values()
        assert "pending" in states.values()  # later cells never started


# ----------------------------------------------------------------------
# The acceptance criterion: interrupted-then-resumed == uninterrupted,
# bit-identically, for every registered method, with zero new synthesis
# for already-recorded evaluations.
# ----------------------------------------------------------------------
def _tiny_vae_params(initial_samples=12):
    return dict(
        latent_dim=6,
        base_channels=4,
        hidden_dim=32,
        initial_samples=initial_samples,
        first_round_epochs=4,
        train=dict(epochs=2, batch_size=16),
        search=dict(num_parallel=6, num_steps=10, capture_every=5),
    )


# method name -> (MethodSpec, TaskSpec, budget, evaluations before stop)
RESUME_CASES = {
    "GA": (
        MethodSpec("GA", params=dict(population_size=8)),
        TaskSpec(circuit_type="adder", n=4),
        6,
        2,
    ),
    "Random": (MethodSpec("Random"), TaskSpec(circuit_type="adder", n=4), 6, 2),
    "RL": (
        MethodSpec(
            "RL",
            params=dict(
                episode_length=6, base_channels=4, hidden_dim=16,
                batch_size=8, replay_capacity=64,
            ),
        ),
        TaskSpec(circuit_type="adder", n=4),
        6,
        2,
    ),
    "CircuitVAE": (
        MethodSpec("CircuitVAE", params=_tiny_vae_params()),
        TaskSpec(circuit_type="adder", n=8),
        24,
        14,
    ),
    "BO": (
        MethodSpec(
            "BO",
            params=dict(
                vae=_tiny_vae_params(initial_samples=10),
                batch_per_round=6, candidate_pool=24, gp_max_points=24,
            ),
        ),
        TaskSpec(circuit_type="adder", n=8),
        20,
        12,
    ),
}


class TestInterruptResume:
    @pytest.mark.parametrize("name", sorted(RESUME_CASES))
    def test_resume_bit_identical_with_zero_resynthesis(self, name, tmp_path):
        method_spec, task_spec, budget, stop_at = RESUME_CASES[name]
        spec = ExperimentSpec(
            name=f"resume-{name}",
            task=task_spec,
            methods=(method_spec,),
            budget=budget,
            seeds=(0,),
            curve_points=1,
        )
        with Session() as session:
            reference = session.run(spec).records[name][0]

        out = str(tmp_path / "run")
        with Session() as session:
            with pytest.raises(RunInterrupted, match="resume"):
                session.run(
                    spec, out_dir=out, on_event=stop_after_evaluations(stop_at)
                )

        run_dir = RunDirectory.open(out)
        assert run_dir.status == "interrupted"
        recorded = len(run_dir.load_history(name, 0))
        assert recorded == stop_at  # the synchronous stop is exact
        assert recorded < reference.num_simulations  # genuinely partial
        assert run_dir.completed_record(name, 0) is None

        # Resume in a *fresh* session (empty engine cache): everything
        # recorded must come back via replay priming, not residual state.
        events = []
        with Session() as session:
            result = session.resume(out, on_event=events.append)
        replayed = [e.replayed for e in events if isinstance(e, SeedStarted)]

        assert replayed == [recorded]
        record = result.records[name][0]
        assert_bit_identical(record, reference)
        assert RunDirectory.open(out).status == "finished"

        # Zero new synthesis for already-recorded evaluations: the
        # replayed prefix is served from the primed cache.
        telemetry = record.telemetry
        assert telemetry["synth_calls"] == record.num_simulations - recorded
        assert telemetry["memory_hits"] + telemetry["disk_hits"] >= recorded

        # The persisted final records are identical too.
        (reloaded,) = load_records(run_dir.records_path())
        assert_bit_identical(reloaded, reference)

    def test_resume_mixed_grid_with_parallel_seeds(self, tmp_path):
        # Several methods x seeds interrupted mid-grid: resume must skip
        # ledgered cells, replay the partial one and run pending ones.
        spec = tiny_spec(name="resume-grid")
        with Session() as session:
            reference = session.run(spec)

        out = str(tmp_path / "run")
        with Session() as session:
            with pytest.raises(RunInterrupted):
                session.run(spec, out_dir=out, on_event=stop_after_evaluations(8))

        with Session(parallel_seeds=2) as session:
            result = session.resume(out)

        for method in reference.records:
            for a, b in zip(reference.records[method], result.records[method]):
                assert_bit_identical(b, a)

    def test_resume_of_finished_run_is_a_noop(self, tmp_path, monkeypatch):
        from repro.engine import SynthesisPool

        spec = tiny_spec(name="resume-noop")
        out = str(tmp_path / "run")
        with Session() as session:
            reference = session.run(spec, out_dir=out)
        batches = []
        real_batch = SynthesisPool.synthesize_batch
        monkeypatch.setattr(
            SynthesisPool,
            "synthesize_batch",
            lambda pool, task, graphs: batches.append(len(graphs))
            or real_batch(pool, task, graphs),
        )
        events = []
        with Session() as session:
            result = session.resume(out, on_event=events.append)
        # every cell served from the ledger; the engine synthesized nothing
        assert batches == []
        finished = [e for e in events if isinstance(e, SeedFinished)]
        assert finished and all(e.resumed for e in finished)
        assert not any(isinstance(e, SeedStarted) for e in events)
        for method in reference.records:
            for a, b in zip(reference.records[method], result.records[method]):
                assert_bit_identical(b, a)


def _single_cell_spec(name):
    method_spec, task_spec, budget, stop_at = RESUME_CASES[name]
    spec = ExperimentSpec(
        name=f"resume-{name}",
        task=task_spec,
        methods=(method_spec,),
        budget=budget,
        seeds=(0,),
        curve_points=1,
    )
    return spec, stop_at


def _trail_bytes(out, name):
    path = os.path.join(RunDirectory.open(out).cell_dir(name, 0), "history.jsonl")
    with open(path, "rb") as handle:
        return handle.read()


def _interrupted_run(spec, out, stop_at):
    with Session() as session:
        with pytest.raises(RunInterrupted):
            session.run(spec, out_dir=out, on_event=stop_after_evaluations(stop_at))


class TestAppendOnlyTrail:
    """A restarting cell keeps its recorded prefix on disk and appends
    past it, so crashes during a resume and torn final lines lose
    nothing and leave the trail byte-identical to an uninterrupted one."""

    @pytest.mark.parametrize("name", ["CircuitVAE", "GA"])
    def test_interrupting_the_replay_loses_nothing(self, name, tmp_path):
        spec, stop_at = _single_cell_spec(name)
        ref_out = str(tmp_path / "ref")
        with Session() as session:
            reference = session.run(spec, out_dir=ref_out).records[name][0]

        out = str(tmp_path / "run")
        _interrupted_run(spec, out, stop_at)
        run_dir = RunDirectory.open(out)
        assert len(run_dir.load_history(name, 0)) == stop_at

        # Interrupt the resume itself while it is still replaying the
        # recorded prefix: the trail must not shrink below it.
        with Session() as session:
            with pytest.raises(RunInterrupted):
                session.resume(out, on_event=stop_after_evaluations(stop_at // 2))
        assert len(run_dir.load_history(name, 0)) == stop_at
        assert run_dir.completed_record(name, 0) is None

        events = []
        with Session() as session:
            record = session.resume(out, on_event=events.append).records[name][0]
        replayed = [e.replayed for e in events if isinstance(e, SeedStarted)]

        assert replayed == [stop_at]
        assert_bit_identical(record, reference)
        telemetry = record.telemetry
        assert telemetry["synth_calls"] == record.num_simulations - stop_at
        assert telemetry["memory_hits"] + telemetry["disk_hits"] >= stop_at
        assert _trail_bytes(out, name) == _trail_bytes(ref_out, name)
        assert not os.path.exists(
            os.path.join(run_dir.cell_dir(name, 0), "history.resume.jsonl")
        )

    @pytest.mark.parametrize("name", ["CircuitVAE", "GA"])
    def test_truncated_last_line_is_dropped_on_resume(self, name, tmp_path):
        import warnings

        spec, stop_at = _single_cell_spec(name)
        ref_out = str(tmp_path / "ref")
        with Session() as session:
            reference = session.run(spec, out_dir=ref_out).records[name][0]

        out = str(tmp_path / "run")
        _interrupted_run(spec, out, stop_at)
        run_dir = RunDirectory.open(out)
        path = os.path.join(run_dir.cell_dir(name, 0), "history.jsonl")
        with open(path, "a") as handle:
            handle.write('{"graph": {"version": 1, "n"')  # torn mid-append

        with pytest.warns(RuntimeWarning, match="corrupt evaluation-history"):
            with Session() as session:
                record = session.resume(out).records[name][0]
        assert_bit_identical(record, reference)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # parses cleanly: no torn line
            assert len(run_dir.load_history(name, 0)) == record.num_simulations
        assert _trail_bytes(out, name) == _trail_bytes(ref_out, name)


class TestInterruptBoundaries:
    def test_interrupt_lands_on_cache_hit_queries(self):
        # A method cycling through already-evaluated designs fires no
        # on_evaluation events; the abort hook at query entry must still
        # stop it at the next boundary.
        from repro.circuits import adder_task
        from repro.opt import CircuitSimulator
        from repro.prefix import sklansky

        simulator = CircuitSimulator(adder_task(4, 0.66), budget=5)
        simulator.query(sklansky(4))

        def abort():
            raise RunInterrupted("stop requested")

        simulator.check_abort = abort
        with pytest.raises(RunInterrupted):
            simulator.query(sklansky(4))  # a pure run-memo hit

    def test_on_event_interrupt_flags_the_whole_run(self, tmp_path):
        # RunInterrupted raised by the observer stops the whole run at
        # that exact boundary — nothing is emitted after the raising
        # event, no later cell starts — and flags it interrupted.
        out = str(tmp_path / "run")
        events = []

        def observer(event):
            events.append(event)
            stop(event)

        stop = stop_after_evaluations(2)
        with Session() as session:
            with pytest.raises(RunInterrupted):
                session.run(tiny_spec(name="flag"), out_dir=out, on_event=observer)
        assert isinstance(events[-1], EvaluationDone)
        evaluations = [e for e in events if isinstance(e, EvaluationDone)]
        assert len(evaluations) == 2  # the stopping evaluation included
        assert len([e for e in events if isinstance(e, SeedStarted)]) == 1
        assert RunDirectory.open(out).status == "interrupted"

    @pytest.mark.parametrize(
        "error, status", [(RunInterrupted, "interrupted"), (ValueError, "failed")]
    )
    def test_a_failing_seed_stops_its_parallel_sibling(self, error, status, tmp_path):
        # One seed raises at its second evaluation while the other is
        # held mid-run; once released, the sibling must stop at its next
        # query boundary, well short of its budget, and the call must
        # raise the failing seed's error rather than the sibling's stop.
        spec = ExperimentSpec(
            name="sibling",
            task=TaskSpec(circuit_type="adder", n=8),
            methods=(MethodSpec("Random"),),
            budget=200,
            num_seeds=2,
            curve_points=1,
        )
        # The failing seed is the later one, so the run must not wait
        # on the sibling's result before it sees the failure.
        sibling, failing = spec.seed_list()
        raised = threading.Event()
        sibling_sims = []

        def observer(event):
            if not isinstance(event, EvaluationDone):
                return
            if event.seed == failing and event.sim_index == 2:
                raised.set()
                raise error("test failure in one seed")
            if event.seed == sibling:
                sibling_sims.append(event.sim_index)
                if event.sim_index == 1:
                    assert raised.wait(timeout=60)

        out = str(tmp_path / "run")
        with Session(parallel_seeds=2) as session:
            with pytest.raises(error) as caught:
                session.run(spec, out_dir=out, on_event=observer)
        # RunInterrupted is re-raised with the resume hint, from its cause.
        cause = caught.value.__cause__ or caught.value
        assert "test failure in one seed" in str(cause)
        run_dir = RunDirectory.open(out)
        assert run_dir.status == status
        assert 1 <= len(sibling_sims) < spec.budget
        assert run_dir.completed_record("Random", sibling) is None
        assert not os.path.exists(run_dir._lock_path())

    def test_live_run_directory_refuses_concurrent_execution(self, tmp_path):
        # Two executors appending to the same cell trails would lose
        # evaluations; the advisory lock refuses the second one.
        out = str(tmp_path / "run")
        with Session() as session:
            session.run(tiny_spec(name="locked"), out_dir=out)
        run_dir = RunDirectory.open(out)
        run_dir.acquire_lock()  # simulate another live executor (our pid)
        try:
            with Session() as session:
                with pytest.raises(ValueError, match="live process"):
                    session.resume(out)
        finally:
            run_dir.release_lock()
        # a stale lock (dead pid) is stolen: resume proceeds, but the
        # steal is announced with a warning naming the dead pid
        import json as _json

        dead_pid = 2 ** 22 + 12345  # unlikely-live pid
        with open(run_dir._lock_path(), "w") as handle:
            _json.dump({"pid": dead_pid}, handle)
        with pytest.warns(RuntimeWarning, match=f"stale advisory lock.*{dead_pid}"):
            with Session() as session:
                session.resume(out)
        assert not os.path.exists(run_dir._lock_path())  # released on settle


class TestCLILifecycle:
    def test_run_out_dir_status_and_resume(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        spec_path = str(tmp_path / "spec.json")
        from repro.api import save_spec

        save_spec(tiny_spec(name="cli-lifecycle"), spec_path)

        assert main(["run", spec_path, "--out-dir", out, "--progress"]) == 0
        output = capsys.readouterr().out
        assert "run directory" in output
        assert "best" in output  # --progress printed per-seed lines

        assert main(["status", out]) == 0
        status_out = capsys.readouterr().out
        assert "finished" in status_out
        assert "done" in status_out
        assert "GA" in status_out and "Random" in status_out

        # resuming a finished run from the CLI is a clean no-op
        assert main(["run", "--resume", out]) == 0
        capsys.readouterr()

    def test_ctrl_c_exits_130_with_the_resume_command(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.api.rundir import RunCellWriter

        out = str(tmp_path / "run")
        spec_path = str(tmp_path / "spec.json")
        from repro.api import save_spec

        save_spec(tiny_spec(name="cli-ctrl-c"), spec_path)
        appends = {"n": 0}
        real_append = RunCellWriter.append

        def append_then_ctrl_c(writer, evaluation):
            real_append(writer, evaluation)
            appends["n"] += 1
            if appends["n"] == 3:
                raise KeyboardInterrupt

        monkeypatch.setattr(RunCellWriter, "append", append_then_ctrl_c)
        assert main(["run", spec_path, "--out-dir", out]) == 130
        assert f"--resume {os.path.abspath(out)}" in capsys.readouterr().err
        assert RunDirectory.open(out).status == "interrupted"

        monkeypatch.setattr(RunCellWriter, "append", real_append)
        assert main(["run", "--resume", out]) == 0
        capsys.readouterr()
        assert RunDirectory.open(out).status == "finished"

    def test_run_quiet_by_default(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        spec_path = str(tmp_path / "spec.json")
        from repro.api import save_spec

        save_spec(tiny_spec(name="cli-quiet"), spec_path)
        assert main(["run", spec_path, "--out-dir", out]) == 0
        output = capsys.readouterr().out
        assert "] sim " not in output  # no per-evaluation progress lines

    def test_cli_validation_errors(self, tmp_path, capsys):
        assert main(["run"]) == 2
        assert "spec file" in capsys.readouterr().err
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "not a run directory" in capsys.readouterr().err
        out = str(tmp_path / "run")
        with Session() as session:
            session.run(tiny_spec(name="cli-err"), out_dir=out)
        spec_path = str(tmp_path / "spec.json")
        from repro.api import save_spec

        save_spec(tiny_spec(name="cli-err"), spec_path)
        assert main(["run", spec_path, "--resume", out]) == 2
        assert "drop the spec argument" in capsys.readouterr().err
        # reusing a directory that already holds a run: friendly
        # one-liner, not a traceback
        assert main(["run", spec_path, "--out-dir", out]) == 2
        assert "already holds a run" in capsys.readouterr().err


class TestTrainingCheckpointsInRunDir:
    """Durable CircuitVAE runs checkpoint training epochs per cell, and
    resume restores them instead of re-training (PR-5 satellite)."""

    def _vae_spec(self, name, budget=24):
        return ExperimentSpec(
            name=name,
            task=TaskSpec(circuit_type="adder", n=8),
            methods=(MethodSpec("CircuitVAE", params=_tiny_vae_params()),),
            budget=budget,
            seeds=(0,),
            curve_points=1,
        )

    def test_durable_run_writes_train_checkpoints_and_events(self, tmp_path):
        spec = self._vae_spec("train-ckpt")
        out = str(tmp_path / "run")
        events = []
        with Session() as session:
            result = session.run(spec, out_dir=out, on_event=events.append)
        record = result.records["CircuitVAE"][0]
        train_dir = os.path.join(
            RunDirectory.open(out).cell_dir("CircuitVAE", 0), "train"
        )
        files = sorted(os.listdir(train_dir))
        assert "round000.npz" in files and "round000.json" in files
        assert any(isinstance(e, EvaluationDone) for e in events)
        # the training rounds are accounted in the record's telemetry
        assert record.telemetry["train_epochs"] > 0
        assert record.telemetry["train_epochs_skipped"] == 0

    def test_resume_skips_completed_training_epochs(self, tmp_path):
        spec = self._vae_spec("train-ckpt-resume")
        with Session() as session:
            reference = session.run(spec).records["CircuitVAE"][0]
        ref_epochs = reference.telemetry["train_epochs"]
        assert ref_epochs > 0
        assert reference.telemetry["train_epochs_skipped"] == 0

        out = str(tmp_path / "run")
        with Session() as session:
            with pytest.raises(RunInterrupted):
                session.run(spec, out_dir=out, on_event=stop_after_evaluations(16))

        with Session() as session:
            result = session.resume(out)
        record = result.records["CircuitVAE"][0]
        assert_bit_identical(record, reference)
        # The resumed attempt restored at least the first round's epochs
        # from the interrupted attempt's checkpoints instead of
        # re-training them.
        assert record.telemetry["train_epochs_skipped"] > 0
        assert record.telemetry["train_epochs"] < ref_epochs
        assert (
            record.telemetry["train_epochs"]
            + record.telemetry["train_epochs_skipped"]
            >= ref_epochs
        )

    def test_ctrl_c_in_training_settles_and_resumes(self, tmp_path, monkeypatch):
        # A KeyboardInterrupt lands wherever the caller's thread is — here
        # inside the second training round, between query boundaries.
        # The run must still settle (run.json interrupted, lock
        # released) and resume bit-identically.
        import repro.core.algorithm as algorithm

        spec = self._vae_spec("train-ctrl-c", budget=36)  # two rounds
        with Session() as session:
            reference = session.run(spec).records["CircuitVAE"][0]

        rounds = {"n": 0}
        real_train = algorithm.train_model

        def train_then_ctrl_c(*args, **kwargs):
            rounds["n"] += 1
            if rounds["n"] == 2:
                raise KeyboardInterrupt
            return real_train(*args, **kwargs)

        out = str(tmp_path / "run")
        monkeypatch.setattr(algorithm, "train_model", train_then_ctrl_c)
        with Session() as session:
            with pytest.raises(KeyboardInterrupt):
                session.run(spec, out_dir=out)
        monkeypatch.setattr(algorithm, "train_model", real_train)
        assert rounds["n"] == 2
        run_dir = RunDirectory.open(out)
        assert run_dir.status == "interrupted"
        assert not os.path.exists(run_dir._lock_path())
        recorded = len(run_dir.load_history("CircuitVAE", 0))
        assert 0 < recorded < reference.num_simulations

        with Session() as session:
            record = session.resume(out).records["CircuitVAE"][0]
        assert_bit_identical(record, reference)
        assert run_dir.status == "finished"
