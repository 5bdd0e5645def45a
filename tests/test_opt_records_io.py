"""Tests for run-record persistence (repro.opt.records_io) and the
run-directory history writer that appends to it
(repro.api.rundir.RunCellWriter)."""

import json
import os

import numpy as np
import pytest

from repro.api import RunDirectory
from repro.api.rundir import RunCellWriter
from repro.opt import (
    Evaluation,
    RunRecord,
    load_evaluations,
    load_records,
    save_records,
)
from repro.prefix import sklansky, ripple_carry
from repro.utils.io import atomic_write_json


def make_record(seed=0):
    rng = np.random.default_rng(seed)
    costs = rng.random(10)
    return RunRecord(
        method="VAE", task_name="adder8@w0.66", seed=seed,
        costs=costs, areas=costs * 100, delays=costs / 10,
    )


class TestRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        path = str(tmp_path / "runs.json")
        records = [make_record(0), make_record(1)]
        save_records(path, records)
        loaded = load_records(path)
        assert len(loaded) == 2
        for original, restored in zip(records, loaded):
            assert restored.method == original.method
            assert restored.seed == original.seed
            np.testing.assert_array_equal(restored.costs, original.costs)
            np.testing.assert_array_equal(restored.delays, original.delays)

    def test_loaded_records_support_statistics(self, tmp_path):
        from repro.opt import aggregate_curves

        path = str(tmp_path / "runs.json")
        save_records(path, [make_record(0), make_record(1)])
        agg = aggregate_curves(load_records(path), budgets=[5, 10])
        assert agg["median"].shape == (2,)

    def test_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "runs.json")
        save_records(path, [make_record()])
        assert load_records(path)[0].method == "VAE"


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "runs.json")
        save_records(path, [make_record()])
        save_records(path, [make_record(1)])  # overwrite goes through temp too
        assert os.listdir(tmp_path) == ["runs.json"]

    def test_failed_write_preserves_existing_file(self, tmp_path):
        path = str(tmp_path / "runs.json")
        save_records(path, [make_record()])
        before = open(path).read()
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})  # unserializable
        assert open(path).read() == before
        assert os.listdir(tmp_path) == ["runs.json"]  # no stray temp files

    def test_atomic_write_creates_parents(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "meta.json")
        atomic_write_json(path, {"ok": 1})
        assert json.load(open(path)) == {"ok": 1}


def make_evaluations(n=4):
    graphs = [sklansky(n), ripple_carry(n)]
    return [
        Evaluation(
            graph=graph, cost=1.5 + i, area_um2=10.0 * (i + 1),
            delay_ns=0.25 * (i + 1), sim_index=i + 1,
        )
        for i, graph in enumerate(graphs)
    ]


def cell_writer(tmp_path, method="GA", seed=0):
    return RunCellWriter(RunDirectory(str(tmp_path / "run")), method, seed)


def write_history(tmp_path, evaluations):
    """A cell trail holding ``evaluations``, written and closed."""
    writer = cell_writer(tmp_path)
    for evaluation in evaluations:
        writer.append(evaluation)
    writer.close()
    return writer.history_path


class TestEvaluationHistory:
    def test_append_and_load_roundtrip(self, tmp_path):
        evaluations = make_evaluations()
        writer = cell_writer(tmp_path)
        assert writer.recorded == []  # a first run replays nothing
        writer.append(evaluations[0])
        writer.append(evaluations[1])
        writer.close()
        loaded = load_evaluations(writer.history_path)
        assert len(loaded) == 2
        for original, restored in zip(evaluations, loaded):
            assert restored.graph == original.graph
            assert restored.cost == original.cost
            assert restored.area_um2 == original.area_um2
            assert restored.delay_ns == original.delay_ns
            assert restored.sim_index == original.sim_index

    def test_each_line_is_visible_before_the_writer_closes(self, tmp_path):
        # One handle per cell, flushed per line: a reader (a resume after
        # a SIGKILL, `repro status`) sees every appended evaluation.
        writer = cell_writer(tmp_path)
        for count, evaluation in enumerate(make_evaluations(), start=1):
            writer.append(evaluation)
            assert len(load_evaluations(writer.history_path)) == count
        writer.close()

    def test_handle_is_closed_after_finish(self, tmp_path):
        writer = cell_writer(tmp_path)
        writer.append(make_evaluations()[0])
        writer.finish(make_record())
        assert writer._handle.closed
        run_dir = RunDirectory(str(tmp_path / "run"))
        assert run_dir.completed_record("GA", 0).method == "VAE"

    def test_handle_is_closed_after_an_interrupted_cell(self, tmp_path, monkeypatch):
        from repro.api import (
            EvaluationDone,
            ExperimentSpec,
            MethodSpec,
            Session,
            TaskSpec,
        )
        from repro.opt import RunInterrupted

        writers = []
        real_init = RunCellWriter.__init__

        def tracking_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            writers.append(self)

        monkeypatch.setattr(RunCellWriter, "__init__", tracking_init)

        def stop(event):
            if isinstance(event, EvaluationDone) and event.sim_index == 2:
                raise RunInterrupted("test stop")

        spec = ExperimentSpec(
            name="writer-close",
            task=TaskSpec(circuit_type="adder", n=4),
            methods=(MethodSpec("Random"),),
            budget=6,
            seeds=(0,),
            curve_points=3,
        )
        with Session() as session:
            with pytest.raises(RunInterrupted):
                session.run(spec, out_dir=str(tmp_path / "run"), on_event=stop)
        assert len(writers) == 1
        assert writers[0]._handle.closed

    def test_restart_keeps_the_recorded_prefix_and_appends_past_it(self, tmp_path):
        first, second = make_evaluations()
        path = write_history(tmp_path, [first])
        before = open(path).read()
        writer = cell_writer(tmp_path)
        assert [e.sim_index for e in writer.recorded] == [1]
        writer.append(first)  # replayed: already on disk
        assert open(path).read() == before
        writer.append(second)
        writer.close()
        assert [e.sim_index for e in load_evaluations(path)] == [1, 2]

    def test_truncated_final_line_is_skipped_with_warning(self, tmp_path):
        # the signature of a writer SIGKILLed mid-append
        path = write_history(tmp_path, make_evaluations())
        with open(path, "a") as handle:
            handle.write('{"graph": {"version": 1, "n"')  # no newline, cut off
        with pytest.warns(RuntimeWarning, match="corrupt evaluation-history"):
            loaded = load_evaluations(path)
        assert len(loaded) == 2
        # a restarting writer drops the torn tail from the file itself
        with pytest.warns(RuntimeWarning, match="corrupt evaluation-history"):
            cell_writer(tmp_path).close()
        assert len(load_evaluations(path)) == 2

    def test_blank_lines_ignored(self, tmp_path):
        path = write_history(tmp_path, make_evaluations()[:1])
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_evaluations(path)) == 1


class TestValidation:
    def test_version_check(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"version": 42, "records": []}, fh)
        with pytest.raises(ValueError):
            load_records(path)

    def test_corrupt_lengths_rejected(self, tmp_path):
        path = str(tmp_path / "corrupt.json")
        payload = {
            "version": 1,
            "records": [{
                "method": "X", "task_name": "t", "seed": 0,
                "costs": [1.0, 2.0], "areas": [1.0], "delays": [1.0, 2.0],
            }],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError):
            load_records(path)
