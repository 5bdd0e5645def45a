"""End-to-end tests for Session.run and the python -m repro CLI."""

import io
import json
import os

import numpy as np
import pytest

from repro.api import ExperimentSpec, MethodSpec, Session, TaskSpec, load_spec
from repro.api.cli import main
from repro.api.events import EvaluationDone
from repro.baselines import GAConfig, GeneticAlgorithm, RandomSearch
from repro.circuits import adder_task
from repro.opt import RunInterrupted, load_records
from repro.obs.trace import Tracer
from repro.utils.threads import blas_thread_counts, usable_cores

from helpers import VAE_PARAMS, ListSink, run_serial_grid

SPECS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "specs",
)
TINY_SPEC_PATH = os.path.join(SPECS_DIR, "tiny.json")


def assert_bit_identical(record, reference):
    assert record.method == reference.method
    assert record.task_name == reference.task_name
    assert record.seed == reference.seed
    np.testing.assert_array_equal(record.costs, reference.costs)
    np.testing.assert_array_equal(record.areas, reference.areas)
    np.testing.assert_array_equal(record.delays, reference.delays)
    assert record.best_graph == reference.best_graph


def direct_reference_records(spec):
    """The same grid, hand-assembled below the API (plain serial
    simulators, hand-built algorithm factories)."""
    factories = {
        "GA": lambda seed: GeneticAlgorithm(GAConfig(population_size=8)),
        "Random": lambda seed: RandomSearch(),
    }
    task = adder_task(spec.task.n, spec.task.delay_weight)
    return {
        name: run_serial_grid(factory, task, spec.budget, spec.seed_list(), name)
        for name, factory in factories.items()
    }


def model_based_spec():
    """CircuitVAE and BO at the tiny ``VAE_PARAMS`` scale.  Budget 45
    takes every cell through a second training round (20 initial
    designs, at most 16 new ones per round)."""
    return ExperimentSpec(
        name="session-model-based",
        task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
        methods=(
            MethodSpec("CircuitVAE", params=VAE_PARAMS),
            MethodSpec(
                "BO",
                params=dict(
                    vae=VAE_PARAMS, batch_per_round=8, candidate_pool=64,
                    gp_max_points=64,
                ),
            ),
        ),
        budget=45,
        num_seeds=2,
        curve_points=3,
    )


class TestSessionRun:
    # A 4-bit task: tiny, but the design space holds only 7 unique legal
    # graphs, so budgets must stay below that.
    def spec(self):
        return ExperimentSpec(
            name="session-e2e",
            task=TaskSpec(circuit_type="adder", n=4, delay_weight=0.66),
            methods=(
                MethodSpec("GA", params={"population_size": 8}),
                MethodSpec("Random"),
            ),
            budget=6,
            num_seeds=2,
            curve_points=3,
        )

    def test_records_bit_identical_to_direct_seed_grid(self):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        reference = direct_reference_records(spec)
        assert set(result.records) == set(reference)
        for name in reference:
            assert len(result.records[name]) == len(reference[name])
            for record, ref in zip(result.records[name], reference[name]):
                assert_bit_identical(record, ref)

    def test_result_bundles_curves_and_telemetry(self):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        assert result.budgets() == [2, 4, 6]
        curves = result.curves()
        assert set(curves) == {"GA", "Random"}
        assert curves["GA"]["median"].shape == (3,)
        # result telemetry is the sum of the per-record snapshots, so it
        # includes the per-run-only counters (queries, run_hits) too
        assert result.telemetry["synth_calls"] > 0
        assert result.telemetry["queries"] > 0
        assert result.records["GA"][0].telemetry is not None
        assert result.records["GA"][0].telemetry["queries"] > 0
        assert result.telemetry["queries"] == sum(
            r.telemetry["queries"] for rs in result.records.values() for r in rs
        )
        assert set(result.best_costs()) == {"GA", "Random"}

    def test_result_save_round_trips(self, tmp_path):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        path = str(tmp_path / "records.json")
        result.save(path)
        loaded = load_records(path)
        assert len(loaded) == len(result.all_records())
        for restored, original in zip(loaded, result.all_records()):
            assert_bit_identical(restored, original)

    def test_methods_share_the_session_cache(self):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        # 2 methods x 2 seeds all explore the same 6-design space: the
        # engine synthesizes each unique design exactly once.
        assert result.telemetry["synth_calls"] == spec.budget

    def test_telemetry_is_per_run_on_a_reused_session(self):
        spec = self.spec()
        with Session() as session:
            first = session.run(spec)
            second = session.run(spec)
        assert first.telemetry["synth_calls"] == spec.budget
        # the second run is served entirely from the session cache: its
        # delta shows zero synthesis, not the cumulative total.
        assert second.telemetry["synth_calls"] == 0
        assert second.telemetry["memory_hits"] > 0

    def test_parallel_seeds_identical(self):
        # Model-based cells train one VAE per seed thread, concurrently,
        # each under its share of the OpenBLAS threads; the BLAS thread
        # count must not leak into records, nor outlive the run.
        before = blas_thread_counts()
        share = max(1, usable_cores() // 2)
        during = []

        def sample(event):
            if isinstance(event, EvaluationDone):
                during.append(blas_thread_counts())

        for spec in (self.spec(), model_based_spec()):
            with Session() as serial_session:
                serial = serial_session.run(spec)
            assert blas_thread_counts() == before
            spans = ListSink()
            tracer = Tracer(sink=spans)
            with tracer.activate(), Session(parallel_seeds=2) as parallel_session:
                parallel = parallel_session.run(spec, on_event=sample)
            assert blas_thread_counts() == before
            # Each seed span records the budget it ran under.
            seed_spans = [s for s in spans if s["name"] == "seed"]
            assert len(seed_spans) == spec.num_seeds * len(spec.methods)
            for seed_span in seed_spans:
                assert seed_span["attrs"]["seed_threads"] == 2
                assert seed_span["attrs"]["blas_threads"] == min(
                    share, max(before.values(), default=0)
                )
            assert set(parallel.records) == set(serial.records)
            for name in serial.records:
                assert len(parallel.records[name]) == spec.num_seeds
                for a, b in zip(serial.records[name], parallel.records[name]):
                    assert_bit_identical(a, b)
        assert during and all(
            count <= share for counts in during for count in counts.values()
        )
        # The model-based grid (run last) really retrained: every cell
        # trained for more epochs than its first round alone.
        first_round = VAE_PARAMS["first_round_epochs"]
        for records in serial.records.values():
            assert all(r.telemetry["train_epochs"] > first_round for r in records)

        # An interrupted parallel grid restores the counts too.
        def stop(event):
            if isinstance(event, EvaluationDone):
                raise RunInterrupted("test stop")

        with Session(parallel_seeds=2) as session:
            with pytest.raises(RunInterrupted):
                session.run(model_based_spec(), on_event=stop)
        assert blas_thread_counts() == before


class TestCLI:
    def test_run_tiny_spec_bit_identical(self, tmp_path, capsys):
        # The acceptance path: python -m repro run examples/specs/tiny.json
        out = str(tmp_path / "rec.jsonl")
        assert main(["run", TINY_SPEC_PATH, "--out", out]) == 0
        assert "records written" in capsys.readouterr().out

        spec = load_spec(TINY_SPEC_PATH)
        reference = direct_reference_records(spec)
        loaded = load_records(out)
        by_method = {}
        for record in loaded:
            by_method.setdefault(record.method, []).append(record)
        assert set(by_method) == set(reference)
        for name in reference:
            for record, ref in zip(by_method[name], reference[name]):
                assert_bit_identical(record, ref)

    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for name in ("CircuitVAE", "GA", "RL", "BO", "Random"):
            assert name in output
        assert "population_size" in output

    def test_closed_stdout_exits_141_quietly(self, tmp_path, capsys, monkeypatch):
        # ``repro report <run_dir> | head -2``: once the reader is gone,
        # every write raises BrokenPipeError.  That is no bad argument,
        # so no ``error:`` line and the SIGPIPE exit code, not 2.
        run_dir = str(tmp_path / "run")
        with Session() as session:
            session.run(load_spec(TINY_SPEC_PATH), out_dir=run_dir)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        capsys.readouterr()
        for argv in (["report", run_dir, "--top", "200"], ["methods"]):
            monkeypatch.setattr("sys.stdout", ClosedPipe())
            assert main(argv) == 141, argv
            monkeypatch.undo()
            assert capsys.readouterr().err == "", argv

    def test_checked_in_specs_load_and_round_trip(self):
        names = sorted(os.listdir(SPECS_DIR))
        assert "tiny.json" in names and "lzd.json" in names
        for name in names:
            spec = load_spec(os.path.join(SPECS_DIR, name))
            assert isinstance(spec, ExperimentSpec)
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_invalid_flag_values_get_friendly_errors(self, capsys, monkeypatch, tmp_path):
        assert main(["run", TINY_SPEC_PATH, "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "two")
        assert main(["run", TINY_SPEC_PATH]) == 2
        assert "REPRO_ENGINE_WORKERS='two'" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_ENGINE_WORKERS")
        assert main(["run", TINY_SPEC_PATH, "--parallel-seeds", "0"]) == 2
        assert "parallel_seeds" in capsys.readouterr().err
        with open(TINY_SPEC_PATH) as handle:
            payload = json.load(handle)
        payload["budget"] = str(payload["budget"])
        bad = tmp_path / "bad_type.json"
        bad.write_text(json.dumps(payload))
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: budget must be int, got str")
        assert len(err.strip().splitlines()) == 1

    def test_bad_inputs_exit_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "tiny"])  # no such subcommand
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "unknown_key": 1}')
        assert main(["run", str(bad)]) == 2
        assert "unknown" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "missing.json")]) == 2
