"""Tests for :mod:`repro.obs` — tracing, sinks, reports — and
the telemetry/compile integrations that ride on them."""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.api import ExperimentSpec, MethodSpec, Session, TaskSpec, load_spec
from repro.api.events import ExperimentStarted
from repro.engine.telemetry import EngineTelemetry, stage
from repro.obs import trace
from repro.obs.report import (
    aggregate,
    build_tree,
    coverage,
    follow_trace,
    render_hot_stages,
    render_tree,
    stage_totals,
)
from repro.obs.sink import (
    TRACE_FILENAME,
    TraceSink,
    export_perfetto,
    read_trace,
    to_perfetto,
    validate_spans,
)
from repro.obs.trace import NULL_SPAN, Tracer

from helpers import ListSink


def collect_tracer():
    """A tracer and the list its finished spans land in."""
    spans = ListSink()
    return Tracer(sink=spans, trace_id="tr-test"), spans


# ----------------------------------------------------------------------
class TestTrace:
    def test_off_path_returns_null_span(self):
        assert not trace.active()
        assert trace.span("anything") is NULL_SPAN
        # the null span absorbs the whole Span API
        with trace.span("x") as s:
            s.set_attr("a", 1)
            s.add_counter("c")
            assert s.context is None

    def test_nesting_and_parentage(self):
        tracer, spans = collect_tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild"):
                    pass
        by_name = {s["name"]: s for s in spans}
        assert by_name["child"]["parent_id"] == root.span_id
        assert by_name["grandchild"]["parent_id"] == child.span_id
        assert by_name["root"]["parent_id"] is None
        # children emit before parents (emitted on finish)
        assert [s["name"] for s in spans] == ["grandchild", "child", "root"]

    def test_imposed_duration(self):
        tracer, spans = collect_tracer()
        s = tracer.span("stage")
        s.finish(elapsed=1.5)
        (payload,) = spans
        assert payload["t1"] - payload["t0"] == pytest.approx(1.5)

    def test_finish_idempotent(self):
        tracer, spans = collect_tracer()
        s = tracer.span("once")
        s.finish()
        s.finish()
        assert len(spans) == 1

    def test_error_attr_on_exception(self):
        tracer, spans = collect_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (payload,) = spans
        assert payload["attrs"]["error"] == "ValueError"

    def test_default_context_parents_fresh_threads(self):
        tracer, spans = collect_tracer()
        root = tracer.span("experiment", default=True)
        root.__enter__()

        def worker():
            with tracer.span("seed"):
                pass

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        root.finish()
        seeds = [s for s in spans if s["name"] == "seed"]
        assert len(seeds) == 3
        assert all(s["parent_id"] == root.span_id for s in seeds)

    def test_out_of_order_finish_tolerated(self):
        tracer, _ = collect_tracer()
        outer = tracer.span("outer")
        outer.__enter__()
        inner = tracer.span("inner")
        inner.__enter__()
        # unwound thread: outer finishes while inner is still on the stack
        outer.finish()
        assert tracer.current_context() is None

    def test_activation_exclusive(self):
        (a, _), (b, _) = collect_tracer(), collect_tracer()
        with a.activate():
            assert trace.active()
            with pytest.raises(RuntimeError):
                b.activate().__enter__()
            # the active tracer is a, so the ambient span lands in its tree
            assert trace.span("seed").tracer is a
        assert not trace.active()


# ----------------------------------------------------------------------
class TestSink:
    def _spans(self):
        tracer, spans = collect_tracer()
        with tracer.span("root"):
            with tracer.span("child", attrs={"batch": 2}) as c:
                c.add_counter("synth_calls", 2)
        return spans

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / TRACE_FILENAME)
        with TraceSink(path) as sink:
            for payload in self._spans():
                sink.write(payload)
            assert sink.written == 2
        spans = read_trace(path)
        assert [s["name"] for s in spans] == ["child", "root"]
        assert spans[0]["attrs"] == {"batch": 2}
        assert spans[0]["counters"] == {"synth_calls": 2}

    def test_torn_final_line_skipped(self, tmp_path):
        path = str(tmp_path / TRACE_FILENAME)
        with TraceSink(path) as sink:
            for payload in self._spans():
                sink.write(payload)
        with open(path, "a") as handle:
            handle.write('{"name": "torn", "trace')  # crash mid-write
        assert len(read_trace(path)) == 2

    def test_foreign_pid_write_dropped(self, tmp_path):
        path = str(tmp_path / TRACE_FILENAME)
        sink = TraceSink(path)
        real = self._spans()[0]
        sink.write(real)
        sink._pid = os.getpid() + 1  # simulate a forked child's handle
        sink.write(self._spans()[0])
        sink._pid = os.getpid()
        sink.close()
        assert len(read_trace(path)) == 1

    def test_validate_spans_clean_and_dirty(self):
        spans = self._spans()
        assert validate_spans(spans) == []
        assert validate_spans([dict(spans[0], t1=spans[0]["t0"] - 1)])
        assert validate_spans([{k: v for k, v in spans[0].items() if k != "name"}])
        assert validate_spans(spans + [dict(spans[0])])  # duplicate id
        foreign = dict(spans[0], trace_id="tr-other")
        assert validate_spans(spans + [foreign])  # two trace ids

    def test_perfetto_export(self, tmp_path):
        spans = self._spans()
        payload = to_perfetto(spans)
        events = payload["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == 0
        child = next(e for e in events if e["name"] == "child")
        assert child["args"]["batch"] == 2

        path = str(tmp_path / TRACE_FILENAME)
        with TraceSink(path) as sink:
            for s in spans:
                sink.write(s)
        out = export_perfetto(path)
        assert out.endswith(".perfetto.json")
        with open(out) as handle:
            assert len(json.load(handle)["traceEvents"]) == 2


# ----------------------------------------------------------------------
class TestReport:
    def _tree(self):
        tracer, spans = collect_tracer()
        root = tracer.span("experiment", default=True)
        root.__enter__()
        for seed in range(2):
            with tracer.span("seed") as s:
                s.set_attr("seed", seed)
                with tracer.span("evaluate"):
                    pass
        root.finish()
        return spans

    def test_build_tree_and_aggregate(self):
        roots = build_tree(self._tree())
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "experiment"
        assert [c.name for c in root.children] == ["seed", "seed"]
        rollup = {e["name"]: e for e in aggregate(roots)}
        assert rollup["seed"]["calls"] == 2
        assert rollup["evaluate"]["calls"] == 2
        assert root.self_time <= root.duration

    def test_orphan_parent_becomes_root(self):
        spans = self._tree()
        seeds = [s for s in spans if s["name"] == "seed"]
        orphaned = dict(seeds[0], parent_id="missing")
        roots = build_tree([orphaned])
        assert len(roots) == 1 and roots[0].name == "seed"

    def test_coverage_merges_overlapping_children(self):
        base = {"trace_id": "t", "pid": 1, "tid": 1}
        spans = [
            dict(base, name="root", span_id="r", parent_id=None, t0=0.0, t1=10.0),
            # two overlapping children: union is [0, 8] -> 80%
            dict(base, name="a", span_id="a", parent_id="r", t0=0.0, t1=5.0),
            dict(base, name="b", span_id="b", parent_id="r", t0=3.0, t1=8.0),
        ]
        (root,) = build_tree(spans)
        assert coverage(root) == pytest.approx(0.8)

    def test_stage_and_counter_totals(self):
        tracer, spans = collect_tracer()
        for seconds in (1.0, 2.0):
            s = tracer.span("synthesis", attrs={"stage": True})
            s.finish(elapsed=seconds)
        plain = tracer.span("not_a_stage")
        plain.add_counter("queries", 3)
        plain.finish(elapsed=4.0)
        assert stage_totals(spans) == {"synthesis": pytest.approx(3.0)}
        (counted,) = [s for s in spans if s["name"] == "not_a_stage"]
        assert counted["counters"] == {"queries": 3}

    def test_render_tree_collapses_repeats(self):
        tracer, spans = collect_tracer()
        with tracer.span("root"):
            for _ in range(20):  # alternating names, like an iteration loop
                tracer.span("proposal").finish(elapsed=0.001)
                tracer.span("evaluate").finish(elapsed=0.001)
        text = render_tree(build_tree(spans), collapse_over=8)
        assert "proposal ×20" in text
        assert "evaluate ×20" in text
        assert len(text.splitlines()) == 3  # root + two collapsed groups

    def test_render_hot_stages_table(self):
        text = render_hot_stages(build_tree(self._tree()), top=2)
        assert "span" in text and "self s" in text
        assert len(text.splitlines()) == 4  # header + rule + 2 rows

    def test_follow_trace_tails_live_writer(self, tmp_path):
        path = str(tmp_path / TRACE_FILENAME)
        stop = threading.Event()
        seen = []

        def writer():
            with TraceSink(path) as sink:
                tracer = Tracer(sink=sink, trace_id="tr-test")
                for i in range(5):
                    tracer.span(f"s{i}").finish()
                    time.sleep(0.01)

        thread = threading.Thread(target=writer)
        thread.start()
        for payload in follow_trace(path, poll_interval=0.01, stop=stop, timeout=5.0):
            seen.append(payload["name"])
            if len(seen) == 5:
                stop.set()
        thread.join()
        assert seen == [f"s{i}" for i in range(5)]


# ----------------------------------------------------------------------
class TestTelemetryObs:
    def test_stage_emits_imposed_span(self):
        tracer, spans = collect_tracer()
        telemetry = EngineTelemetry()
        with tracer.activate():
            with stage(telemetry, "synthesis"):
                time.sleep(0.002)
        (payload,) = spans
        assert payload["name"] == "synthesis"
        assert payload["attrs"] == {"stage": True}
        # one measurement, charged identically to both sides (abs
        # tolerance: t1 = t0 + elapsed loses ~2e-7 s to float
        # granularity at unix-epoch magnitude)
        assert payload["t1"] - payload["t0"] == pytest.approx(
            telemetry.as_dict()["stage_seconds"]["synthesis"], abs=1e-6
        )

    def test_stage_with_none_telemetry(self):
        with stage(None, "synthesis"):
            pass  # must not raise

    def test_as_dict_derived_values_consistent(self):
        telemetry = EngineTelemetry()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                telemetry.add("queries")
                telemetry.add("memory_hits")
                telemetry.add("synth_calls")

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(200):
                d = telemetry.as_dict()
                charged = d["memory_hits"] + d["disk_hits"] + d["synth_calls"]
                expected = (
                    (d["memory_hits"] + d["disk_hits"]) / charged if charged else 0.0
                )
                # the satellite fix: ratios come from the same locked
                # snapshot as the counters, never a torn later read
                assert d["hit_rate"] == expected, d
        finally:
            stop.set()
            thread.join()

    def test_unknown_counter_raises(self):
        with pytest.raises(KeyError):
            EngineTelemetry().add("not_a_counter")

# ----------------------------------------------------------------------
class TestKernelProfiling:
    def _train(self):
        from repro.core.dataset import CircuitDataset
        from repro.core.training import TrainConfig, train_model
        from repro.core.vae import CircuitVAEModel, VAEConfig
        from repro.prefix import random_graph

        rng = np.random.default_rng(0)
        ds = CircuitDataset()
        while len(ds) < 12:
            g = random_graph(8, rng, rng.random() * 0.5)
            ds.add(g, float(g.node_count()))
        model = CircuitVAEModel(
            VAEConfig(n=8, latent_dim=4, base_channels=4, hidden_dim=32),
            np.random.default_rng(1),
        )
        return train_model(
            model, ds, np.random.default_rng(2), TrainConfig(epochs=1, batch_size=8)
        )

    def test_profile_off_is_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        stats = self._train()
        assert stats.kernel_seconds == {}
        assert stats.compile_counters["replays"] > 0

    def test_report_training_round_emits_one_compile_span_per_round(
        self, monkeypatch
    ):
        """Every round rebuilds its programs, so each carries compile
        seconds; they surface as one ``train_compile`` span per round."""
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        from repro.core.training import report_training_round

        class Sim:
            pass

        sim = Sim()
        sim.telemetry = EngineTelemetry()
        tracer, spans = collect_tracer()
        rounds = [self._train(), self._train()]
        with tracer.activate():
            for index, stats in enumerate(rounds):
                report_training_round(sim, stats, round_index=index)
        compile_spans = [s for s in spans if s["name"] == "train_compile"]
        assert [s["attrs"]["round"] for s in compile_spans] == [0, 1]
        for span_dict, stats in zip(compile_spans, rounds):
            assert stats.compile_s > 0.0
            assert span_dict["t1"] - span_dict["t0"] == pytest.approx(
                stats.compile_s, abs=1e-6
            )
            assert not span_dict["attrs"].get("stage")

    def test_profile_on_collects_kernel_seconds(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        stats = self._train()
        assert stats.kernel_seconds
        labels = set(stats.kernel_seconds)
        assert any(label.startswith("fwd:") for label in labels)
        assert any(label.startswith("bwd:") for label in labels)
        assert all(seconds > 0 for seconds in stats.kernel_seconds.values())

    def test_report_training_round_folds_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        from repro.core.training import report_training_round

        stats = self._train()

        class Sim:
            pass

        sim = Sim()
        sim.telemetry = EngineTelemetry()
        tracer, spans = collect_tracer()
        with tracer.activate():
            report_training_round(sim, stats, round_index=0)
        d = sim.telemetry.as_dict()
        folded = {
            name: seconds
            for name, seconds in d["stage_seconds"].items()
            if name.startswith("train_kernel:")
        }
        assert folded == {
            "train_kernel:" + k: pytest.approx(v)
            for k, v in stats.kernel_seconds.items()
        }
        # matching imposed-duration spans, so trace-derived stage totals
        # keep reproducing stage_seconds under profiling too
        assert stage_totals(spans) == {
            name: pytest.approx(seconds, abs=1e-6)
            for name, seconds in folded.items()
        }


# ----------------------------------------------------------------------
class TestTracedRun:
    def _spec(self):
        return ExperimentSpec(
            name="obs-int",
            task=TaskSpec(circuit_type="adder", n=4, delay_weight=0.66),
            methods=(MethodSpec("Random"),),
            budget=3,
            num_seeds=1,
            curve_points=3,
        )

    def test_durable_run_writes_valid_trace(self, tmp_path, monkeypatch):
        # examples/specs/tiny.json, not the micro-spec: the >= 95%
        # coverage gate needs a run long enough that fixed per-run
        # overhead (observer setup, run-directory writes) stays in the
        # root span's < 5% self-time.
        tiny = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "specs", "tiny.json",
        )

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        out = str(tmp_path / "run")
        started = []
        with Session() as session:
            result = session.run(
                load_spec(tiny),
                out_dir=out,
                on_event=lambda e: started.append(e)
                if isinstance(e, ExperimentStarted)
                else None,
            )
        path = os.path.join(out, TRACE_FILENAME)
        assert started[0].trace_path == path
        assert result.trace_path == path
        spans = read_trace(path)
        assert validate_spans(spans) == []
        roots = build_tree(spans)
        assert len(roots) == 1 and roots[0].name == "experiment"
        assert roots[0].data["attrs"]["status"] == "finished"
        assert coverage(roots[0]) >= 0.95
        from_trace = stage_totals(spans)
        for name, seconds in result.telemetry["stage_seconds"].items():
            assert from_trace[name] == pytest.approx(seconds, rel=0.01, abs=1e-6)

    def test_pooled_run_traces_in_one_process(self, tmp_path, monkeypatch):
        # GA generations of 8 designs reach the pool (two designs per
        # worker); the parent's synthesis stage span times each pooled
        # batch and the workers write no spans of their own.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        spec = ExperimentSpec(
            name="obs-pool",
            task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
            methods=(MethodSpec("GA", params={"population_size": 8}),),
            budget=16,
            num_seeds=1,
            curve_points=3,
        )
        results = {}
        for workers in (1, 2):
            out = str(tmp_path / f"workers{workers}")
            with Session(workers=workers) as session:
                assert session.engine.pool.parallel == (workers > 1)
                results[workers] = session.run(spec, out_dir=out)
        spans = read_trace(results[2].trace_path)
        assert validate_spans(spans) == []
        assert {s["pid"] for s in spans} == {os.getpid()}
        assert "synthesize_chunk" not in {s["name"] for s in spans}
        assert any(
            s["name"] == "engine_evaluate" and s["attrs"]["batch"] >= 4
            for s in spans
        )
        (serial,), (pooled,) = results[1].records["GA"], results[2].records["GA"]
        for field in ("costs", "areas", "delays"):
            assert np.array_equal(getattr(serial, field), getattr(pooled, field))
        assert serial.best_graph.key() == pooled.best_graph.key()

    def test_repro_trace_zero_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        out = str(tmp_path / "run")
        started = []
        with Session() as session:
            result = session.run(
                self._spec(),
                out_dir=out,
                on_event=lambda e: started.append(e)
                if isinstance(e, ExperimentStarted)
                else None,
            )
        assert not os.path.exists(os.path.join(out, TRACE_FILENAME))
        assert started[0].trace_path is None
        assert result.trace_path is None
        assert not trace.active()

    def test_in_memory_run_never_traces(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        started = []
        with Session() as session:
            result = session.run(
                self._spec(),
                on_event=lambda e: started.append(e)
                if isinstance(e, ExperimentStarted)
                else None,
            )
        assert started[0].trace_path is None
        assert result.trace_path is None
