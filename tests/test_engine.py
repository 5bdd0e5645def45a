"""Tests for the parallel/persistent/batched evaluation engine (repro.engine)."""

import json

import numpy as np
import pytest

from helpers import unique_random_graphs as unique_graphs

from repro.api import ExperimentSpec, MethodSpec, Session, TaskSpec
from repro.baselines import GAConfig, GeneticAlgorithm, RandomSearch
from repro.circuits import adder_task
from repro.engine import (
    EvalBatch,
    EvaluationCache,
    EvaluationEngine,
    EngineSimulator,
    EngineTelemetry,
    SynthesisPool,
    task_fingerprint,
)
from repro.opt import BudgetExhausted, CircuitSimulator, RunRecord
from repro.prefix import sklansky

TASK_SPEC = TaskSpec(circuit_type="adder", n=16, delay_weight=0.66)


def run_serial_grid(factory, task, budget, seeds, method_name):
    """The plain pre-engine reference: one serial simulator per seed."""
    records = []
    for seed in seeds:
        simulator = CircuitSimulator(task, budget=budget)
        try:
            factory(seed).run(simulator, np.random.default_rng(seed))
        except BudgetExhausted:
            pass
        records.append(RunRecord.from_simulator(method_name, seed, simulator))
    return records


def run_session_grid(engine, methods, budget, seeds, parallel_seeds=1):
    """The supported engine path: a Session adopting ``engine``."""
    spec = ExperimentSpec(
        name="engine-grid",
        task=TASK_SPEC,
        methods=methods,
        budget=budget,
        seeds=tuple(seeds),
        curve_points=min(8, budget),
    )
    with Session(engine=engine, parallel_seeds=parallel_seeds) as session:
        return session.run(spec)


@pytest.fixture
def task():
    return adder_task(16, 0.66)


class TestTaskFingerprint:
    def test_stable_across_instances(self):
        assert task_fingerprint(adder_task(16, 0.66)) == task_fingerprint(
            adder_task(16, 0.66)
        )

    def test_differs_by_width_and_type(self):
        fingerprints = {
            task_fingerprint(adder_task(8, 0.66)),
            task_fingerprint(adder_task(16, 0.66)),
        }
        assert len(fingerprints) == 2

    def test_omega_excluded_so_sweeps_share_synthesis(self):
        # Cost is recomputed at serve time, so delay-weight sweeps reuse
        # each other's synthesis results.
        assert task_fingerprint(adder_task(16, 0.33)) == task_fingerprint(
            adder_task(16, 0.95)
        )


class TestEvaluationCache:
    def test_memory_roundtrip(self, task):
        cache = EvaluationCache()
        fp = task_fingerprint(task)
        key = sklansky(16).key()
        assert cache.get(fp, key) is None
        cache.put(fp, key, (12.5, 0.75))
        assert cache.get(fp, key) == (12.5, 0.75)

    def test_disk_roundtrip_across_instances(self, task, tmp_path):
        fp = task_fingerprint(task)
        key = sklansky(16).key()
        EvaluationCache(cache_dir=str(tmp_path)).put(fp, key, (12.5, 0.75))
        fresh = EvaluationCache(cache_dir=str(tmp_path))
        metrics, origin = fresh.get_with_origin(fp, key)
        assert metrics == (12.5, 0.75)
        assert origin == "disk"
        # Second hit is served from the memory front.
        assert fresh.get_with_origin(fp, key)[1] == "memory"

    def test_truncated_trailing_line_is_skipped_with_warning(self, task, tmp_path):
        fp = task_fingerprint(task)
        key = sklansky(16).key()
        cache = EvaluationCache(cache_dir=str(tmp_path))
        cache.put(fp, key, (1.0, 2.0))
        with open(tmp_path / f"{fp}.jsonl", "a") as handle:
            handle.write('{"k": "dead')  # crashed writer
        with pytest.warns(RuntimeWarning, match="corrupt evaluation-cache line"):
            assert EvaluationCache(cache_dir=str(tmp_path)).get(fp, key) == (1.0, 2.0)

    def test_garbage_lines_are_skipped_with_warning(self, task, tmp_path):
        # Bit rot / hand edits anywhere in a shard must not crash the
        # engine: every malformed shape warns and is skipped, and the
        # surviving records still load.
        fp = task_fingerprint(task)
        good = unique_graphs(16, 2)
        cache = EvaluationCache(cache_dir=str(tmp_path))
        cache.put(fp, good[0].key(), (1.0, 2.0))
        path = tmp_path / f"{fp}.jsonl"
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"k": "zz-not-hex", "a": 1, "d": 2}\n')  # bad key hex
            handle.write('{"a": 1.0, "d": 2.0}\n')  # missing key field
            handle.write('{"k": "00", "a": "NaN-ish", "d": []}\n')  # bad types
            handle.write("\n")  # blank lines stay silent
        cache.put(fp, good[1].key(), (3.0, 4.0))
        with pytest.warns(RuntimeWarning, match="corrupt evaluation-cache line"):
            fresh = EvaluationCache(cache_dir=str(tmp_path))
            assert fresh.get(fp, good[0].key()) == (1.0, 2.0)
        assert fresh.get(fp, good[1].key()) == (3.0, 4.0)

    def test_corrupt_line_warning_names_shard_and_line(self, task, tmp_path):
        # With many shards on disk, "a line was corrupt" is useless
        # without saying *which* line of *which* shard: the warning must
        # carry the path and the 1-based line number.
        fp = task_fingerprint(task)
        good = unique_graphs(16, 2)
        cache = EvaluationCache(cache_dir=str(tmp_path))
        cache.put(fp, good[0].key(), (1.0, 2.0))
        cache.put(fp, good[1].key(), (3.0, 4.0))
        path = tmp_path / f"{fp}.jsonl"
        with open(path, "a") as handle:
            handle.write("rotten line\n")  # line 3
        with pytest.warns(RuntimeWarning, match=f"{fp}.jsonl:3"):
            EvaluationCache(cache_dir=str(tmp_path)).get(fp, good[0].key())

    def test_corrupt_append_line_number_counts_from_shard_start(
        self, task, tmp_path
    ):
        # A long-lived reader ingests external appends incrementally; a
        # corrupt appended line must still be numbered from the start of
        # the shard, not from the reader's resume position.
        fp = task_fingerprint(task)
        good = unique_graphs(16, 3)
        writer = EvaluationCache(cache_dir=str(tmp_path))
        writer.put(fp, good[0].key(), (1.0, 2.0))
        writer.put(fp, good[1].key(), (3.0, 4.0))
        reader = EvaluationCache(cache_dir=str(tmp_path))
        assert reader.get(fp, good[0].key()) == (1.0, 2.0)
        path = tmp_path / f"{fp}.jsonl"
        with open(path, "a") as handle:
            handle.write("rotten line\n")  # line 3, appended externally
        writer.put(fp, good[2].key(), (5.0, 6.0))
        with pytest.warns(RuntimeWarning, match=f"{fp}.jsonl:3"):
            assert reader.get(fp, good[2].key()) == (5.0, 6.0)

    def test_duplicate_keys_keep_latest_record(self, task, tmp_path):
        # Append-only shards are last-writer-wins; a reload must resolve
        # duplicates to the newest record (both served and re-persisted).
        fp = task_fingerprint(task)
        key = sklansky(16).key()
        cache = EvaluationCache(cache_dir=str(tmp_path))
        cache.put(fp, key, (1.0, 2.0))
        cache.put(fp, key, (5.0, 6.0))
        cache.put(fp, key, (9.0, 10.0))
        fresh = EvaluationCache(cache_dir=str(tmp_path))
        assert fresh.get(fp, key) == (9.0, 10.0)
        # The LRU-evicted reload path must also resolve to the latest.
        evicting = EvaluationCache(cache_dir=str(tmp_path), memory_limit=1)
        other = unique_graphs(16, 1)[0]
        evicting.put(fp, other.key(), (0.0, 0.0))  # evicts the loaded entry
        assert evicting.get(fp, key) == (9.0, 10.0)

    def test_external_append_is_read_incrementally(self, task, tmp_path, monkeypatch):
        # A long-lived reader (the serve daemon) must not re-parse the
        # whole shard every time another process appends: only the tail
        # past its per-shard read position gets parsed.
        fp = task_fingerprint(task)
        graphs = unique_graphs(16, 6)
        writer = EvaluationCache(cache_dir=str(tmp_path))
        for i, graph in enumerate(graphs[:4]):
            writer.put(fp, graph.key(), (float(i), 1.0))
        reader = EvaluationCache(cache_dir=str(tmp_path))
        assert reader.get(fp, graphs[0].key()) == (0.0, 1.0)
        # another process appends two records behind the reader's back
        writer.put(fp, graphs[4].key(), (40.0, 1.0))
        writer.put(fp, graphs[5].key(), (50.0, 1.0))
        parsed = []
        real = EvaluationCache._parse_line
        monkeypatch.setattr(
            EvaluationCache,
            "_parse_line",
            staticmethod(
                lambda raw, where="?": parsed.append(raw) or real(raw, where)
            ),
        )
        assert reader.get(fp, graphs[5].key()) == (50.0, 1.0)
        assert len(parsed) == 2  # only the appended tail, not the 4 old lines
        parsed.clear()
        assert reader.get(fp, graphs[4].key()) == (40.0, 1.0)
        assert parsed == []  # second external entry already ingested

    def test_own_appends_advance_the_read_position(self, task, tmp_path, monkeypatch):
        # put() already knows the bytes it wrote; a subsequent external
        # append must not force a re-parse of our own records.
        fp = task_fingerprint(task)
        graphs = unique_graphs(16, 3)
        cache = EvaluationCache(cache_dir=str(tmp_path))
        cache.put(fp, graphs[0].key(), (1.0, 1.0))
        cache.put(fp, graphs[1].key(), (2.0, 1.0))
        EvaluationCache(cache_dir=str(tmp_path)).put(fp, graphs[2].key(), (3.0, 1.0))
        parsed = []
        real = EvaluationCache._parse_line
        monkeypatch.setattr(
            EvaluationCache,
            "_parse_line",
            staticmethod(
                lambda raw, where="?": parsed.append(raw) or real(raw, where)
            ),
        )
        assert cache.get(fp, graphs[2].key()) == (3.0, 1.0)
        assert len(parsed) == 1  # the foreign record only

    def test_shard_shrink_triggers_full_reload(self, task, tmp_path):
        # Compaction rewrites a shard shorter; every remembered offset
        # and read position is void, so the reader rescans from byte 0.
        fp = task_fingerprint(task)
        old, new = (g.key() for g in unique_graphs(16, 2))
        cache = EvaluationCache(cache_dir=str(tmp_path))
        for round_index in range(4):
            cache.put(fp, old, (float(round_index), 1.0))
        reader = EvaluationCache(cache_dir=str(tmp_path))
        assert reader.get(fp, old) == (3.0, 1.0)
        # a compactor replaces the shard with one record for a new key
        path = tmp_path / f"{fp}.jsonl"
        path.write_text(
            json.dumps({"k": new.hex(), "a": 7.0, "d": 8.0}) + "\n"
        )
        assert reader.get(fp, new) == (7.0, 8.0)

    def test_lru_eviction_bounds_memory(self, task):
        cache = EvaluationCache(memory_limit=3)
        fp = task_fingerprint(task)
        for i, g in enumerate(unique_graphs(16, 5)):
            cache.put(fp, g.key(), (float(i), 1.0))
        assert len(cache) == 3

    def test_evicted_entry_is_reread_from_disk(self, task, tmp_path):
        # Eviction from the LRU front must not orphan disk records — a
        # warm rerun has to stay at zero synthesis even past the limit.
        cache = EvaluationCache(cache_dir=str(tmp_path), memory_limit=2)
        fp = task_fingerprint(task)
        graphs = unique_graphs(16, 4)
        for i, g in enumerate(graphs):
            cache.put(fp, g.key(), (float(i), 1.0))
        assert len(cache) == 2  # first two evicted from memory...
        metrics, origin = cache.get_with_origin(fp, graphs[0].key())
        assert metrics == (0.0, 1.0)  # ...but still served
        assert origin == "disk"


class TestPool:
    def test_matches_serial_synthesis(self, task):
        graphs = unique_graphs(16, 6)
        serial = [(task.synthesize(g).area_um2, task.synthesize(g).delay_ns) for g in graphs]
        with SynthesisPool(workers=2) as pool:
            pooled = pool.synthesize_batch(task, graphs)
        assert pooled == serial

    def test_serial_fallback(self, task):
        pool = SynthesisPool(workers=1)
        graphs = unique_graphs(16, 2)
        assert len(pool.synthesize_batch(task, graphs)) == 2
        assert not pool.parallel


class TestBudgetAccountingUnderBatches:
    def test_no_overspend_on_oversized_batch(self, task):
        graphs = unique_graphs(16, 12)
        sim = EngineSimulator(task, budget=5, engine=EvaluationEngine(workers=2))
        out = sim.query_many(graphs)
        assert sim.num_simulations == 5
        assert len(out) == 5
        assert [e.sim_index for e in sim.history] == [1, 2, 3, 4, 5]
        assert sim.telemetry.budget_refusals == 7

    def test_in_batch_duplicates_charge_once(self, task):
        graphs = unique_graphs(16, 4)
        batch = graphs + [graphs[0], graphs[2]] + graphs[:2]
        sim = EngineSimulator(task, budget=None, engine=EvaluationEngine(workers=2))
        out = sim.query_many(batch)
        assert sim.num_simulations == 4
        assert len(out) == len(batch)  # duplicates served, not skipped
        assert out[4] is out[0] and out[5] is out[2]

    def test_duplicate_after_exhaustion_is_served(self, task):
        graphs = unique_graphs(16, 6)
        batch = graphs + [graphs[1]]  # dup lands after the budget runs out
        sim = EngineSimulator(task, budget=3, engine=EvaluationEngine())
        out = sim.query_many(batch)
        assert sim.num_simulations == 3
        assert out[-1] is out[1]

    def test_scalar_query_raises_when_exhausted(self, task):
        graphs = unique_graphs(16, 3)
        sim = EngineSimulator(task, budget=2, engine=EvaluationEngine())
        sim.query(graphs[0])
        sim.query(graphs[1])
        with pytest.raises(BudgetExhausted):
            sim.query(graphs[2])
        assert sim.query(graphs[0]).sim_index == 1  # cached hit still served

    def test_refusal_mid_batch_after_in_batch_duplicates(self, task):
        # Duplicates of already-scheduled designs are free: they must not
        # advance the budget cursor, so the refusal boundary lands on the
        # fourth *unique* design, not the fourth slot.
        g = unique_graphs(16, 4)
        batch = [g[0], g[0], g[1], g[1], g[2], g[3]]
        sim = EngineSimulator(task, budget=3, engine=EvaluationEngine())
        out = sim.query_plan(batch)
        assert sim.num_simulations == 3
        assert out[5] is None  # g[3] alone is refused
        assert [e is not None for e in out[:5]] == [True] * 5
        assert out[1] is out[0] and out[3] is out[2]
        assert sim.telemetry.budget_refusals == 1

    def test_refusal_on_exact_last_budget_unit(self, task):
        # budget=4 with 5 uniques: the fourth consumes the final unit in
        # the same batch, the fifth is refused — no off-by-one overspend.
        g = unique_graphs(16, 5)
        sim = EngineSimulator(task, budget=4, engine=EvaluationEngine())
        out = sim.query_plan(g)
        assert sim.num_simulations == 4
        assert [e.sim_index for e in out[:4]] == [1, 2, 3, 4]
        assert out[4] is None
        assert sim.telemetry.budget_refusals == 1
        # the exhausted simulator still serves memo hits for free
        assert sim.query_plan([g[0]])[0] is out[0]


class TestSerialEquivalence:
    def test_plain_batch_equivalence(self, task):
        graphs = unique_graphs(16, 10)
        batch = graphs + [graphs[0], graphs[3]]
        serial = CircuitSimulator(task, budget=7)
        pooled = EngineSimulator(task, budget=7, engine=EvaluationEngine(workers=4))
        out_serial = serial.query_many(batch)
        out_pooled = pooled.query_many(batch)
        assert [e.cost for e in out_serial] == [e.cost for e in out_pooled]
        assert [e.sim_index for e in serial.history] == [
            e.sim_index for e in pooled.history
        ]
        np.testing.assert_array_equal(
            serial.best_cost_curve(), pooled.best_cost_curve()
        )

    def test_seed_grid_curves_identical(self, task, tmp_path):
        # The acceptance check: a plain serial seed grid and an
        # engine-backed Session run on a 16-bit adder produce identical
        # best_cost_curve arrays per (method, seed).
        from repro.utils.rng import seed_sequence

        factories = {
            "GA": lambda seed: GeneticAlgorithm(GAConfig(population_size=10)),
            "Random": lambda seed: RandomSearch(),
        }
        seeds = seed_sequence(0, 2)
        serial = {
            name: run_serial_grid(factory, task, 14, seeds, name)
            for name, factory in factories.items()
        }
        with EvaluationEngine(cache_dir=str(tmp_path), workers=2) as engine:
            engined = run_session_grid(
                engine,
                (
                    MethodSpec("GA", params={"population_size": 10}),
                    MethodSpec("Random"),
                ),
                budget=14,
                seeds=seeds,
            ).records
        for method in factories:
            for record_s, record_e in zip(serial[method], engined[method]):
                assert record_s.seed == record_e.seed
                np.testing.assert_array_equal(
                    record_s.best_curve(), record_e.best_curve()
                )

    def test_concurrent_threads_synthesize_each_design_once(self, task):
        # In-flight dedup: threads that miss the cache on the same designs
        # must share one synthesis, not race to duplicate it.
        import threading

        graphs = unique_graphs(16, 4)
        with EvaluationEngine(workers=1) as engine:
            barrier = threading.Barrier(2)

            def worker():
                barrier.wait()
                engine.evaluate(task, graphs)

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert engine.telemetry.synth_calls == len(graphs)

    def test_waiter_recovers_when_owner_synthesis_fails(self, task):
        # If the owning thread's synthesis raises, exactly one waiter must
        # reclaim the in-flight slot and produce the result.
        import threading

        graphs = unique_graphs(16, 1)
        engine = EvaluationEngine(workers=1)
        real_batch = engine.pool.synthesize_batch
        fail_once = threading.Event()

        def flaky_batch(task_, graphs_):
            if not fail_once.is_set():
                fail_once.set()
                raise RuntimeError("injected synthesis failure")
            return real_batch(task_, graphs_)

        engine.pool.synthesize_batch = flaky_batch
        barrier = threading.Barrier(2)
        outcomes = []

        def worker():
            barrier.wait()
            try:
                outcomes.append(engine.evaluate(task, graphs)[0])
            except RuntimeError:
                outcomes.append("failed")

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One thread saw the injected failure OR both succeeded (if the
        # failing call happened first and the survivor re-synthesized);
        # either way at least one real evaluation came back and nothing
        # deadlocked.
        assert any(isinstance(o, tuple) for o in outcomes), outcomes
        assert engine._inflight == {}  # registry fully drained

    def test_unique_random_graphs_rejects_impossible_count(self):
        from repro.prefix import unique_random_graphs

        with pytest.raises(ValueError):
            unique_random_graphs(2, 3, np.random.default_rng(0))

    def test_parallel_seeds_identical_records(self, task):
        method = MethodSpec("GA", params={"population_size": 8})
        with EvaluationEngine(workers=2) as engine:
            serial_seeds = run_session_grid(
                engine, (method,), budget=12, seeds=[0, 1, 2]
            ).records["GA"]
        with EvaluationEngine(workers=2) as engine:
            threaded = run_session_grid(
                engine, (method,), budget=12, seeds=[0, 1, 2], parallel_seeds=3
            ).records["GA"]
        for record_s, record_t in zip(serial_seeds, threaded):
            np.testing.assert_array_equal(record_s.costs, record_t.costs)


class TestPersistentReuse:
    def test_warm_disk_cache_performs_zero_synthesis(self, task, tmp_path):
        from repro.utils.rng import seed_sequence

        method = MethodSpec("GA", params={"population_size": 10})
        seeds = seed_sequence(0, 2)
        with EvaluationEngine(cache_dir=str(tmp_path), workers=1) as engine:
            cold = run_session_grid(engine, (method,), 12, seeds).records
            assert engine.telemetry.synth_calls > 0
        # Fresh process-equivalent: new engine, same cache directory.
        with EvaluationEngine(cache_dir=str(tmp_path), workers=1) as engine:
            warm = run_session_grid(engine, (method,), 12, seeds).records
            assert engine.telemetry.synth_calls == 0
            assert engine.telemetry.disk_hits > 0
        for record_c, record_w in zip(cold["GA"], warm["GA"]):
            np.testing.assert_array_equal(record_c.costs, record_w.costs)

    def test_omega_sweep_shares_synthesis(self, tmp_path):
        graphs = unique_graphs(16, 4)
        with EvaluationEngine(cache_dir=str(tmp_path)) as engine:
            engine.simulator(adder_task(16, 0.33)).query_many(graphs)
            other = engine.simulator(adder_task(16, 0.95))
            other.query_many(graphs)
            assert other.telemetry.synth_calls == 0
            # ...but the cost is recomputed under the new omega.
            direct = CircuitSimulator(adder_task(16, 0.95)).query(graphs[0])
            assert other.history[0].cost == pytest.approx(direct.cost)


class TestFuturesAPI:
    def test_submit_gather_resolves_everything(self, task):
        sim = EngineSimulator(task, budget=3, engine=EvaluationEngine())
        graphs = unique_graphs(16, 5)
        batch = EvalBatch(sim)
        futures = [batch.submit(g) for g in graphs]
        fulfilled = batch.gather()
        assert len(fulfilled) == 3
        assert all(f.done for f in futures)
        assert [f.refused for f in futures] == [False] * 3 + [True] * 2
        assert futures[0].result().sim_index == 1
        with pytest.raises(BudgetExhausted):
            futures[4].result()

    def test_works_against_plain_simulator(self, task):
        batch = EvalBatch(CircuitSimulator(task, budget=2))
        for g in unique_graphs(16, 4):
            batch.submit(g)
        assert len(batch.gather()) == 2

    def test_unresolved_future_raises(self, task):
        batch = EvalBatch(CircuitSimulator(task))
        future = batch.submit(sklansky(16))
        with pytest.raises(RuntimeError):
            future.result()


class TestTelemetry:
    def test_counters_and_record_snapshot(self, task):
        with EvaluationEngine() as engine:
            records = run_session_grid(
                engine, (MethodSpec("Random"),), 10, [0]
            ).records["Random"]
        telemetry = records[0].telemetry
        assert telemetry is not None
        assert telemetry["synth_calls"] == 10
        assert telemetry["queries"] >= 10
        assert telemetry["stage_seconds"].get("synthesis", 0) > 0
        assert "proposal" in telemetry["stage_seconds"]
        assert 0.0 <= telemetry["hit_rate"] <= 1.0

    def test_vectorized_batches_are_attributed(self, task):
        # A GA generation is a population batch: the engine must route it
        # through the vectorized fast path and say so in telemetry.
        with EvaluationEngine() as engine:
            records = run_session_grid(
                engine,
                (MethodSpec("GA", params={"population_size": 10}),),
                12,
                [0],
            ).records["GA"]
        telemetry = records[0].telemetry
        assert telemetry["vector_batches"] >= 1
        assert telemetry["vector_designs"] >= 10
        assert telemetry["vector_designs"] <= telemetry["synth_calls"]
        # Population batches land in the vectorized stage.
        stages = telemetry["stage_seconds"]
        assert stages.get("synthesis_vectorized", 0) > 0
        # The split stages partition total synthesis wall-clock.
        total = stages["synthesis"]
        split = (
            stages.get("synthesis_vectorized", 0.0)
            + stages.get("synthesis_scalar", 0.0)
        )
        assert split <= total + 1e-6

    def test_vectorized_fast_path_can_be_disabled(self, task, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZED_EVAL", "0")
        graphs = unique_graphs(16, 4)
        with EvaluationEngine() as engine:
            simulator = engine.simulator(task)
            simulator.query_many(graphs)
            assert simulator.telemetry.vector_batches == 0
            assert (
                simulator.telemetry.stage_seconds.get("synthesis_scalar", 0) > 0
            )

    def test_plain_simulator_records_no_telemetry(self, task):
        records = run_serial_grid(
            lambda seed: RandomSearch(), task, 5, [0], "Random"
        )
        assert records[0].telemetry is None

    def test_merge_and_dict(self):
        a, b = EngineTelemetry(), EngineTelemetry()
        a.add("synth_calls", 3)
        b.add("synth_calls", 2)
        b.add_stage_time("synthesis", 1.5)
        a.merge(b)
        assert a.synth_calls == 5
        assert a.as_dict()["stage_seconds"]["synthesis"] == pytest.approx(1.5)

    def test_records_io_roundtrip_with_telemetry(self, task, tmp_path):
        from repro.opt import load_records, save_records

        with EvaluationEngine() as engine:
            records = run_session_grid(
                engine, (MethodSpec("Random"),), 5, [0]
            ).records["Random"]
        path = str(tmp_path / "records.json")
        save_records(path, records)
        loaded = load_records(path)
        assert loaded[0].telemetry["synth_calls"] == records[0].telemetry["synth_calls"]
