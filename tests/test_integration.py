"""Cross-module integration tests: the full paper pipeline at tiny scale.

The runner-pipeline tests describe their grids as declarative
:class:`repro.api.ExperimentSpec` values and execute them through
:class:`repro.api.Session`.
"""

import os

import numpy as np
import pytest

from repro.api import ExperimentSpec, MethodSpec, Session, TaskSpec, load_spec
from repro.api.registry import build_config, get_method
from repro.circuits import gray_to_binary_task, realistic_adder_task
from repro.core import CircuitVAEConfig, CircuitVAEOptimizer, SearchConfig, TrainConfig
from repro.opt import CircuitSimulator, aggregate_curves, vae_speedup
from repro.synth import CommercialTool, scaled_library

from helpers import VAE_PARAMS, eager_training, run_serial_grid

#: the reduced-scale CircuitVAE params of examples/specs/fig3-panel.json.
FIG3_VAE_PARAMS = load_spec(
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "examples", "specs", "fig3-panel.json",
    )
).methods[0].params


def vae_factory(_seed):
    return CircuitVAEOptimizer(
        CircuitVAEConfig(
            latent_dim=6, base_channels=4, hidden_dim=32, initial_samples=20,
            first_round_epochs=8, train=TrainConfig(epochs=4, batch_size=16),
            search=SearchConfig(num_parallel=8, num_steps=20, capture_every=10),
        )
    )


def run_spec(spec):
    with Session() as session:
        return session.run(spec)


class TestRunnerPipeline:
    def test_session_produces_records(self):
        spec = ExperimentSpec(
            name="vae-tiny",
            task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
            methods=(MethodSpec("CircuitVAE", params=VAE_PARAMS),),
            budget=50,
            seeds=(0, 1),
        )
        records = run_spec(spec).records["CircuitVAE"]
        assert len(records) == 2
        assert all(r.num_simulations == 50 for r in records)
        assert all(r.method == "CircuitVAE" for r in records)
        assert records[0].costs.tolist() != records[1].costs.tolist()

    def test_multi_method_spec_pairs_seeds(self):
        spec = ExperimentSpec(
            name="pairing",
            task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
            methods=(
                MethodSpec("GA", params={"population_size": 10}),
                MethodSpec("Random"),
            ),
            budget=40,
            num_seeds=2,
        )
        results = run_spec(spec).records
        assert set(results) == {"GA", "Random"}
        assert results["GA"][0].seed == results["Random"][0].seed

    def test_aggregate_and_speedup_pipeline(self):
        spec = ExperimentSpec(
            name="speedup",
            task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
            methods=(
                MethodSpec("CircuitVAE", params=VAE_PARAMS),
                MethodSpec("GA", params={"population_size": 10}),
            ),
            budget=60,
            seeds=(0, 1),
        )
        records = run_spec(spec).records
        agg = aggregate_curves(records["CircuitVAE"], budgets=[20, 40, 60])
        assert np.all(np.diff(agg["median"]) <= 1e-12)  # monotone improvement
        speedups = vae_speedup(records["CircuitVAE"], records["GA"])
        assert len(speedups) == 2
        assert all(s > 0 for s in speedups)


class TestGrayPipeline:
    def test_vae_on_gray_task(self):
        """Sec. 5.5: the identical machinery optimizes a different circuit
        type by swapping the cell mapping."""
        task = gray_to_binary_task(n=8)
        sim = CircuitSimulator(task, budget=50)
        best = vae_factory(0).run(sim, np.random.default_rng(0))
        assert best.graph.n == 8
        from repro.prefix import check_gray_to_binary

        assert check_gray_to_binary(best.graph, np.random.default_rng(1))


class TestRealisticPipeline:
    def test_search_then_commercial_eval(self):
        """Sec. 5.4: search with the open flow, evaluate with the
        commercial tool — the domain gap must not destroy the design."""
        task = realistic_adder_task(n=8, delay_weight=0.6)
        sim = CircuitSimulator(task, budget=40)
        best = vae_factory(0).run(sim, np.random.default_rng(2))
        tool = CommercialTool(scaled_library("8nm"), task.io_timing)
        commercial = tool.evaluate(best.graph)
        assert commercial.area_um2 > 0 and commercial.delay_ns > 0
        # The commercial flow is differently tuned, so metrics differ.
        assert commercial.delay_ns != pytest.approx(best.delay_ns, rel=1e-9)


class TestSeedIndependence:
    def test_methods_share_simulator_semantics(self):
        """All methods must count simulations identically (unique designs)."""
        for method in (
            MethodSpec("Random"),
            MethodSpec("GA", params={"population_size": 8}),
        ):
            spec = ExperimentSpec(
                name="seed-independence",
                task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
                methods=(method,),
                budget=30,
                seeds=(3,),
            )
            records = run_spec(spec).records[method.display_name]
            assert records[0].num_simulations == 30


class TestKillSwitchParity:
    """Records are a pure function of (spec, seed): neither the training
    engine (compiled step vs its eager reference) nor the synthesis
    backend may change them.  CircuitVAE and latent BO exercise compiled
    training and vectorized population synthesis."""

    SPEC = ExperimentSpec(
        name="kill-switch-parity",
        task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.33),
        methods=(
            MethodSpec("CircuitVAE", params=FIG3_VAE_PARAMS),
            MethodSpec(
                "BO",
                params=dict(
                    vae=FIG3_VAE_PARAMS,
                    batch_per_round=8,
                    candidate_pool=64,
                    gp_max_points=48,
                ),
            ),
        ),
        budget=40,
        num_seeds=2,
    )

    @pytest.fixture(scope="class")
    def default_result(self):
        return run_spec(self.SPEC)

    @staticmethod
    def assert_same_records(records_by_method, reference):
        for name, expected_records in reference.items():
            records = records_by_method[name]
            assert len(records) == len(expected_records) == 2
            for record, expected in zip(records, expected_records):
                assert record.seed == expected.seed
                np.testing.assert_array_equal(record.costs, expected.costs)
                np.testing.assert_array_equal(record.areas, expected.areas)
                np.testing.assert_array_equal(record.delays, expected.delays)

    def test_default_run_takes_both_fast_paths(self, default_result):
        assert default_result.telemetry["train_replays"] > 0
        # population batches reach synthesis as one submission each
        assert default_result.telemetry["batches"] < default_result.telemetry["synth_calls"]

    def test_eager_reference_keeps_records(self, default_result):
        # The same grid with every training step on the eager tape.
        with eager_training():
            result = run_spec(self.SPEC)
        assert result.telemetry["train_replays"] == 0
        self.assert_same_records(result.records, default_result.records)

    def test_plain_scalar_simulators_keep_records(self, default_result):
        # The same grid on plain CircuitSimulators — scalar
        # task.synthesize per design, no engine — built through the
        # registry like Session builds it.
        task = self.SPEC.task.to_task()
        records = {}
        for method in self.SPEC.methods:
            entry = get_method(method.method)
            config = build_config(method.method, method.params, n=task.n)
            records[method.display_name] = run_serial_grid(
                lambda seed, _config=config: entry.factory(_config),
                task,
                self.SPEC.budget,
                self.SPEC.seed_list(),
                method.display_name,
            )
        self.assert_same_records(records, default_result.records)
