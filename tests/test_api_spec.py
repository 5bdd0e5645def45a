"""Tests for the declarative experiment specs (repro.api.spec)."""

import json

import pytest

from repro.api import (
    EngineSpec,
    ExperimentSpec,
    MethodSpec,
    TaskSpec,
    load_spec,
    save_spec,
)
from repro.circuits import CircuitTask, adder_task, datapath_io_timing


def small_spec():
    return ExperimentSpec(
        name="unit",
        task=TaskSpec(circuit_type="adder", n=6, delay_weight=0.5),
        methods=(
            MethodSpec("GA", params={"population_size": 6}),
            MethodSpec("CircuitVAE", label="vae-small",
                       params={"latent_dim": 8, "train": {"epochs": 2}}),
        ),
        budget=10,
        num_seeds=2,
        curve_points=2,
        engine=EngineSpec(parallel_seeds=2),
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = small_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = small_spec()
        text = spec.to_json()
        json.loads(text)  # valid JSON
        assert ExperimentSpec.from_json(text) == spec

    def test_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = str(tmp_path / "spec.json")
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_methods_list_normalized_to_tuple(self):
        spec = ExperimentSpec(
            name="t", methods=[MethodSpec("GA")], budget=10, seeds=[1, 2]
        )
        assert isinstance(spec.methods, tuple)
        assert isinstance(spec.seeds, tuple)

    def test_explicit_seeds_round_trip(self):
        spec = ExperimentSpec(name="t", methods=(MethodSpec("GA"),),
                              budget=10, seeds=(5, 7))
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.seed_list() == [5, 7]


class TestValidation:
    def test_unknown_method_name_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodSpec("NoSuchMethod")

    def test_unknown_method_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="CircuitVAE"):
            MethodSpec("NoSuchMethod")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="population_sizes"):
            MethodSpec("GA", params={"population_sizes": 4})

    def test_unknown_nested_param_rejected(self):
        with pytest.raises(ValueError, match="epochz"):
            MethodSpec("CircuitVAE", params={"train": {"epochz": 1}})

    def test_unknown_structure_name_rejected_at_spec_time(self):
        # A typo'd classical-structure name must fail validation, not
        # surface mid-run after other methods already burned synthesis.
        with pytest.raises(ValueError, match="sklansy"):
            MethodSpec("CircuitVAE", params={"fixed_init_graph": "sklansy"})

    def test_null_params_normalized_and_non_mapping_rejected(self):
        assert MethodSpec.from_dict({"method": "GA", "params": None}).params == {}
        with pytest.raises(ValueError, match="params must be an object"):
            MethodSpec("GA", params=[1, 2])

    def test_params_snapshot_isolated_from_caller(self):
        params = {"train": {"epochs": 3}}
        spec = MethodSpec("CircuitVAE", params=params)
        params["train"]["epochs"] = 99
        params["typo"] = 1
        assert spec.params == {"train": {"epochs": 3}}
        exported = spec.to_dict()
        exported["params"]["train"]["epochs"] = 42
        assert spec.params["train"]["epochs"] == 3

    def test_validation_lists_come_from_owning_modules(self):
        from repro.circuits.adder import IO_PROFILES, datapath_io_timing
        from repro.synth.library import LIBRARIES, LIBRARY_NAMES

        assert set(LIBRARIES()) == set(LIBRARY_NAMES)
        for profile in IO_PROFILES:
            datapath_io_timing(4, profile=profile)
        for library in LIBRARY_NAMES:
            TaskSpec(n=8, library=library).to_task()

    def test_unknown_experiment_field_rejected(self):
        payload = small_spec().to_dict()
        payload["budgets"] = 100
        with pytest.raises(ValueError, match="budgets"):
            ExperimentSpec.from_dict(payload)

    def test_unknown_task_field_rejected(self):
        payload = small_spec().to_dict()
        payload["task"]["bits"] = 8
        with pytest.raises(ValueError, match="bits"):
            ExperimentSpec.from_dict(payload)

    def test_circuit_type_validation_reuses_task_constant(self):
        # every supported type is accepted...
        for circuit_type in CircuitTask.circuit_types():
            TaskSpec(circuit_type=circuit_type, n=8)
        # ...anything else is rejected with the supported list.
        with pytest.raises(ValueError, match="multiplier"):
            TaskSpec(circuit_type="multiplier")

    def test_delay_weight_range(self):
        with pytest.raises(ValueError):
            TaskSpec(delay_weight=1.5)

    def test_unknown_library_rejected(self):
        with pytest.raises(ValueError, match="library"):
            TaskSpec(library="tsmc7")

    def test_io_profile_only_for_adders(self):
        with pytest.raises(ValueError, match="io_profile"):
            TaskSpec(circuit_type="gray", io_profile="late-msb")
        with pytest.raises(ValueError, match="io_profile"):
            TaskSpec(io_profile="weird")

    def test_duplicate_method_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ExperimentSpec(
                name="t", budget=10,
                methods=(MethodSpec("GA"), MethodSpec("GA")),
            )

    def test_labels_disambiguate_one_method(self):
        spec = ExperimentSpec(
            name="t", budget=10,
            methods=(MethodSpec("GA", label="a"), MethodSpec("GA", label="b")),
        )
        assert [m.display_name for m in spec.methods] == ["a", "b"]

    def test_positive_budget_and_seeds(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", budget=0, methods=(MethodSpec("GA"),))
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", budget=10, num_seeds=0,
                           methods=(MethodSpec("GA"),))

    def test_engine_spec_validation(self):
        with pytest.raises(ValueError):
            EngineSpec(workers=0)
        with pytest.raises(ValueError):
            EngineSpec(parallel_seeds=0)


class TestFieldTypes:
    """A JSON value of the wrong scalar type fails at spec time with the
    dotted field, not as a TypeError inside the run."""

    @pytest.mark.parametrize(
        "payload,message",
        [
            pytest.param(
                {"budget": "10"}, "budget must be int, got str '10'", id="budget-str"
            ),
            pytest.param(
                {"budget": True}, "budget must be int, got bool True", id="budget-bool"
            ),
            pytest.param(
                {"task": {"n": "8"}}, "task.n must be int, got str '8'", id="task-n"
            ),
            pytest.param(
                {"task": {"delay_weight": "0.5"}},
                "task.delay_weight must be float",
                id="task-delay-weight",
            ),
            pytest.param(
                {"task": {"library": 45}},
                "task.library must be str, got int 45",
                id="task-library",
            ),
            pytest.param(
                {"engine": {"workers": 1.5}},
                "engine.workers must be int, got float 1.5",
                id="engine-workers",
            ),
            pytest.param(
                {"engine": {"parallel_seeds": False}},
                "engine.parallel_seeds must be int",
                id="engine-parallel-seeds",
            ),
            pytest.param(
                {"seeds": [1, "2"]}, "seeds[1] must be int, got str '2'", id="seeds"
            ),
            pytest.param(
                {"methods": [{"method": "GA", "params": {"population_size": "8"}}]},
                "GA.population_size must be int, got str '8'",
                id="ga-param",
            ),
            pytest.param(
                {"methods": [{"method": "CircuitVAE", "params": {"train": {"epochs": 2.0}}}]},
                "CircuitVAE.train.epochs must be int, got float 2.0",
                id="nested-param",
            ),
            pytest.param(
                {"methods": [{"method": "GA", "label": 3}]},
                "methods.label must be str, got int 3",
                id="method-label",
            ),
        ],
    )
    def test_wrong_scalar_type_names_the_field(self, payload, message):
        with pytest.raises(ValueError) as info:
            ExperimentSpec.from_dict({"name": "t", **payload})
        assert str(info.value).startswith(message)

    def test_int_fills_float_and_optional_takes_none(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "t",
                "task": {"n": 8, "delay_weight": 1, "io_profile": None},
                "engine": {"workers": None},
                "seeds": None,
                "methods": [{"method": "GA", "params": {"mutation_rate": 0}}],
            }
        )
        assert spec.task.delay_weight == 1
        assert spec.engine.workers is None


class TestTaskBuilding:
    def test_standard_adder_matches_builder(self):
        task = TaskSpec(circuit_type="adder", n=8, delay_weight=0.66).to_task()
        reference = adder_task(8, 0.66)
        assert task.name == reference.name
        assert task.n == reference.n
        assert task.delay_weight == reference.delay_weight
        assert task.circuit_type == reference.circuit_type
        assert task.library.name == reference.library.name

    def test_gray_and_lzd_tasks(self):
        assert TaskSpec(circuit_type="gray", n=8, delay_weight=0.6).to_task().circuit_type == "gray"
        assert TaskSpec(circuit_type="lzd", n=8, delay_weight=0.6).to_task().circuit_type == "lzd"

    def test_datapath_profile_builds_realistic_timing(self):
        from repro.circuits import realistic_adder_task

        spec = TaskSpec(circuit_type="adder", n=8, delay_weight=0.6,
                        library="8nm", io_profile="late-msb")
        task = spec.to_task()
        assert task.io_timing == datapath_io_timing(8, profile="late-msb")
        assert task.library.name == "scaled-8nm"
        # built by the same builder the library exposes — names match
        assert task.name == realistic_adder_task(8, 0.6).name

    def test_name_override(self):
        task = TaskSpec(n=8, name="my-adder").to_task()
        assert task.name == "my-adder"


class TestDerivedValues:
    def test_seed_list_matches_harness_convention(self):
        from repro.utils.rng import seed_sequence

        spec = ExperimentSpec(name="t", budget=10, num_seeds=3, base_seed=4,
                              methods=(MethodSpec("GA"),))
        assert spec.seed_list() == seed_sequence(4, 3)

    def test_budget_ladder_matches_bench_convention(self):
        spec = ExperimentSpec(name="t", budget=140, curve_points=8,
                              methods=(MethodSpec("GA"),))
        # 8 even steps plus the appended full-budget endpoint (140 % 8 != 0)
        assert spec.budget_ladder() == list(range(140 // 8, 141, 140 // 8)) + [140]

    def test_budget_ladder_always_ends_at_full_budget(self):
        for budget, points in [(100, 8), (10, 3), (6, 3), (7, 7), (5, 8)]:
            spec = ExperimentSpec(name="t", budget=budget,
                                  curve_points=min(points, budget),
                                  methods=(MethodSpec("GA"),))
            ladder = spec.budget_ladder()
            assert ladder[-1] == budget, (budget, points, ladder)
            assert all(a < b for a, b in zip(ladder, ladder[1:]))
