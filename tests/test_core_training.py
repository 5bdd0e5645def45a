"""Tests for VAE + cost-head training (repro.core.training)."""

import contextlib
import gc
import os
import weakref

import numpy as np
import pytest

from repro import nn
from repro.core.dataset import CircuitDataset
from repro.core.search import SearchConfig, latent_gradient_search
from repro.core.training import (
    TRAIN_SHARDS,
    TrainConfig,
    _compiled_step_for,
    train_model,
)
from repro.core.vae import CircuitVAEModel, VAEConfig
from repro.prefix import random_graph
from repro.utils.threads import blas_budget

from helpers import eager_training


def small_dataset(seed=0, size=40, n=8):
    rng = np.random.default_rng(seed)
    ds = CircuitDataset()
    while len(ds) < size:
        g = random_graph(n, rng, rng.random() * 0.6)
        ds.add(g, float(g.node_count()))
    return ds


def small_model(seed=1):
    return CircuitVAEModel(
        VAEConfig(n=8, latent_dim=8, base_channels=4, hidden_dim=48),
        np.random.default_rng(seed),
    )


@pytest.fixture(scope="module")
def toy_setup():
    """A small dataset of random 8-bit circuits with node-count cost."""
    rng = np.random.default_rng(0)
    ds = CircuitDataset()
    while len(ds) < 40:
        g = random_graph(8, rng, rng.random() * 0.6)
        ds.add(g, float(g.node_count()))
    model = CircuitVAEModel(
        VAEConfig(n=8, latent_dim=8, base_channels=4, hidden_dim=48),
        np.random.default_rng(1),
    )
    config = TrainConfig(epochs=80, batch_size=16, lr=2e-3)
    stats = train_model(model, ds, np.random.default_rng(2), config)
    return model, ds, stats


class TestTraining:
    def test_loss_decreases(self, toy_setup):
        _, _, stats = toy_setup
        assert stats.total[-1] < stats.total[0]
        assert stats.reconstruction[-1] < stats.reconstruction[0]

    def test_stats_last(self, toy_setup):
        _, _, stats = toy_setup
        last = stats.last()
        assert set(last) == {"total", "reconstruction", "kl", "cost"}

    def test_cost_head_learns_signal(self, toy_setup):
        """Predicted costs must correlate with true costs on training data."""
        model, ds, _ = toy_setup
        with nn.no_grad():
            mu, _ = model.encode(ds.grids())
        preds = model.predict_cost_raw(mu)
        corr = np.corrcoef(preds, ds.costs)[0, 1]
        assert corr > 0.6

    def test_reconstructions_resemble_inputs(self, toy_setup):
        model, ds, _ = toy_setup
        grids = ds.grids()
        with nn.no_grad():
            mu, _ = model.encode(grids)
            logits = model.decode(mu).numpy()
        accuracy = ((logits > 0) == (grids > 0.5)).mean()
        assert accuracy > 0.8

    def test_normalizer_set_from_dataset(self, toy_setup):
        model, ds, _ = toy_setup
        mean, std = ds.cost_normalizer()
        assert model.cost_mean == pytest.approx(mean)
        assert model.cost_std == pytest.approx(std)

    def test_empty_dataset_raises(self):
        model = CircuitVAEModel(
            VAEConfig(n=8, latent_dim=4, base_channels=4, hidden_dim=16),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            train_model(model, CircuitDataset(), np.random.default_rng(0))

    def test_reweight_flag_changes_training(self):
        """With reweighting, low-cost circuits dominate minibatches, so the
        two settings visit different data and end in different states."""
        rng = np.random.default_rng(3)
        ds = CircuitDataset(k=1e-4)
        while len(ds) < 30:
            g = random_graph(8, rng, rng.random() * 0.6)
            ds.add(g, float(g.node_count()))

        def fit(reweight):
            model = CircuitVAEModel(
                VAEConfig(n=8, latent_dim=4, base_channels=4, hidden_dim=16),
                np.random.default_rng(42),
            )
            train_model(
                model, ds, np.random.default_rng(43),
                TrainConfig(epochs=4, batch_size=8, reweight=reweight),
            )
            with nn.no_grad():
                mu, _ = model.encode(ds.grids())
            return mu.numpy()

        assert not np.allclose(fit(True), fit(False))


class TestCompiledTraining:
    """The compiled graph executor vs the eager reference engine."""

    def _fit(self, compiled, epochs=6):
        ds = small_dataset(seed=7)
        model = small_model(seed=8)
        with contextlib.nullcontext() if compiled else eager_training():
            stats = train_model(
                model, ds, np.random.default_rng(9),
                TrainConfig(epochs=epochs, batch_size=16),
            )
        return model, stats

    def test_compiled_matches_eager_losses_to_1e10(self):
        """The acceptance-criterion equivalence contract."""
        _, eager = self._fit(compiled=False)
        _, compiled = self._fit(compiled=True)
        assert not eager.compile_counters and compiled.compile_counters["replays"]
        for name in ("total", "reconstruction", "kl", "cost"):
            np.testing.assert_allclose(
                getattr(compiled, name), getattr(eager, name), rtol=1e-10, atol=1e-12
            )

    def test_compiled_matches_eager_parameters(self):
        m_eager, _ = self._fit(compiled=False)
        m_comp, _ = self._fit(compiled=True)
        for (name, p1), (_, p2) in zip(
            m_eager.named_parameters(), m_comp.named_parameters()
        ):
            np.testing.assert_allclose(p2.data, p1.data, rtol=1e-9, atol=1e-11), name

    def test_compile_counters_surface_in_stats(self):
        _, stats = self._fit(compiled=True)
        # One trace per batch shape, however many threads replay it.
        assert stats.compile_counters.get("traces", 0) == 1
        assert stats.compile_counters.get("replays", 0) == stats.epochs_run * 2
        assert stats.epochs_skipped == 0

    def test_failing_compile_raises_instead_of_training_eager(self, monkeypatch):
        """A rejected trace and a compiler crash both stop train_model
        with their own error; no step runs on another engine."""

        def reject(self, inputs, traced):
            raise nn.CompileUnsupported("compiled output 'loss' diverges from eager")

        def crash(self, inputs, traced):
            raise IndexError("kernel workspace out of range")

        for verify, error in ((reject, nn.CompileUnsupported), (crash, IndexError)):
            monkeypatch.setattr(nn.compile.GraphProgram, "verify", verify)
            model = small_model(seed=8)
            before = model.state_dict()
            with pytest.raises(error):
                train_model(
                    model, small_dataset(seed=7), np.random.default_rng(9),
                    TrainConfig(epochs=2, batch_size=16),
                )
            for name, value in model.state_dict().items():
                np.testing.assert_array_equal(value, before[name], err_msg=name)

    def test_step_timings_carry_engine_labels(self):
        """Compiled rounds carry the compiled step's replay count (one
        per step); the eager reference reports no engine counters."""
        _, compiled = self._fit(compiled=True, epochs=2)
        assert compiled.compile_counters["replays"] == 2 * 2  # epochs * batches
        _, eager = self._fit(compiled=False, epochs=2)
        assert eager.compile_counters == {}

    def test_compiled_step_reused_across_rounds(self):
        """One optimizer carried across train_model calls retraces nothing."""
        ds = small_dataset(seed=10)
        model = small_model(seed=11)
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        rng = np.random.default_rng(12)
        cfg = TrainConfig(epochs=2, batch_size=16)
        first = train_model(model, ds, rng, cfg, optimizer=optimizer)
        second = train_model(model, ds, rng, cfg, optimizer=optimizer)
        assert first.compile_counters.get("traces", 0) == 1
        assert second.compile_counters.get("traces", 0) == 0
        assert second.compile_counters.get("replays", 0) > 0
        # ...but rebuilds its programs, with their storage, every call.
        assert second.compile_counters["nodes"] == first.compile_counters["nodes"]
        assert first.compile_s > 0.0 and second.compile_s > 0.0

    def test_train_model_releases_its_programs(self, monkeypatch):
        """No program outlives the call, nor keeps its storage alive
        through a parameter's ``.grad``: each one is unreferenced (dead
        without a cyclic collection) once train_model returns."""
        built = []
        build = nn.CompiledTrainStep._build

        def tracked(self, *args):
            program = build(self, *args)
            built.append(weakref.ref(program))
            return program

        monkeypatch.setattr(nn.CompiledTrainStep, "_build", tracked)
        monkeypatch.setattr(nn.compile, "core_budget", lambda: TRAIN_SHARDS)
        model = small_model(seed=16)
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        cfg = TrainConfig(epochs=2, batch_size=16)
        gc.disable()
        try:
            train_model(
                model, small_dataset(seed=17), np.random.default_rng(18), cfg,
                optimizer=optimizer,
            )
            assert len(built) == TRAIN_SHARDS
            assert all(ref() is None for ref in built)
        finally:
            gc.enable()
        step = _compiled_step_for(model, optimizer, cfg)
        assert not step._programs and not step._tables
        assert len(step._traces) == 1

    def test_no_grad_points_into_step_storage_after_train_model(self, monkeypatch):
        """Once train_model returns, no parameter ``.grad`` shares memory
        with the step's storage (program gradient buffers, the shard
        sums), so the latent search's eager backward writes gradients of
        its own; the next call trains bitwise as if it had not run."""
        storage = []
        release = nn.CompiledTrainStep.release

        def recording(self):
            storage.extend(self._combined._sums)
            for program in self._programs.values():
                storage.extend(buf for _, buf in program.param_grads())
            release(self)

        monkeypatch.setattr(nn.CompiledTrainStep, "release", recording)
        ds = small_dataset(seed=10)
        cfg = TrainConfig(epochs=2, batch_size=16)
        runs = []
        for search_between in (False, True):
            storage.clear()
            model = small_model(seed=11)
            optimizer = nn.Adam(model.parameters(), lr=1e-3)
            rng = np.random.default_rng(12)
            train_model(model, ds, rng, cfg, optimizer=optimizer)
            assert len(storage) > len(model.parameters())
            for name, p in model.named_parameters():
                assert p.grad is None or not any(
                    np.shares_memory(p.grad, buf) for buf in storage
                ), name
            if search_between:
                search_rng = np.random.default_rng(13)
                z = search_rng.standard_normal((4, model.config.latent_dim))
                latent_gradient_search(
                    model, z, search_rng, SearchConfig(num_steps=2, capture_every=1)
                )
            second = train_model(model, ds, rng, cfg, optimizer=optimizer)
            runs.append((second, model))
        (quiet, quiet_model), (searched, searched_model) = runs
        for name in ("total", "reconstruction", "kl", "cost"):
            assert getattr(searched, name) == getattr(quiet, name), name
        for (name, p1), (_, p2) in zip(
            quiet_model.named_parameters(), searched_model.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=name)

    def test_rebuilt_programs_match_fresh_compiles_bitwise(self):
        """Round 2 through programs rebuilt from round 1's kept trace
        trains the same parameters as a step traced afresh for round 2."""
        ds = small_dataset(seed=10)
        cfg = TrainConfig(epochs=2, batch_size=16)
        models = []
        for fresh in (False, True):
            model = small_model(seed=11)
            optimizer = nn.Adam(model.parameters(), lr=1e-3)
            rng = np.random.default_rng(12)
            train_model(model, ds, rng, cfg, optimizer=optimizer)
            if fresh:
                optimizer._compiled_train_steps.clear()
            second = train_model(model, ds, rng, cfg, optimizer=optimizer)
            assert second.compile_counters.get("traces", 0) == int(fresh)
            models.append(model)
        for (name, p1), (_, p2) in zip(
            models[0].named_parameters(), models[1].named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=name)


class TestShardedTraining:
    """The fixed two-shard step: placement never changes the numbers."""

    @pytest.mark.parametrize("batch_size", [16, 15])
    def test_parallel_and_serial_shards_bitwise(self, monkeypatch, batch_size):
        ds = small_dataset(seed=13)
        cfg = TrainConfig(epochs=3, batch_size=batch_size)

        def fit():
            model = small_model(seed=14)
            rng = np.random.default_rng(15)
            stats = train_model(model, ds, rng, cfg)
            return model, stats, rng.bit_generator.state

        # Overlap even on a one-core machine; then force the back-to-back
        # placement the way a two-seed grid on two cores does.
        monkeypatch.setattr(nn.compile, "core_budget", lambda: TRAIN_SHARDS)
        m_par, s_par, rng_par = fit()
        monkeypatch.undo()
        with blas_budget(1):
            m_ser, s_ser, rng_ser = fit()
        odd = batch_size % 2
        # One trace per shard shape: the worker shard's program is
        # built from shard 0's trace when the halves are equal.
        assert s_par.compile_counters["traces"] == 1 + odd
        assert s_ser.compile_counters["traces"] == 1 + odd
        assert s_par.compile_counters["replays"] == s_ser.compile_counters["replays"]
        for name in ("total", "reconstruction", "kl", "cost"):
            assert getattr(s_par, name) == getattr(s_ser, name), name
        for (name, p1), (_, p2) in zip(
            m_par.named_parameters(), m_ser.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=name)
        assert rng_par == rng_ser


class TestTrainingCheckpoints:
    """Durable epoch checkpoints + exact resume (the Session.resume path)."""

    CFG = TrainConfig(epochs=6, batch_size=16, checkpoint_every=2)

    def _run(self, checkpoint_dir=None, interrupt_after=None, tag="round000"):
        ds = small_dataset(seed=20)
        model = small_model(seed=21)
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        rng = np.random.default_rng(22)
        cfg = self.CFG if interrupt_after is None else TrainConfig(
            epochs=interrupt_after, batch_size=16, checkpoint_every=2
        )
        stats = train_model(
            model, ds, rng, cfg, optimizer=optimizer,
            checkpoint_dir=checkpoint_dir, checkpoint_tag=tag,
        )
        return model, optimizer, rng, stats

    def test_checkpoint_files_written(self, tmp_path):
        ckpt = str(tmp_path / "train")
        self._run(checkpoint_dir=ckpt)
        assert os.path.exists(os.path.join(ckpt, "round000.npz"))
        assert os.path.exists(os.path.join(ckpt, "round000.json"))

    def test_completed_training_fully_skipped_on_rerun(self, tmp_path):
        ckpt = str(tmp_path / "train")
        model_a, _, rng_a, stats_a = self._run(checkpoint_dir=ckpt)
        model_b, _, rng_b, stats_b = self._run(checkpoint_dir=ckpt)
        assert stats_b.epochs_skipped == self.CFG.epochs
        assert stats_b.epochs_run == 0
        np.testing.assert_array_equal(stats_b.total, stats_a.total)
        for (_, p1), (_, p2) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data)
        # rng fast-forwarded to exactly where the full run left it.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_partial_checkpoint_resumes_bit_identically(self, tmp_path):
        reference_model, _, reference_rng, reference_stats = self._run()
        ckpt = str(tmp_path / "train")
        # "Crash" after 4 of 6 epochs (checkpoint_every=2 makes epoch 4
        # durable), then re-run the full schedule against the same dir.
        self._run(checkpoint_dir=ckpt, interrupt_after=4)
        # The resumed call uses the full 6-epoch config: its fingerprint
        # differs from the 4-epoch one, so rewrite the meta to the real
        # scenario — an interrupted 6-epoch run checkpointed at epoch 4.
        import json
        meta_path = os.path.join(ckpt, "round000.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["fingerprint"]["epochs"] = 6
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        model, _, rng, stats = self._run(checkpoint_dir=ckpt)
        assert stats.epochs_skipped == 4
        assert stats.epochs_run == 2
        np.testing.assert_array_equal(stats.total, reference_stats.total)
        for (_, p1), (_, p2) in zip(
            reference_model.named_parameters(), model.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_fingerprint_mismatch_ignores_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "train")
        self._run(checkpoint_dir=ckpt)
        ds = small_dataset(seed=20, size=30)  # different dataset size
        model = small_model(seed=21)
        stats = train_model(
            model, ds, np.random.default_rng(22), self.CFG,
            checkpoint_dir=ckpt, checkpoint_tag="round000",
        )
        assert stats.epochs_skipped == 0
        assert stats.epochs_run == self.CFG.epochs

    def test_corrupt_checkpoint_meta_ignored(self, tmp_path):
        ckpt = str(tmp_path / "train")
        self._run(checkpoint_dir=ckpt)
        with open(os.path.join(ckpt, "round000.json"), "w") as handle:
            handle.write("{ truncated")
        _, _, _, stats = self._run(checkpoint_dir=ckpt)
        assert stats.epochs_skipped == 0

    def test_torn_checkpoint_pair_ignored(self, tmp_path):
        """npz newer than json (crash between the two writes): ignore."""
        import json
        ckpt = str(tmp_path / "train")
        self._run(checkpoint_dir=ckpt)
        meta_path = os.path.join(ckpt, "round000.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["epoch"] = 2  # pretend the meta write never caught up
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        _, _, _, stats = self._run(checkpoint_dir=ckpt)
        assert stats.epochs_skipped == 0
        assert stats.epochs_run == self.CFG.epochs

    def test_unapplicable_checkpoint_rolls_back_and_retrains(self, tmp_path):
        """Fingerprint-matching checkpoint whose arrays no longer fit the
        model must be ignored without half-restoring anything."""
        import json
        ckpt = str(tmp_path / "train")
        self._run(checkpoint_dir=ckpt)
        # Same parameter *count*, different architecture: hidden_dim 48
        # -> latent 12 keeps num_parameters from distinguishing them? It
        # does not need to: we force the fingerprint to match instead.
        ds = small_dataset(seed=20)
        model = small_model(seed=21)
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        meta_path = os.path.join(ckpt, "round000.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        # Corrupt the archive side: rename one parameter key so
        # load_state_dict must reject it after the gates pass.
        npz_path = os.path.join(ckpt, "round000.npz")
        state = nn.load_state(npz_path)
        first = next(name for name in state if name.startswith("param:"))
        state["param:not.a.real.parameter"] = state.pop(first)
        nn.save_state(state, npz_path)
        stats = train_model(
            model, ds, np.random.default_rng(22), self.CFG,
            optimizer=optimizer, checkpoint_dir=ckpt, checkpoint_tag="round000",
        )
        assert stats.epochs_skipped == 0
        assert stats.epochs_run == self.CFG.epochs
        assert meta["epoch"] == self.CFG.epochs  # gates genuinely matched


class TestCompiledStepCache:
    """The per-optimizer compiled-step cache holds its models weakly."""

    CFG = TrainConfig(epochs=2, batch_size=16)

    def test_cache_hit_same_model_and_config(self):
        model = small_model()
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        step = _compiled_step_for(model, optimizer, self.CFG)
        assert _compiled_step_for(model, optimizer, self.CFG) is step

    def test_distinct_models_get_distinct_steps(self):
        model_a, model_b = small_model(1), small_model(2)
        opt_a = nn.Adam(model_a.parameters(), lr=1e-3)
        opt_b = nn.Adam(model_b.parameters(), lr=1e-3)
        assert _compiled_step_for(model_a, opt_a, self.CFG) is not (
            _compiled_step_for(model_b, opt_b, self.CFG)
        )

    def test_entry_dies_with_model(self):
        """Regression: the cached step must not strongly reference the
        model (a WeakKeyDictionary entry whose value holds its key is
        immortal), so dropping the model drops the whole entry — even
        after a full compiled training round."""
        model = small_model()
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        stats = train_model(
            model, small_dataset(), np.random.default_rng(5), self.CFG,
            optimizer=optimizer,
        )
        assert stats.compile_counters["replays"] > 0
        cache = optimizer._compiled_train_steps
        assert len(cache) == 1
        model_ref = weakref.ref(model)
        del model
        gc.collect()
        assert model_ref() is None
        assert len(cache) == 0

    def test_dead_model_trace_raises_compile_unsupported(self):
        model = small_model()
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        step = _compiled_step_for(model, optimizer, self.CFG)
        del model
        gc.collect()
        with pytest.raises(nn.CompileUnsupported):
            step.step_fn(
                nn.Tensor(np.zeros((2, 1, 12, 12))),
                nn.Tensor(np.zeros((2, 8, 8))),
                nn.Tensor(np.zeros((2, 8))),
                nn.Tensor(np.zeros(2)),
            )
