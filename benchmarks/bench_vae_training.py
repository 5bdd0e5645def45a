"""Microbench: compiled CircuitVAE train step vs the eager tape.

Measures ``repro.core.training.train_model`` on the paper's CNN-VAE
configuration (the default ``VAEConfig`` — the architecture of Sec. 5.1
at this repo's CPU scale — and the paper training hyperparameters:
beta=0.01, lambda=10, Adam 1e-3, batch 64) at the sizes the
``vae_adder32`` (n=32) and ``bo_adder16_par2`` (n=16) workloads train,
and at the paper's n=64, on two engines:

* **compiled** — the traced graph executor (:mod:`repro.nn.compile`),
  the only engine ``train_model`` runs: matmul-based conv kernels (the
  tap kernel for the narrowing output conv, im2col for the others),
  liveness-arena buffer reuse, shape-guarded replay, and the two
  half-batch shards on two threads when the core budget allows;
* **eager** — the define-by-run tape, the numerical reference, swapped
  in for the compiled step by ``eager_training`` from the test suite's
  ``tests/helpers.py``.

Both engines run the same two-shard step, so the loss curves compare
like for like.

Asserts the **equivalence contract** (identical per-epoch loss curves to
1e-10 across both engines, same seeds) and the **>= 2x steady-state
speedup gate**, then writes one record per case,
``BENCH_vae_training-epochs<k>.json`` at n=32 and
``BENCH_vae_training-n<n>-epochs<k>.json`` at other sizes (the CI
perf-smoke job uploads the records of the cases it runs).  The record's
``compile_counters`` include the compiled step's storage footprint (the
``*_bytes`` counters of :class:`repro.nn.CompileStats`: values,
gradients, scratch and the shared col2im tables), and ``ru_maxrss_mb``
is the process's peak RSS, so the uploaded records track training
memory; ``compile_s``
and ``traces`` are the trace, eager-verify and program-build seconds
and the trace count of one compiled call that finds no kept trace (it
runs on an empty process trace table).

Cases (pytest ids) are the bitwidth and the timed epochs per engine:

* ``epochs2`` — n=32, CI's quick smoke, where only the equivalence
  contract is asserted;
* ``epochs8`` — n=32; the speedup gate arms at 4+ epochs, enough replay
  steps to amortize timing noise;
* ``n16-epochs2`` — n=16, ``bo_adder16_par2``'s grid (the tap kernel on
  16x16 maps); equivalence only, also run by CI;
* ``n64-epochs2`` — n=64, where training storage grows 4x; equivalence
  only, also run by CI, whose record tracks n=64 training memory.

Equivalence is asserted in every case.
"""

import contextlib
import os
import resource
import time
from unittest import mock

import numpy as np
import pytest

from repro import nn
from repro.core.dataset import CircuitDataset
from repro.core.training import TrainConfig, train_model
from repro.core.vae import CircuitVAEModel, VAEConfig
from repro.prefix import random_graph

from _record import write_record
from common import once
from helpers import eager_training

SPEEDUP_TARGET = 2.0
SPEEDUP_MIN_EPOCHS = 4
DATASET = 128
BATCH = 64  # paper batch size -> 2 steps per epoch
EQUIV_EPOCHS = 4


def _dataset(n):
    rng = np.random.default_rng(0)
    ds = CircuitDataset()
    while len(ds) < DATASET:
        g = random_graph(n, rng, rng.random() * 0.6)
        ds.add(g, float(g.node_count()))
    return ds


def _engine(compiled):
    """The context a train_model call runs in for the chosen engine."""
    return contextlib.nullcontext() if compiled else eager_training()


def _fit(ds, n, compiled, epochs):
    """One fresh train_model call under the chosen engine, tracing
    afresh when compiled."""
    with _engine(compiled), mock.patch.object(nn.compile, "_TRACES", {}):
        model = CircuitVAEModel(VAEConfig(n=n), np.random.default_rng(1))
        return train_model(
            model, ds, np.random.default_rng(2),
            TrainConfig(epochs=epochs, batch_size=BATCH),
        )


class _SteadyTrainer:
    """One engine's steady-state train_model runner.

    One model + optimizer carried across calls, exactly like the
    acquisition loop of Algorithm 1 — the warm-up call pays whatever
    tracing is left, the timed rounds measure program builds and replay.
    """

    def __init__(self, ds, n, compiled, epochs):
        self.ds = ds
        self.compiled = compiled
        self.model = CircuitVAEModel(VAEConfig(n=n), np.random.default_rng(1))
        self.optimizer = nn.Adam(self.model.parameters(), lr=1e-3)
        self.rng = np.random.default_rng(2)
        self.config = TrainConfig(epochs=epochs, batch_size=BATCH)
        self()  # warm-up (compiles when compiled)

    def __call__(self):
        with _engine(self.compiled):
            start = time.perf_counter()
            train_model(
                self.model, self.ds, self.rng, self.config, optimizer=self.optimizer
            )
            return time.perf_counter() - start


def run_vae_training(n, epochs):
    ds = _dataset(n)

    # -- equivalence contract: identical loss curves to 1e-10 ----------
    eager_ref = _fit(ds, n, compiled=False, epochs=EQUIV_EPOCHS)
    compiled_ref = _fit(ds, n, compiled=True, epochs=EQUIV_EPOCHS)
    assert compiled_ref.compile_counters["replays"] > 0
    assert not eager_ref.compile_counters
    curve_dev = 0.0
    for name in ("total", "reconstruction", "kl", "cost"):
        a = np.asarray(getattr(eager_ref, name))
        b = np.asarray(getattr(compiled_ref, name))
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-12)
        curve_dev = max(curve_dev, float(np.max(np.abs(b - a) / np.abs(a))))

    # -- steady-state speedup ------------------------------------------
    # Min-of-rounds per engine: scheduler/VM load spikes only ever add
    # time, so the minimum is the robust steady-state estimator (the
    # classic microbenchmark rule; medians drift under sustained load).
    eager = _SteadyTrainer(ds, n, compiled=False, epochs=epochs)
    eager_s = min(eager() for _ in range(5))
    compiled = _SteadyTrainer(ds, n, compiled=True, epochs=epochs)
    compiled_s = min(compiled() for _ in range(5))
    steps = epochs * (DATASET // BATCH)

    stats = {
        "n": n,
        "dataset": DATASET,
        "batch_size": BATCH,
        "epochs": epochs,
        "steps": steps,
        "eager_s": eager_s,
        "compiled_s": compiled_s,
        "eager_ms_per_step": eager_s / steps * 1e3,
        "compiled_ms_per_step": compiled_s / steps * 1e3,
        "speedup": eager_s / compiled_s,
        "loss_curve_max_rel_dev": curve_dev,
        # trace + eager verify + program builds of one fresh call, and
        # its traces (one per batch shape)
        "compile_s": compiled_ref.compile_s,
        "traces": compiled_ref.compile_counters.get("traces", 0),
        "compile_counters": dict(compiled_ref.compile_counters),
        # ru_maxrss is in KiB on Linux
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cpus": os.cpu_count() or 1,
    }
    size = "" if n == 32 else f"n{n}-"
    return stats, write_record(f"vae_training-{size}epochs{epochs}", stats)


@pytest.mark.parametrize(
    "n, epochs",
    [(32, 2), (32, 8), (16, 2), (64, 2)],
    ids=["epochs2", "epochs8", "n16-epochs2", "n64-epochs2"],
)
def test_vae_training(benchmark, n, epochs):
    stats, path = once(benchmark, lambda: run_vae_training(n, epochs))
    print()
    print(
        f"CNN-VAE train step: n={stats['n']} batch={stats['batch_size']} "
        f"({stats['cpus']} CPUs)"
    )
    print(f"  eager tape      {stats['eager_ms_per_step']:8.2f} ms/step")
    print(
        f"  graph executor  {stats['compiled_ms_per_step']:8.2f} ms/step "
        f"({stats['speedup']:.2f}x)"
    )
    print(
        f"  loss-curve max rel deviation {stats['loss_curve_max_rel_dev']:.2e} "
        f"(contract: 1e-10)"
    )
    footprint = ", ".join(
        f"{name} {count / 2**20:.1f}"
        for name, count in stats["compile_counters"].items()
        if name.endswith("_bytes")
    )
    print(f"  compiled step footprint (MiB): {footprint}")
    print(
        f"  compile {stats['compile_s'] * 1e3:.0f} ms over {stats['traces']} trace(s)"
    )
    print(f"  process peak RSS {stats['ru_maxrss_mb']:.0f} MB")
    print(f"  record -> {path}")
    # Equivalence is asserted inside run_vae_training in every case;
    # the throughput gate arms once there are enough timed steps for a
    # stable measurement.
    if epochs >= SPEEDUP_MIN_EPOCHS:
        assert stats["speedup"] >= SPEEDUP_TARGET, stats
