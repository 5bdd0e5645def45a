"""Joint training of the VAE and cost predictor (paper Sec. 4.1, Eq. 3).

The loss is

    L = sum_i w_i(D) * [ BCE(x_i | z_i) + beta * KL(q(z|x_i) || N(0,I)) ]
        + lambda * w_i(D) * (f_pi(z_i) - c_i)^2

with beta = 0.01, lambda = 10.0, k = 1e-3 in all the paper's experiments,
optimized with Adam.  The per-datapoint weights w_i implement weighted
retraining (Eq. 2); minibatches are drawn *by weight* with replacement,
which is the estimator Tripp et al. use and equals the weighted objective
in expectation.  Costs are standardized before entering the cost head so
lambda's scale is task-independent.

Execution engine
----------------
The step graph never changes shape within a call, so every
forward+backward+optimizer step runs through the traced graph executor
(:mod:`repro.nn.compile`): one eager trace per batch shape, then
buffer-reusing replay with matmul-based convolution kernels, gated by
``benchmarks/bench_vae_training.py`` at >= 2x the eager tape on the
CNN-VAE configuration.  The eager tape stays the numerical reference
(per-epoch losses agree to well below 1e-10) but is not a runtime
alternative: a step the compiler rejects raises
:class:`repro.nn.CompileUnsupported` instead of training on another
engine, so records never depend on whether a trace compiled.  Each
call builds its own compiled step and releases its programs and their
storage on the way out (the eager decode that follows each round needs
the memory).  The verified traces are the process's: every model of one
architecture (model class, ``VAEConfig``, ``beta``, ``lam``) shares one
trace and one eager verify per batch shape, across rounds, cells and
seed threads, and each call builds its programs from them.

Every step is the size-weighted mean of :data:`TRAIN_SHARDS`
half-batch passes.  The compiled step overlaps the halves on two
threads while the core budget
(:func:`repro.utils.threads.core_budget`) allows, and replays them back
to back otherwise; the count is fixed so that records never depend on
the machine.

Checkpointing
-------------
Pass ``checkpoint_dir`` (the run-directory integration does, per
``(method, seed)`` cell) and every ``config.checkpoint_every`` epochs —
plus at completion — the model parameters, optimizer moments, rng state
and loss traces are written atomically under a per-call ``tag``.  A
re-entrant call with the same tag and a matching fingerprint restores
everything and skips the completed epochs, which is how
:meth:`repro.api.Session.resume` avoids re-training interrupted runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..obs import trace
from ..utils.io import atomic_write_json
from .dataset import CircuitDataset
from .vae import CircuitVAEModel

__all__ = ["TrainConfig", "TrainStats", "train_model", "report_training_round"]


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (paper defaults)."""

    beta: float = 0.01  # KL weight (beta-VAE)
    lam: float = 10.0  # cost-prediction loss weight (lambda)
    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    grad_clip: float = 5.0
    reweight: bool = True  # Eq. 2 on; False reproduces the Fig. 4 ablation
    checkpoint_every: int = 5  # epochs between durable checkpoints (if any)


@dataclass
class TrainStats:
    """Per-epoch loss traces plus execution-engine counters."""

    total: List[float] = field(default_factory=list)
    reconstruction: List[float] = field(default_factory=list)
    kl: List[float] = field(default_factory=list)
    cost: List[float] = field(default_factory=list)
    #: epochs restored from a checkpoint instead of re-trained.
    epochs_skipped: int = 0
    #: the non-zero compile/replay/arena counters of this call's step
    #: (:class:`repro.nn.CompileStats` keys).
    compile_counters: Dict[str, int] = field(default_factory=dict)
    #: seconds this call spent tracing, eager-verifying and building
    #: compiled programs (every call rebuilds its programs).
    compile_s: float = 0.0
    #: per-kernel replay seconds (``fwd:<op>`` / ``bwd:<op>``) of this
    #: call, summed over every shard's program; populated only
    #: under ``REPRO_PROFILE=1``.  Shards that overlap on two threads
    #: both count, so these are thread-seconds and may exceed the wall
    #: time of the steps.
    kernel_seconds: Dict[str, float] = field(default_factory=dict)

    def last(self) -> Dict[str, float]:
        return {
            "total": self.total[-1],
            "reconstruction": self.reconstruction[-1],
            "kl": self.kl[-1],
            "cost": self.cost[-1],
        }

    @property
    def epochs_run(self) -> int:
        return len(self.total) - self.epochs_skipped


#: Every training step is the size-weighted mean of this many half-batch
#: forward+backward passes (:class:`repro.nn.CompiledTrainStep`).  It is
#: numerics, not placement: fixed, so records do not depend on the
#: machine's cores, which only decide whether the shards overlap.
TRAIN_SHARDS = 2


def _train_step(
    model: CircuitVAEModel, optimizer: nn.Optimizer, config: TrainConfig
) -> nn.CompiledTrainStep:
    """A fresh compiled step for one ``train_model`` call.

    Its key is what fixes the traced graph besides the batch shape and
    the parameter shapes: the model class, its ``VAEConfig``, and the
    ``beta`` and ``lam`` the loss bakes in as constants.  ``grad_clip``
    and the optimizer act outside the traced graph.
    """
    return nn.CompiledTrainStep(
        partial(model.training_losses, beta=config.beta, lam=config.lam),
        model.parameters(),
        (type(model), model.config, config.beta, config.lam),
        optimizer=optimizer,
        grad_clip=config.grad_clip,
        shards=TRAIN_SHARDS,
    )


# ----------------------------------------------------------------------
# Durable training checkpoints
# ----------------------------------------------------------------------
def _checkpoint_paths(checkpoint_dir: str, tag: str):
    return (
        os.path.join(checkpoint_dir, f"{tag}.npz"),
        os.path.join(checkpoint_dir, f"{tag}.json"),
    )


def _fingerprint(
    model: CircuitVAEModel,
    dataset: CircuitDataset,
    config: TrainConfig,
    optimizer: nn.Optimizer,
) -> Dict:
    """What must match for a checkpoint to be resumable into this call."""
    return {
        "dataset_size": len(dataset),
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "lr": config.lr,
        "beta": config.beta,
        "lam": config.lam,
        "grad_clip": config.grad_clip,
        "reweight": config.reweight,
        "parameters": model.num_parameters(),
        "optimizer": type(optimizer).__name__,
    }


def _save_checkpoint(
    checkpoint_dir: str,
    tag: str,
    epoch: int,
    model: CircuitVAEModel,
    optimizer: nn.Optimizer,
    rng: np.random.Generator,
    stats: TrainStats,
    fingerprint: Dict,
) -> None:
    """Atomically persist epoch ``epoch``'s state under ``tag``.

    Each file is written atomically, but the pair is not one
    transaction: a crash between the npz and the json would leave an
    epoch-N archive next to epoch-(N-k) metadata.  The archive therefore
    embeds its own epoch (``checkpoint:epoch``); the loader refuses any
    pair whose epochs disagree, so a torn checkpoint is simply ignored
    (the round retrains from scratch, deterministically) instead of
    silently mixing generations.
    """
    npz_path, meta_path = _checkpoint_paths(checkpoint_dir, tag)
    state: Dict[str, np.ndarray] = {
        "checkpoint:epoch": np.asarray(epoch, dtype=np.int64)
    }
    for name, value in model.state_dict().items():
        state[f"param:{name}"] = value
    for name, value in optimizer.state_dict().items():
        state[f"opt:{name}"] = value
    nn.save_state(state, npz_path)
    atomic_write_json(
        meta_path,
        {
            "tag": tag,
            "epoch": epoch,
            "fingerprint": fingerprint,
            "rng_state": rng.bit_generator.state,
            "cost_normalizer": [model.cost_mean, model.cost_std],
            "losses": {
                "total": stats.total,
                "reconstruction": stats.reconstruction,
                "kl": stats.kl,
                "cost": stats.cost,
            },
        },
        indent=2,
    )


def _load_checkpoint(
    checkpoint_dir: str,
    tag: str,
    model: CircuitVAEModel,
    optimizer: nn.Optimizer,
    rng: np.random.Generator,
    stats: TrainStats,
    fingerprint: Dict,
) -> int:
    """Restore the newest matching checkpoint; returns the start epoch.

    A missing, unreadable, fingerprint-mismatched or *torn* checkpoint
    (npz and json from different generations — a crash landed between
    the two writes) is ignored and training starts from epoch 0, which
    keeps resumed runs bit-identical: the whole round re-trains
    deterministically rather than mixing state from two generations.
    """
    npz_path, meta_path = _checkpoint_paths(checkpoint_dir, tag)
    if not (os.path.exists(npz_path) and os.path.exists(meta_path)):
        return 0
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
        if meta.get("fingerprint") != fingerprint:
            return 0
        state = nn.load_state(npz_path)
        if int(np.asarray(state.get("checkpoint:epoch", -1))) != int(meta["epoch"]):
            return 0  # torn pair: archive and metadata disagree
        # Read every field up front, then restore transactionally: a
        # checkpoint that passes the gates but still fails to apply
        # (renamed/reshaped parameters, missing meta keys) must leave
        # the model and optimizer exactly as they were so the round can
        # retrain from scratch, per this function's contract.
        params = {
            name[len("param:"):]: value
            for name, value in state.items()
            if name.startswith("param:")
        }
        opt_state = {
            name[len("opt:"):]: value
            for name, value in state.items()
            if name.startswith("opt:")
        }
        rng_state = meta["rng_state"]
        mean, std = meta["cost_normalizer"]
        losses = {
            name: list(meta["losses"][name])
            for name in ("total", "reconstruction", "kl", "cost")
        }
        epoch = int(meta["epoch"])
        model_snapshot = model.state_dict()
        optimizer_snapshot = optimizer.state_dict()
        try:
            model.load_state_dict(params)
            optimizer.load_state_dict(opt_state)
        except Exception:
            model.load_state_dict(model_snapshot)
            optimizer.load_state_dict(optimizer_snapshot)
            return 0
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
        return 0
    rng.bit_generator.state = rng_state
    model.cost_mean, model.cost_std = float(mean), float(std)
    for name, values in losses.items():
        getattr(stats, name).extend(values)
    stats.epochs_skipped = epoch
    return stats.epochs_skipped


# ----------------------------------------------------------------------
def train_model(
    model: CircuitVAEModel,
    dataset: CircuitDataset,
    rng: np.random.Generator,
    config: Optional[TrainConfig] = None,
    optimizer: Optional[nn.Adam] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_tag: str = "train",
) -> TrainStats:
    """Fit the model on the current dataset; returns loss traces.

    Pass the same ``optimizer`` across acquisition rounds to keep Adam
    moments warm (the paper retrains by continuing optimization on the
    grown dataset rather than from scratch).

    With ``checkpoint_dir``, progress is durably checkpointed every
    ``config.checkpoint_every`` epochs under ``checkpoint_tag`` (one tag
    per acquisition round), and a repeated call resumes from the newest
    matching checkpoint — restoring parameters, optimizer moments and
    the rng state exactly, so a resumed run is bit-identical to an
    uninterrupted one.
    """
    config = config or TrainConfig()
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    optimizer = optimizer or nn.Adam(model.parameters(), lr=config.lr)

    mean, std = dataset.cost_normalizer()
    model.set_cost_normalizer(mean, std)
    targets = model.standardize_costs(dataset.costs)

    stats = TrainStats()
    fingerprint = None
    start_epoch = 0
    if checkpoint_dir is not None:
        fingerprint = _fingerprint(model, dataset, config, optimizer)
        start_epoch = _load_checkpoint(
            checkpoint_dir, checkpoint_tag, model, optimizer, rng, stats, fingerprint
        )

    step = _train_step(model, optimizer, config)

    latent_dim = model.config.latent_dim
    batch = min(config.batch_size, len(dataset))
    batches_per_epoch = max(1, len(dataset) // config.batch_size)
    # The dataset is fixed for the whole call, so hoist the Eq.-2 weight
    # computation (a sort per call instead of per step) and pre-stack the
    # grids once; ``rng.choice`` below matches dataset.sample_indices
    # draw-for-draw, keeping the rng stream identical to the per-step
    # form.
    sample_p = dataset.weights() if config.reweight else dataset.uniform_weights()
    all_grids = dataset.grids()
    model.train()
    try:
        for epoch in range(start_epoch, config.epochs):
            epoch_total = epoch_rec = epoch_kl = epoch_cost = 0.0
            for _batch in range(batches_per_epoch):
                idx = rng.choice(len(dataset), size=batch, replace=True, p=sample_p)
                grids = all_grids[idx]
                batch_targets = targets[idx]
                x_pad = model._pad_grids(grids)
                eps = rng.standard_normal((grids.shape[0], latent_dim))
                values = step(x_pad, grids, eps, batch_targets)
                epoch_total += values["loss"]
                epoch_rec += values["reconstruction"]
                epoch_kl += values["kl"]
                epoch_cost += values["cost"]
            stats.total.append(epoch_total / batches_per_epoch)
            stats.reconstruction.append(epoch_rec / batches_per_epoch)
            stats.kl.append(epoch_kl / batches_per_epoch)
            stats.cost.append(epoch_cost / batches_per_epoch)

            done = epoch + 1
            if checkpoint_dir is not None and config.checkpoint_every > 0:
                if done % config.checkpoint_every == 0 or done == config.epochs:
                    _save_checkpoint(
                        checkpoint_dir, checkpoint_tag, done, model, optimizer,
                        rng, stats, fingerprint,
                    )
        stats.kernel_seconds = step.kernel_seconds()
    finally:
        # The programs' storage is needed only while this call trains.
        step.release()
    model.eval()
    stats.compile_counters = {
        name: count for name, count in step.stats.as_dict().items() if count
    }
    stats.compile_s = step.compile_seconds
    return stats


def report_training_round(simulator, stats: TrainStats, round_index: int) -> None:
    """Fold one ``train_model`` round into the simulator's per-run
    :class:`~repro.engine.telemetry.EngineTelemetry`: its epoch and
    compiled-step counters, a ``train_compile`` span lasting the round's
    compile seconds, plus the per-kernel stage seconds under
    ``REPRO_PROFILE=1``.  A no-op against a bare simulator without
    telemetry.
    """
    telemetry = getattr(simulator, "telemetry", None)
    if telemetry is None:
        return
    telemetry.add("train_epochs", stats.epochs_run)
    telemetry.add("train_epochs_skipped", stats.epochs_skipped)
    counters = stats.compile_counters
    telemetry.add("train_compiles", counters.get("traces", 0))
    telemetry.add("train_replays", counters.get("replays", 0))
    span = trace.span("train_compile", attrs={"round": round_index})
    span.finish(elapsed=stats.compile_s)
    # REPRO_PROFILE=1 only: fold the round's per-kernel replay seconds
    # into the stage timers and emit matching imposed-duration spans, so
    # trace-derived stage totals keep reproducing ``stage_seconds`` even
    # for the kernel breakdown.
    for label, seconds in sorted(stats.kernel_seconds.items()):
        name = "train_kernel:" + label
        telemetry.add_stage_time(name, seconds)
        span = trace.span(name, attrs={"stage": True})
        span.set_attr("round", round_index)
        span.finish(elapsed=seconds)
