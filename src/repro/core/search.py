"""Latent-space search (paper Sec. 4.2).

The two domain-agnostic contributions of the paper live here:

* **Prior-regularized search** (Eq. 4): gradient descent on
  ``g(z) = f_pi(z) - gamma * log p(z)``.  With the unit-Gaussian prior,
  ``-log p(z) = ||z||^2 / 2 + const``, so the regularizer softly pulls
  trajectories toward the origin where the training data lives, preventing
  the optimizer from "overfitting" the cost predictor far from the data
  manifold.  ``gamma`` is sampled log-uniformly per trajectory in
  [0.01, 0.1] (the setting Fig. 5 selects).

* **Cost-weighted sampling**: search trajectories start from the
  posteriors of *good, diverse* known circuits — datapoints sampled
  proportionally to their Eq.-2 weights — rather than from the prior or a
  single seed design (the Fig. 4 ablations).

Trajectory latents are captured every ``capture_every`` steps, decoded,
and queried, so one gradient descent run yields a whole batch of
candidates along the path from known-good to predicted-better designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Tuple

import numpy as np

from .. import nn
from ..engine.telemetry import EngineTelemetry, stage
from ..opt.simulator import CircuitSimulator, Evaluation
from ..prefix.graph import PrefixGraph
from .dataset import CircuitDataset
from .vae import CircuitVAEModel

__all__ = [
    "SearchConfig",
    "SearchTrace",
    "initialize_latents",
    "latent_gradient_search",
    "decode_and_query",
]

InitMode = Literal["cost-weighted", "prior", "fixed-graph"]


@dataclass(frozen=True)
class SearchConfig:
    """Latent-optimization hyperparameters."""

    num_parallel: int = 16  # m: parallel trajectories
    num_steps: int = 50  # T: gradient steps
    capture_every: int = 10  # t: capture interval
    step_size: float = 0.1
    gamma_low: float = 0.01  # per-trajectory log-uniform gamma range
    gamma_high: float = 0.1
    init_mode: InitMode = "cost-weighted"
    box_constraint: Optional[float] = None  # ablation: clamp ||z||_inf instead


@dataclass
class SearchTrace:
    """Everything captured during one latent search round."""

    initial_latents: np.ndarray  # (m, d)
    captured_latents: np.ndarray  # (num_captures * m, d)
    gammas: np.ndarray  # (m,)
    predicted_costs: np.ndarray  # standardized predictions at captures
    trajectories: np.ndarray  # (num_captures, m, d) full paths (Fig. 5)


def initialize_latents(
    model: CircuitVAEModel,
    dataset: CircuitDataset,
    m: int,
    rng: np.random.Generator,
    mode: InitMode = "cost-weighted",
    fixed_graph: Optional[PrefixGraph] = None,
) -> np.ndarray:
    """Draw ``m`` starting latents (Algorithm 1, lines 6-7).

    ``cost-weighted``: sample dataset points by Eq.-2 weight, then sample
    their posteriors — good *and* diverse.  ``prior``: z0 ~ N(0, I).
    ``fixed-graph``: every trajectory starts at the posterior of one given
    design (the paper's Sklansky ablation).
    """
    d = model.config.latent_dim
    if mode == "prior":
        return rng.standard_normal((m, d))
    if mode == "fixed-graph":
        if fixed_graph is None:
            raise ValueError("fixed-graph init needs a graph")
        grids = np.repeat(fixed_graph.grid[None].astype(np.float64), m, axis=0)
    elif mode == "cost-weighted":
        idx = dataset.sample_indices(m, rng, weighted=True)
        grids = dataset.grids(idx)
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    with nn.no_grad():
        mu, logvar = model.encode(grids)
    sigma = np.exp(0.5 * logvar.data)
    return mu.data + sigma * rng.standard_normal(mu.shape)


def decode_and_query(
    model: CircuitVAEModel,
    latents: np.ndarray,
    simulator: CircuitSimulator,
    rng: np.random.Generator,
    telemetry: Optional[EngineTelemetry] = None,
) -> Tuple[List[PrefixGraph], List[Evaluation]]:
    """Decode a latent population and evaluate it as one batch.

    Lines 9-10 of Algorithm 1, called once per round by
    :class:`repro.core.algorithm.LatentLoop` (so for CircuitVAE and
    latent BO alike): sample designs from the decoder, then submit the whole population in one
    ``query_many`` round-trip, which an engine-backed simulator serves
    with one vectorized synthesis pass (:mod:`repro.synth.batched`).
    Semantics (budget accounting, history order, refusals) are identical
    to querying the designs one by one.
    """
    with stage(telemetry, "decode"):
        designs = model.sample_designs(latents, rng)
    return designs, simulator.query_many(designs)


def latent_gradient_search(
    model: CircuitVAEModel,
    z0: np.ndarray,
    rng: np.random.Generator,
    config: SearchConfig,
    telemetry: Optional[EngineTelemetry] = None,
) -> SearchTrace:
    """Minimize g(z) = f_pi(z) - gamma * log p(z) by gradient descent.

    All ``m`` trajectories run batched; each has its own gamma drawn
    log-uniformly from [gamma_low, gamma_high] (Sec. 5.3 found this beats
    any single gamma).  Returns captured latents at every
    ``capture_every``-step checkpoint *including* the final step.
    Wall-clock is charged to the ``latent_search`` stage of ``telemetry``
    (usually the engine-backed simulator's per-run counters) when given.
    """
    with stage(telemetry, "latent_search"):
        return _latent_gradient_search(model, z0, rng, config)


def _latent_gradient_search(
    model: CircuitVAEModel,
    z0: np.ndarray,
    rng: np.random.Generator,
    config: SearchConfig,
) -> SearchTrace:
    z0 = np.atleast_2d(np.asarray(z0, dtype=np.float64))
    m = z0.shape[0]
    if config.gamma_low <= 0 or config.gamma_high < config.gamma_low:
        raise ValueError("need 0 < gamma_low <= gamma_high")
    log_low, log_high = np.log(config.gamma_low), np.log(config.gamma_high)
    gammas = np.exp(rng.uniform(log_low, log_high, size=m))

    z = z0.copy()
    captures: List[np.ndarray] = []
    predicted: List[np.ndarray] = []
    for step in range(1, config.num_steps + 1):
        zt = nn.Tensor(z, requires_grad=True)
        cost_pred = model.predict_cost(zt)
        if config.box_constraint is None:
            # Eq. 4: -gamma * log p(z) = gamma * ||z||^2 / 2 (+ const).
            prior_term = (zt * zt).sum(axis=1) * nn.Tensor(0.5 * gammas)
            objective = (cost_pred + prior_term).sum()
        else:
            objective = cost_pred.sum()
        objective.backward()
        z = z - config.step_size * zt.grad
        if config.box_constraint is not None:
            # Tripp et al.'s alternative: hard box around the origin.
            z = np.clip(z, -config.box_constraint, config.box_constraint)
        if step % config.capture_every == 0 or step == config.num_steps:
            captures.append(z.copy())
            with nn.no_grad():
                predicted.append(model.predict_cost(nn.Tensor(z)).data.copy())

    trajectories = np.stack(captures)  # (num_captures, m, d)
    return SearchTrace(
        initial_latents=z0,
        captured_latents=trajectories.reshape(-1, z0.shape[1]),
        gammas=gammas,
        predicted_costs=np.concatenate(predicted),
        trajectories=trajectories,
    )
