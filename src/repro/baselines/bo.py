"""Latent-space Bayesian optimization baseline (paper Sec. 5.2).

"We compared against a variant of CircuitVAE which employs Bayesian
optimization (BO) in the latent space, a practice which has become
common."  The outer loop is identical to Algorithm 1 — same VAE, same
weighted retraining, same decode-and-query step — but the *search* is a
GP surrogate over latent means with expected-improvement acquisition,
maximized over a candidate pool drawn around the data (posterior samples
plus prior samples plus Gaussian perturbations of the incumbents).

The paper finds this loses to prior-regularized gradient search, which it
attributes to the neural cost head learning more from large datasets than
a GP surrogate can.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .. import nn
from ..core.algorithm import CircuitVAEConfig, build_initial_dataset
from ..core.dataset import CircuitDataset
from ..core.search import decode_and_query, initialize_latents
from ..core.training import report_training_round, train_model
from ..core.vae import CircuitVAEModel, VAEConfig
from ..engine.telemetry import stage
from ..opt.optimizer import SearchAlgorithm
from ..opt.simulator import CircuitSimulator, Evaluation
from .gp import GaussianProcess, expected_improvement, median_lengthscale

__all__ = ["BOConfig", "LatentBO"]


@dataclass(frozen=True)
class BOConfig:
    """Latent-BO hyperparameters."""

    vae: CircuitVAEConfig = field(default_factory=CircuitVAEConfig)
    batch_per_round: int = 16  # designs queried per acquisition round
    candidate_pool: int = 512  # EI is maximized over this many candidates
    gp_max_points: int = 256  # GP fits on the best subset of this size
    gp_noise: float = 1e-2
    perturb_scale: float = 0.3


class LatentBO(SearchAlgorithm):
    """CircuitVAE with GP/EI search instead of gradient descent."""

    method_name = "BO"

    def __init__(self, config: Optional[BOConfig] = None):
        self.config = config or BOConfig()
        self.model: Optional[CircuitVAEModel] = None
        self.dataset: Optional[CircuitDataset] = None

    # ------------------------------------------------------------------
    def _latents_of_dataset(self) -> np.ndarray:
        """Posterior means of every dataset member (GP inputs)."""
        with nn.no_grad():
            mu, _ = self.model.encode(self.dataset.grids())
        return mu.data

    def _candidate_pool(self, rng: np.random.Generator) -> np.ndarray:
        """Candidates: cost-weighted posterior samples, perturbed
        incumbents, and fresh prior draws — mirroring common latent-BO
        practice of restricting acquisition to the data region."""
        config = self.config
        d = self.model.config.latent_dim
        third = config.candidate_pool // 3
        posterior = initialize_latents(
            self.model, self.dataset, third, rng, mode="cost-weighted"
        )
        perturbed = posterior + config.perturb_scale * rng.standard_normal(posterior.shape)
        prior = rng.standard_normal((config.candidate_pool - 2 * third, d))
        return np.concatenate([posterior, perturbed, prior], axis=0)

    # ------------------------------------------------------------------
    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        config = self.config
        vae_cfg = config.vae
        model_config = VAEConfig(
            n=simulator.task.n,
            latent_dim=vae_cfg.latent_dim,
            base_channels=vae_cfg.base_channels,
            hidden_dim=vae_cfg.hidden_dim,
        )
        self.model = CircuitVAEModel(model_config, rng)
        self.dataset = build_initial_dataset(
            simulator, vae_cfg.initial_samples, rng, k=vae_cfg.k
        )
        optimizer = nn.Adam(self.model.parameters(), lr=vae_cfg.train.lr)

        telemetry = simulator.telemetry
        checkpoint_dir = getattr(simulator, "train_checkpoint_dir", None)
        first_round = True
        round_index = 0
        while not simulator.exhausted():
            epochs = vae_cfg.first_round_epochs if first_round else vae_cfg.train.epochs
            with stage(telemetry, "train"):
                stats = train_model(
                    self.model,
                    self.dataset,
                    rng,
                    config=replace(vae_cfg.train, epochs=epochs),
                    optimizer=optimizer,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_tag=f"round{round_index:03d}",
                )
            report_training_round(simulator, stats, round_index)
            first_round = False
            round_index += 1

            with stage(telemetry, "acquisition"):
                # Fit the GP on (latent mean, cost) of the most promising
                # points.
                latents = self._latents_of_dataset()
                costs = self.dataset.costs
                if len(costs) > config.gp_max_points:
                    keep = np.argsort(costs)[: config.gp_max_points]
                    latents, costs = latents[keep], costs[keep]
                gp = GaussianProcess(
                    lengthscale=median_lengthscale(latents, rng),
                    variance=1.0,
                    noise=config.gp_noise,
                ).fit(latents, costs)

                # Maximize EI over the candidate pool; take the top batch.
                candidates = self._candidate_pool(rng)
                mean, std = gp.predict(candidates)
                ei = expected_improvement(mean, std, best=float(costs.min()))
                top = np.argsort(-ei)[: config.batch_per_round]
            # Decode + one batched population evaluation (vectorized on
            # an engine-backed simulator).
            _designs, evaluations = decode_and_query(
                self.model,
                candidates[top],
                simulator,
                rng,
                telemetry,
            )
            new_points = self.dataset.add_evaluations(evaluations)
            if new_points == 0 and not simulator.exhausted():
                # All acquisitions decoded to known circuits: fall back to
                # exploration so the loop never stalls.
                from ..opt.variation import mutate

                parents = [
                    self.dataset.graphs[i]
                    for i in self.dataset.sample_indices(config.batch_per_round, rng)
                ]
                explore = [mutate(g, rng, rate=0.05) for g in parents]
                self.dataset.add_evaluations(
                    simulator.query_many(explore)
                )
        return simulator.best()
