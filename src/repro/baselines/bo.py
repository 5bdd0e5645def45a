"""Latent-space Bayesian optimization baseline (paper Sec. 5.2).

"We compared against a variant of CircuitVAE which employs Bayesian
optimization (BO) in the latent space, a practice which has become
common."  The outer loop is Algorithm 1 itself — :class:`LatentBO` runs
:class:`repro.core.algorithm.LatentLoop`, the same loop as CircuitVAE
(same VAE, weighted retraining, decode-and-query and stall fallback) —
and supplies only the proposal: a GP surrogate over latent means with
expected-improvement acquisition, maximized over a candidate pool drawn
around the data (posterior samples plus prior samples plus Gaussian
perturbations of the incumbents).

The paper finds this loses to prior-regularized gradient search, which it
attributes to the neural cost head learning more from large datasets than
a GP surrogate can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .. import nn
from ..core.algorithm import CircuitVAEConfig, LatentLoop
from ..core.search import initialize_latents
# Uncalled here (the shared loop calls them), kept because
# perfbench/layers.py patches these names.
from ..core.search import decode_and_query  # noqa: F401
from ..core.training import train_model  # noqa: F401
from ..engine.telemetry import stage
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


class LatentBO(LatentLoop):
    """CircuitVAE with GP/EI search instead of gradient descent."""

    method_name = "BO"

    def __init__(self, config: Optional[BOConfig] = None):
        super().__init__()
        self.config = config or BOConfig()

    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        return self._run_loop(self.config.vae, simulator, rng, self.config.batch_per_round)

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

    def _propose(self, rng: np.random.Generator, telemetry) -> np.ndarray:
        config = self.config
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
            return candidates[np.argsort(-ei)[: config.batch_per_round]]
