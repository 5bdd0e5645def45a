"""Loss functions for CircuitVAE training.

The model's training objective (paper Eq. 3) combines three terms, all
implemented here on top of :mod:`repro.nn.functional`:

* Bernoulli reconstruction likelihood of the prefix-graph grid
  (:func:`reconstruction_loss`),
* the beta-weighted KL to the unit-Gaussian prior (:func:`kl_loss`),
* squared error of the cost predictor (:func:`cost_prediction_loss`).

Each is a plain batch mean: weighted retraining (Eq. 2) enters through
the minibatch sampler in :mod:`repro.core.training`, which draws rows
by weight, not through the losses.
"""

from __future__ import annotations

from . import functional as F
from .tensor import Tensor

__all__ = ["reconstruction_loss", "kl_loss", "cost_prediction_loss"]


def reconstruction_loss(logits: Tensor, target_grid: Tensor) -> Tensor:
    """Negative Bernoulli log-likelihood of the decoded grid, per sample.

    ``logits`` and ``target_grid`` have shape (B, N, N) (or (B, ...)); the
    log-likelihood is summed over grid cells, matching the ELBO's
    ``log p(x|z)`` term, then averaged over the batch.
    """
    per_cell = F.binary_cross_entropy_with_logits(logits, target_grid)
    per_sample = per_cell.reshape(per_cell.shape[0], -1).sum(axis=1)
    return per_sample.mean()


def kl_loss(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(q(z|x) || N(0,I)) summed over latent dims, averaged over batch."""
    return F.gaussian_kl(mu, logvar).mean()


def cost_prediction_loss(predicted: Tensor, actual: Tensor) -> Tensor:
    """Squared-error loss of the cost head, L_pi = (f_pi(z) - c)^2.

    ``actual`` is a :class:`Tensor` so the compiled training step traces
    the targets as an input.
    """
    diff = predicted.reshape(-1) - actual.reshape(-1)
    return (diff * diff).mean()
