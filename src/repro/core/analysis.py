"""Diagnostics for a trained CircuitVAE: is the latent space healthy?

The paper's method depends on three properties the training loss is meant
to produce (Sec. 4.1): faithful reconstruction, a cost head that ranks
circuits correctly, and a latent layout where cost varies smoothly.  These
metrics make those properties measurable, power the Fig. 5 bench, and let
users debug their own runs (e.g. a collapsed KL shows up as zero latent
variance; an overfit cost head as high train R^2 but no rank correlation
on held-out designs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from .dataset import CircuitDataset
from .vae import CircuitVAEModel

__all__ = ["LatentDiagnostics", "diagnose", "reconstruction_accuracy", "cost_rank_correlation"]


@dataclass(frozen=True)
class LatentDiagnostics:
    """Summary of a model/dataset pair."""

    reconstruction_accuracy: float  # fraction of grid cells correct
    cost_r2: float  # explained variance of the cost head
    cost_rank_correlation: float  # Spearman rho of predicted vs true cost
    mean_latent_norm: float
    latent_dim_active: int  # dims whose posterior means actually vary

    def healthy(self) -> bool:
        """Heuristic gate used by long-running examples."""
        return (
            self.reconstruction_accuracy > 0.75
            and self.cost_rank_correlation > 0.3
            and self.latent_dim_active >= 2
        )


def reconstruction_accuracy(model: CircuitVAEModel, grids: np.ndarray) -> float:
    """Cell-level accuracy of mean-encode/decode round trips."""
    with nn.no_grad():
        mu, _ = model.encode(grids)
        logits = model.decode(mu).numpy()
    return float(((logits > 0) == (grids > 0.5)).mean())


def _rankdata(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(len(values))
    return ranks


def cost_rank_correlation(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Spearman rank correlation (ties broken by order, adequate here)."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if len(predicted) < 2 or predicted.std() < 1e-12 or actual.std() < 1e-12:
        return 0.0
    pr, ar = _rankdata(predicted), _rankdata(actual)
    denom = pr.std() * ar.std()
    if denom < 1e-12:
        return 0.0
    return float(((pr - pr.mean()) * (ar - ar.mean())).mean() / denom)


def diagnose(model: CircuitVAEModel, dataset: CircuitDataset) -> LatentDiagnostics:
    """Compute all diagnostics on the current dataset."""
    if len(dataset) < 2:
        raise ValueError("need at least 2 datapoints to diagnose")
    grids = dataset.grids()
    costs = dataset.costs
    with nn.no_grad():
        mu, _ = model.encode(grids)
    latents = mu.data
    predicted = model.predict_cost_raw(nn.Tensor(latents))

    residual = float(((predicted - costs) ** 2).mean())
    variance = float(costs.var())
    r2 = 1.0 - residual / variance if variance > 1e-12 else 0.0

    dim_spread = latents.std(axis=0)
    return LatentDiagnostics(
        reconstruction_accuracy=reconstruction_accuracy(model, grids),
        cost_r2=r2,
        cost_rank_correlation=cost_rank_correlation(predicted, costs),
        mean_latent_norm=float(np.linalg.norm(latents, axis=1).mean()),
        latent_dim_active=int((dim_spread > 0.05 * dim_spread.max()).sum()),
    )
