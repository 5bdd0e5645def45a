"""The CircuitVAE model: CNN encoder/decoder + MLP cost predictor.

Mirrors the paper's architecture (Sec. 5.1): the encoder and decoder are
CNNs over the N x N grid with dense heads, the prior is a diagonal unit
Gaussian, and a small MLP predicts the (standardized) cost from the latent
vector.  Channel widths are configurable; the defaults are scaled down
from the paper's ~1M parameters so everything trains on CPU, which does
not change any of the algorithmic behaviour the paper studies.

The cost head both enables latent-space optimization and shapes the latent
space: circuits with similar costs are pushed together because overlapping
posteriors with different costs are irreducibly penalized (Sec. 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..prefix.graph import PrefixGraph
from ..prefix.legalize import legalize  # noqa: F401 (perfbench wrap target)
from ..prefix.legalize import legalize_grids

__all__ = ["VAEConfig", "CircuitVAEModel"]

#: Latents :meth:`CircuitVAEModel.sample_designs` decodes at a time, so
#: the decoder's activations are those of 16 latents however many are
#: sampled: an 80-latent decode's transient is 19.6 MiB at n=32 and
#: 78.5 MiB at n=64, against 95.6 and 382.5 MiB in one batch
#: (tracemalloc).  The logits are bitwise a one-batch decode's.
_DECODE_BLOCK = 16


@dataclass(frozen=True)
class VAEConfig:
    """Architecture hyperparameters."""

    n: int  # circuit bitwidth (grid is n x n)
    latent_dim: int = 24
    base_channels: int = 8
    hidden_dim: int = 128
    cost_hidden: int = 64

    @property
    def padded(self) -> int:
        """Grid padded up to a multiple of 4 (two stride-2 stages)."""
        return ((self.n + 3) // 4) * 4


class CircuitVAEModel(nn.Module):
    """beta-VAE over prefix-graph grids with a cost-prediction head."""

    def __init__(self, config: VAEConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        c = config.base_channels
        m = config.padded
        self._feat_hw = m // 4
        self._feat_ch = 4 * c
        flat = self._feat_ch * self._feat_hw * self._feat_hw

        # Encoder: 3 conv stages (x1, /2, /2) + dense head.
        self.enc_conv1 = nn.Conv2d(1, c, 3, rng, stride=1, padding=1)
        self.enc_conv2 = nn.Conv2d(c, 2 * c, 3, rng, stride=2, padding=1)
        self.enc_conv3 = nn.Conv2d(2 * c, 4 * c, 3, rng, stride=2, padding=1)
        self.enc_fc = nn.Linear(flat, config.hidden_dim, rng)
        self.mu_head = nn.Linear(config.hidden_dim, config.latent_dim, rng)
        self.logvar_head = nn.Linear(config.hidden_dim, config.latent_dim, rng)

        # Decoder: dense stem + 2 transposed-conv upsamples + output conv.
        self.dec_fc1 = nn.Linear(config.latent_dim, config.hidden_dim, rng)
        self.dec_fc2 = nn.Linear(config.hidden_dim, flat, rng)
        self.dec_deconv1 = nn.ConvTranspose2d(4 * c, 2 * c, 4, rng, stride=2, padding=1)
        self.dec_deconv2 = nn.ConvTranspose2d(2 * c, c, 4, rng, stride=2, padding=1)
        self.dec_out = nn.Conv2d(c, 1, 3, rng, stride=1, padding=1)

        # Cost predictor: 2-layer MLP on z (paper Sec. 5.1).
        self.cost_mlp = nn.MLP(
            [config.latent_dim, config.cost_hidden, config.cost_hidden, 1], rng
        )

        # Cost standardization (set from the dataset before each retrain).
        self.cost_mean: float = 0.0
        self.cost_std: float = 1.0

    # ------------------------------------------------------------------
    # Grid plumbing
    # ------------------------------------------------------------------
    def _pad_grids(self, grids: np.ndarray) -> np.ndarray:
        """(B, n, n) -> (B, 1, m, m) with zero padding."""
        batch, n, _ = grids.shape
        m = self.config.padded
        out = np.zeros((batch, 1, m, m), dtype=np.float64)
        out[:, 0, :n, :n] = grids
        return out

    # ------------------------------------------------------------------
    # Model pieces
    # ------------------------------------------------------------------
    def encode(self, grids: np.ndarray) -> Tuple[nn.Tensor, nn.Tensor]:
        """Map (B, n, n) grids to posterior (mu, logvar), each (B, latent)."""
        x = nn.Tensor(self._pad_grids(np.asarray(grids, dtype=np.float64)))
        return self.encode_tensor(x)

    def encode_tensor(self, x: nn.Tensor) -> Tuple[nn.Tensor, nn.Tensor]:
        """Encoder on an already-padded (B, 1, m, m) tensor.

        The tensor-in/tensor-out form is what the compiled training step
        traces (:mod:`repro.nn.compile`): all per-step data must flow
        through explicit tensor inputs, so padding happens outside.
        """
        h = self.enc_conv1(x).relu()
        h = self.enc_conv2(h).relu()
        h = self.enc_conv3(h).relu()
        h = h.reshape(h.shape[0], -1)
        h = self.enc_fc(h).relu()
        return self.mu_head(h), self.logvar_head(h)

    @staticmethod
    def reparameterize(
        mu: nn.Tensor, logvar: nn.Tensor, rng: np.random.Generator
    ) -> nn.Tensor:
        """z = mu + sigma * eps with eps ~ N(0, I) (Kingma & Welling)."""
        eps = nn.Tensor(rng.standard_normal(mu.shape))
        return mu + (logvar * 0.5).exp() * eps

    def decode(self, z: nn.Tensor) -> nn.Tensor:
        """Latents (B, latent) -> grid logits (B, n, n)."""
        n = self.config.n
        h = self.dec_fc1(z).relu()
        h = self.dec_fc2(h).relu()
        h = h.reshape(h.shape[0], self._feat_ch, self._feat_hw, self._feat_hw)
        h = self.dec_deconv1(h).relu()
        h = self.dec_deconv2(h).relu()
        logits = self.dec_out(h)
        return logits[:, 0, :n, :n]

    def predict_cost(self, z: nn.Tensor) -> nn.Tensor:
        """Standardized cost prediction f_pi(z), shape (B,)."""
        return self.cost_mlp(z).reshape(-1)

    def predict_cost_raw(self, z: nn.Tensor) -> np.ndarray:
        """Cost prediction in original cost units (no grad)."""
        with nn.no_grad():
            standardized = self.predict_cost(z).data
        return standardized * self.cost_std + self.cost_mean

    def forward(
        self, grids: np.ndarray, rng: np.random.Generator
    ) -> Tuple[nn.Tensor, nn.Tensor, nn.Tensor, nn.Tensor, nn.Tensor]:
        """Full pass: returns (logits, mu, logvar, z, cost_pred)."""
        mu, logvar = self.encode(grids)
        z = self.reparameterize(mu, logvar, rng)
        logits = self.decode(z)
        cost_pred = self.predict_cost(z)
        return logits, mu, logvar, z, cost_pred

    def training_losses(
        self,
        x_pad: nn.Tensor,
        target_grid: nn.Tensor,
        eps: nn.Tensor,
        cost_targets: nn.Tensor,
        beta: float,
        lam: float,
    ) -> dict:
        """One training step's loss assembly (paper Eq. 3), tensor-in.

        Traced by the compiled step of
        :func:`repro.core.training.train_model` and run as-is by the
        eager reference: all per-step data (padded grids, reconstruction
        target, reparameterization noise, standardized cost targets)
        enters as tensors, so the compiled replay stays numerically
        equivalent to eager by construction.
        Returns ``{"loss", "reconstruction", "kl", "cost"}``.
        """
        from ..nn import losses as L

        mu, logvar = self.encode_tensor(x_pad)
        z = mu + (logvar * 0.5).exp() * eps
        logits = self.decode(z)
        cost_pred = self.predict_cost(z)
        rec = L.reconstruction_loss(logits, target_grid)
        kl = L.kl_loss(mu, logvar)
        cost = L.cost_prediction_loss(cost_pred, cost_targets)
        loss = rec + beta * kl + lam * cost
        return {"loss": loss, "reconstruction": rec, "kl": kl, "cost": cost}

    # ------------------------------------------------------------------
    # Design sampling
    # ------------------------------------------------------------------
    def sample_designs(
        self,
        z: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> List[PrefixGraph]:
        """Decode latents into legal circuits.

        With ``rng`` the decoder's Bernoulli distribution is sampled (the
        paper samples designs from p(x|z)); without it, cells are
        thresholded at probability 0.5.  Either way the raw grids are
        legalized (in one batch), making every latent vector a valid
        circuit.  The latents are decoded :data:`_DECODE_BLOCK` at a
        time and the logits joined before the cells are drawn, so the
        draws are a one-batch decode's.
        """
        z = np.atleast_2d(z)
        with nn.no_grad():
            blocks = [
                self.decode(nn.Tensor(z[lo : lo + _DECODE_BLOCK])).data
                for lo in range(0, len(z), _DECODE_BLOCK)
            ]
        n = self.config.n
        logits = np.concatenate(blocks) if blocks else np.empty((0, n, n))
        probs = 1.0 / (1.0 + np.exp(-logits))
        if rng is not None:
            raw = rng.random(probs.shape) < probs
        else:
            raw = probs > 0.5
        return [PrefixGraph(grid, validate=False) for grid in legalize_grids(raw)]

    def standardize_costs(self, costs: np.ndarray) -> np.ndarray:
        return (np.asarray(costs, dtype=np.float64) - self.cost_mean) / self.cost_std

    def set_cost_normalizer(self, mean: float, std: float) -> None:
        self.cost_mean = float(mean)
        self.cost_std = float(std) if std > 1e-9 else 1.0
