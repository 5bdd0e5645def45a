"""Stateless differentiable operations built on :class:`repro.nn.Tensor`.

These mirror ``torch.nn.functional``: the affine map, convolutions, ReLU,
and the composite losses the learners train on (stable binary
cross-entropy, Gaussian KL, mean squared error).
"""

from __future__ import annotations

from typing import Optional

from .tensor import Tensor, _ensure_tensor, apply

__all__ = [
    "linear",
    "conv2d",
    "conv_transpose2d",
    "relu",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "gaussian_kl",
]


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (weight shape: (out, in))."""
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with autograd support (NCHW)."""
    x_t, w_t = _ensure_tensor(x), _ensure_tensor(weight)
    out = apply("conv2d", (x_t, w_t), {"stride": stride, "padding": padding})
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def conv_transpose2d(
    x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride: int = 1, padding: int = 0
) -> Tensor:
    """Transposed 2-D convolution (weight shape: (in, out, kh, kw))."""
    x_t, w_t = _ensure_tensor(x), _ensure_tensor(weight)
    out = apply(
        "conv_transpose2d", (x_t, w_t), {"stride": stride, "padding": padding}
    )
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def relu(x: Tensor) -> Tensor:
    return _ensure_tensor(x).relu()


def binary_cross_entropy_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Per-element numerically-stable BCE:
    ``max(z,0) - z*y + log(1 + exp(-|z|))``."""
    logits = _ensure_tensor(logits)
    targets = _ensure_tensor(targets)
    relu_part = logits.relu()
    return relu_part - logits * targets + (-logits.abs()).softplus()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    pred, target = _ensure_tensor(pred), _ensure_tensor(target)
    diff = pred - target
    return (diff * diff).mean()


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """Per-sample KL(q || N(0, I)) for a diagonal Gaussian, summed over
    the latent axis (the VAE regularizer in Eq. 1 of the paper)."""
    mu, logvar = _ensure_tensor(mu), _ensure_tensor(logvar)
    per_dim = 0.5 * (mu * mu + logvar.exp() - logvar - 1.0)
    return per_dim.sum(axis=-1)
