"""Vectorized 2-D convolution kernels (im2col/col2im) on raw numpy arrays.

These are the compute primitives behind :class:`repro.nn.layers.Conv2d` and
:class:`repro.nn.layers.ConvTranspose2d`.  They are written against plain
``np.ndarray`` so the autograd wrapper in :mod:`repro.nn.functional` can call
the same routines for both forward and backward passes (a transposed
convolution *is* the gradient of a convolution, and vice versa).

Conventions: activations are NCHW, weights are (out_channels, in_channels,
kh, kw).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "conv2d_forward",
    "conv2d_backward",
    "conv_transpose2d_forward",
    "conv_transpose2d_backward",
]


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold ``x`` (B,C,H,W) into patches of shape (B, C, kh, kw, oh, ow)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    batch, channels, height, width = x.shape
    oh = (height - kh) // stride + 1
    ow = (width - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (B, C, H-kh+1, W-kw+1, kh, kw) -> subsample by stride.
    windows = windows[:, :, ::stride, ::stride, :, :]
    assert windows.shape[2] == oh and windows.shape[3] == ow
    # Rearrange to (B, C, kh, kw, oh, ow).
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patches (B, C, kh, kw, oh, ow) back into an array of ``x_shape``.

    Overlapping contributions are summed, which is exactly the adjoint of
    :func:`_im2col`.
    """
    batch, channels, height, width = x_shape
    oh, ow = cols.shape[4], cols.shape[5]
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    for u in range(kh):
        for v in range(kw):
            padded[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride] += cols[
                :, :, u, v, :, :
            ]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Cross-correlate ``x`` (B,Cin,H,W) with ``weight`` (Cout,Cin,kh,kw)."""
    out_channels, in_channels, kh, kw = weight.shape
    cols = _im2col(x, kh, kw, stride, padding)  # (B, Cin, kh, kw, oh, ow)
    batch, _, _, _, oh, ow = cols.shape
    cols_mat = cols.reshape(batch, in_channels * kh * kw, oh * ow)
    w_mat = weight.reshape(out_channels, in_channels * kh * kw)
    out = np.einsum("ok,bkl->bol", w_mat, cols_mat, optimize=True)
    return out.reshape(batch, out_channels, oh, ow)


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d_forward` w.r.t. input and weight."""
    out_channels, in_channels, kh, kw = weight.shape
    batch, _, oh, ow = grad_out.shape
    g_mat = grad_out.reshape(batch, out_channels, oh * ow)
    cols = _im2col(x, kh, kw, stride, padding)
    cols_mat = cols.reshape(batch, in_channels * kh * kw, oh * ow)
    # dW: sum over batch and spatial positions.
    dw = np.einsum("bol,bkl->ok", g_mat, cols_mat, optimize=True)
    dw = dw.reshape(weight.shape)
    # dX: scatter W^T @ g back through col2im.
    w_mat = weight.reshape(out_channels, in_channels * kh * kw)
    dcols = np.einsum("ok,bol->bkl", w_mat, g_mat, optimize=True)
    dcols = dcols.reshape(batch, in_channels, kh, kw, oh, ow)
    dx = _col2im(dcols, x.shape, kh, kw, stride, padding)
    return dx, dw


def conv_transpose2d_forward(
    x: np.ndarray, weight: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Transposed convolution (a.k.a. deconvolution), NCHW.

    ``weight`` has shape (in_channels, out_channels, kh, kw), mirroring the
    PyTorch convention.  The output spatial size is
    ``(H - 1) * stride - 2 * padding + kh``.
    """
    in_channels, out_channels, kh, kw = weight.shape
    batch, _, height, width = x.shape
    out_h = (height - 1) * stride - 2 * padding + kh
    out_w = (width - 1) * stride - 2 * padding + kw
    x_mat = x.reshape(batch, in_channels, height * width)
    w_mat = weight.reshape(in_channels, out_channels * kh * kw)
    cols = np.einsum("ik,bil->bkl", w_mat, x_mat, optimize=True)
    cols = cols.reshape(batch, out_channels, kh, kw, height, width)
    return _col2im(cols, (batch, out_channels, out_h, out_w), kh, kw, stride, padding)


def conv_transpose2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`conv_transpose2d_forward` w.r.t. input and weight."""
    in_channels, out_channels, kh, kw = weight.shape
    batch, _, height, width = x.shape
    # The adjoint of col2im is im2col on the output gradient.
    gcols = _im2col(grad_out, kh, kw, stride, padding)
    gcols = gcols[:, :, :, :, :height, :width]
    gcols_mat = gcols.reshape(batch, out_channels * kh * kw, height * width)
    x_mat = x.reshape(batch, in_channels, height * width)
    w_mat = weight.reshape(in_channels, out_channels * kh * kw)
    dx = np.einsum("ik,bkl->bil", w_mat, gcols_mat, optimize=True).reshape(x.shape)
    dw = np.einsum("bil,bkl->ik", x_mat, gcols_mat, optimize=True).reshape(weight.shape)
    return dx, dw
