"""Tests for conv kernels (repro.nn.conv) and their autograd wrappers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.conv import conv2d_forward, conv_transpose2d_forward

from helpers import gradcheck, numerical_grad


def sq(t):
    return t * t


def naive_conv2d(x, w, stride, padding):
    """Reference direct convolution, O(everything)."""
    b, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wdt + 2 * padding - kw) // stride + 1
    out = np.zeros((b, cout, oh, ow))
    for bi in range(b):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[bi, co, i, j] = (patch * w[co]).sum()
    return out


class TestForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_conv_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        np.testing.assert_allclose(
            conv2d_forward(x, w, stride, padding),
            naive_conv2d(x, w, stride, padding),
            atol=1e-10,
        )

    def test_output_size_formula(self):
        out = conv2d_forward(np.zeros((1, 1, 8, 8)), np.zeros((2, 1, 3, 3)), 2, 1)
        assert out.shape == (1, 2, 4, 4)
        out = conv2d_forward(np.zeros((1, 1, 16, 16)), np.zeros((1, 1, 4, 4)), 2, 1)
        assert out.shape == (1, 1, 8, 8)

    def test_conv_transpose_inverts_stride2_shape(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 5, 5))
        w = rng.standard_normal((4, 2, 4, 4))
        out = conv_transpose2d_forward(x, w, stride=2, padding=1)
        assert out.shape == (1, 2, 10, 10)

    def test_conv_transpose_is_adjoint_of_conv(self):
        """<conv(x), y> == <x, convT(y)> for matching shapes (adjointness)."""
        rng = np.random.default_rng(2)
        # 7x7 input: (7 - 3 + 2*1) is divisible by stride 2, so the
        # transpose shape is unambiguous (no output_padding needed).
        x = rng.standard_normal((1, 3, 7, 7))
        w = rng.standard_normal((5, 3, 3, 3))
        y = rng.standard_normal((1, 5, 4, 4))
        lhs = (conv2d_forward(x, w, 2, 1) * y).sum()
        # The same weight array reinterpreted as (in=5, out=3, kh, kw) makes
        # conv_transpose the exact adjoint of conv.
        rhs = (x * conv_transpose2d_forward(y, w, 2, 1)).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


class TestGradients:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_conv2d_gradcheck(self, stride, padding):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.2

        def f():
            return float((F.conv2d(nn.Tensor(x), nn.Tensor(w), stride=stride, padding=padding).numpy() ** 2).sum())

        xt = nn.Tensor(x, requires_grad=True)
        wt = nn.Tensor(w, requires_grad=True)
        out = F.conv2d(xt, wt, stride=stride, padding=padding)
        (out * out).sum().backward()
        np.testing.assert_allclose(xt.grad, numerical_grad(f, x), atol=1e-5)
        np.testing.assert_allclose(wt.grad, numerical_grad(f, w), atol=1e-5)

    def test_conv_transpose2d_gradcheck(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 4, 4))
        w = rng.standard_normal((3, 2, 4, 4)) * 0.2

        def f():
            return float((F.conv_transpose2d(nn.Tensor(x), nn.Tensor(w), stride=2, padding=1).numpy() ** 2).sum())

        xt = nn.Tensor(x, requires_grad=True)
        wt = nn.Tensor(w, requires_grad=True)
        out = F.conv_transpose2d(xt, wt, stride=2, padding=1)
        (out * out).sum().backward()
        np.testing.assert_allclose(xt.grad, numerical_grad(f, x), atol=1e-5)
        np.testing.assert_allclose(wt.grad, numerical_grad(f, w), atol=1e-5)

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_conv2d_gradcheck_helper_both_engines(self, compiled, stride, padding):
        """Previously-untested (stride, padding) corners, eager + compiled."""
        rng = np.random.default_rng(6)
        x = nn.Tensor(rng.standard_normal((2, 2, 7, 7)), requires_grad=True)
        w = nn.Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
        gradcheck(
            lambda a, ww: sq(F.conv2d(a, ww, stride=stride, padding=padding)).sum(),
            x,
            w,
            compiled=compiled,
            atol=5e-5,
            rtol=5e-4,
        )

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv_transpose2d_gradcheck_helper_both_engines(
        self, compiled, stride, padding
    ):
        rng = np.random.default_rng(7)
        x = nn.Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        w = nn.Tensor(rng.standard_normal((3, 2, 4, 4)) * 0.3, requires_grad=True)
        gradcheck(
            lambda a, ww: sq(
                F.conv_transpose2d(a, ww, stride=stride, padding=padding)
            ).sum(),
            x,
            w,
            compiled=compiled,
            atol=5e-5,
            rtol=5e-4,
        )

    def test_conv_bias_gradient(self):
        rng = np.random.default_rng(5)
        x = nn.Tensor(rng.standard_normal((2, 1, 4, 4)))
        w = nn.Tensor(rng.standard_normal((3, 1, 3, 3)), requires_grad=True)
        b = nn.Tensor(np.zeros(3), requires_grad=True)
        out = F.conv2d(x, w, b, padding=1)
        out.sum().backward()
        # dL/db = number of spatial positions per channel.
        np.testing.assert_allclose(b.grad, np.full(3, 2 * 16.0))
