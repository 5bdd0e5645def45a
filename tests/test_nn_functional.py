"""Gradient coverage for repro.nn.functional via the gradcheck helper.

Every composite kernel is checked against central differences in BOTH
execution engines: the eager tape (the numerical reference) and the
traced graph executor (repro.nn.compile), so the two stay equivalent
op-by-op, not just end-to-end.
"""

import numpy as np
import pytest

from helpers import gradcheck

from repro import nn
from repro.nn import functional as F

MODES = [False, True]  # eager, compiled


def sq(x):
    return x * x


def t(shape, seed=0, scale=0.8, shift=0.3):
    rng = np.random.default_rng(seed)
    return nn.Tensor(rng.standard_normal(shape) * scale + shift, requires_grad=True)


@pytest.mark.parametrize("compiled", MODES)


class TestActivations:
    def test_relu(self, compiled):
        x = t((7,), seed=2)
        gradcheck(lambda a: (F.relu(a) * a).sum(), x, compiled=compiled)


@pytest.mark.parametrize("compiled", MODES)


class TestLossKernels:
    def test_bce_with_logits(self, compiled):
        logits = t((4, 6), seed=5, scale=2.0, shift=0.0)
        targets = nn.Tensor((np.random.default_rng(6).random((4, 6)) > 0.5).astype(float))
        gradcheck(
            lambda a: F.binary_cross_entropy_with_logits(a, targets).sum(),
            logits,
            compiled=compiled,
        )

    def test_bce_mean_and_none_reductions(self, compiled):
        """Soft targets, through a batch mean and through the unreduced
        per-element loss."""
        logits = t((3, 4), seed=7, scale=1.5, shift=0.0)
        targets = nn.Tensor(np.random.default_rng(8).random((3, 4)))
        gradcheck(
            lambda a: F.binary_cross_entropy_with_logits(a, targets).mean(),
            logits,
            compiled=compiled,
        )
        gradcheck(
            lambda a: sq(F.binary_cross_entropy_with_logits(a, targets)).sum(),
            logits,
            compiled=compiled,
        )

    def test_mse(self, compiled):
        pred = t((5, 3), seed=9)
        target = nn.Tensor(np.random.default_rng(10).standard_normal((5, 3)))
        gradcheck(lambda a: F.mse_loss(a, target), pred, compiled=compiled)

    def test_gaussian_kl_both_inputs(self, compiled):
        mu = t((4, 6), seed=11)
        logvar = t((4, 6), seed=12, scale=0.5, shift=-0.2)
        gradcheck(
            lambda m, lv: F.gaussian_kl(m, lv).sum(),
            mu,
            logvar,
            compiled=compiled,
        )


@pytest.mark.parametrize("compiled", MODES)


class TestLinearAndConv:
    def test_linear_with_bias(self, compiled):
        x = t((5, 4), seed=13)
        w = t((3, 4), seed=14)
        b = t((3,), seed=15)
        gradcheck(
            lambda a, ww, bb: sq(F.linear(a, ww, bb)).sum(), x, w, b,
            compiled=compiled,
        )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d(self, compiled, stride, padding):
        x = t((2, 3, 6, 6), seed=16)
        w = t((4, 3, 3, 3), seed=17, scale=0.4)
        b = t((4,), seed=18)
        gradcheck(
            lambda a, ww, bb: sq(
                F.conv2d(a, ww, bb, stride=stride, padding=padding)
            ).sum(),
            x,
            w,
            b,
            compiled=compiled,
            atol=5e-5,
            rtol=5e-4,
        )

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_conv_transpose2d(self, compiled, stride, padding):
        x = t((2, 3, 4, 4), seed=19)
        w = t((3, 2, 4, 4), seed=20, scale=0.4)
        b = t((2,), seed=21)
        gradcheck(
            lambda a, ww, bb: sq(
                F.conv_transpose2d(a, ww, bb, stride=stride, padding=padding)
            ).sum(),
            x,
            w,
            b,
            compiled=compiled,
            atol=5e-5,
            rtol=5e-4,
        )


class TestEngineAgreement:
    def test_compiled_matches_eager_grads_exactly_enough(self):
        """The two engines' conv gradients agree far below gradcheck noise."""
        x1 = t((2, 3, 6, 6), seed=22)
        w1 = t((4, 3, 3, 3), seed=23, scale=0.4)
        fn = lambda a, ww: sq(F.conv2d(a, ww, stride=2, padding=1)).sum()
        out = fn(x1, w1)
        out.backward()
        eager = (x1.grad.copy(), w1.grad.copy())
        x2 = nn.Tensor(x1.data.copy(), requires_grad=True)
        w2 = nn.Tensor(w1.data.copy(), requires_grad=True)
        step = nn.CompiledTrainStep(lambda: {"loss": fn(x2, w2)}, [x2, w2], object())
        step()
        np.testing.assert_allclose(x2.grad, eager[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(w2.grad, eager[1], rtol=1e-12, atol=1e-14)
