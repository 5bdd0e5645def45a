"""Tests for Adam and gradient clipping (repro.nn.optim)."""

import numpy as np
import pytest

from repro import nn
from repro.nn.optim import Adam, clip_grad_norm


def quadratic_param():
    return nn.Tensor(np.array([5.0, -3.0]), requires_grad=True)


def minimize(opt, param, steps=300):
    for _ in range(steps):
        opt.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        opt.step()
    return np.abs(param.numpy()).max()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert minimize(Adam([p], lr=0.1), p, steps=500) < 1e-4

    def test_first_step_size_is_lr(self):
        # With bias correction, |first update| == lr regardless of grad scale.
        p = nn.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.05)
        p.grad = np.array([123.0])
        opt.step()
        assert p.numpy()[0] == pytest.approx(1.0 - 0.05, abs=1e-6)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_skips_none_grads(self):
        p = nn.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p])
        opt.step()  # no grad: should not move or crash
        assert p.numpy()[0] == 1.0


class TestClipping:
    def test_clip_reduces_norm(self):
        p = nn.Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        p = nn.Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.1, 0.1])
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])
