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


def _textbook_adam(params, grads, steps, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """Whole-array Adam in the expression order :class:`Adam` keeps."""
    b1, b2 = betas
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        for p, g, mi, vi in zip(params, grads, m, v):
            if weight_decay:
                g = g + p * weight_decay
            mi[...] = mi * b1 + g * (1.0 - b1)
            vi[...] = vi * b2 + (g * (1.0 - b2)) * g
            p -= ((mi / (1.0 - b1**t)) * lr) / (np.sqrt(vi / (1.0 - b2**t)) + eps)
    return params


class TestChunkedAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_chunks_are_bitwise_the_whole_array_update(self, weight_decay):
        """Parameters larger than a chunk, with a ragged last chunk, and
        smaller than one: every step equals the whole-array update."""
        from repro.nn.optim import _CHUNK

        rng = np.random.default_rng(0)
        shapes = [(3, _CHUNK + 7), (5,), (2, 3, 4)]
        start = [rng.standard_normal(shape) for shape in shapes]
        grads = [rng.standard_normal(shape) for shape in shapes]
        params = [nn.Tensor(p.copy(), requires_grad=True) for p in start]
        opt = Adam(params, lr=1e-2, weight_decay=weight_decay)
        for p, g in zip(params, grads):
            p.grad = g
        for _ in range(4):
            opt.step()
        want = _textbook_adam([p.copy() for p in start], grads, 4, 1e-2, weight_decay)
        for p, w in zip(params, want):
            np.testing.assert_array_equal(p.data, w)
        assert all(buf.size == _CHUNK for pair in opt._scratch.values() for buf in pair)

    def test_non_contiguous_parameter_is_updated(self):
        data = np.arange(12.0).reshape(3, 4).T
        p = nn.Tensor(data, requires_grad=True)
        assert not p.data.flags.c_contiguous
        opt = Adam([p], lr=0.5)
        p.grad = np.ones((4, 3))
        opt.step()
        np.testing.assert_allclose(p.data, data - 0.5, rtol=1e-6)


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
