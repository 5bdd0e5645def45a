"""Unit tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest

from helpers import numerical_grad

from repro import nn
from repro.nn.tensor import _unbroadcast


def sq(t):
    return t * t


def check_grad(build, *shapes, seed=0, tol=1e-6):
    """Gradcheck helper: build(*tensors) -> scalar Tensor."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) * 0.7 + 0.5 for s in shapes]
    tensors = [nn.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for arr, t in zip(arrays, tensors):
        num = numerical_grad(lambda: build(*[nn.Tensor(a) for a in arrays]).item(), arr)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, atol=tol, rtol=1e-4)


class TestElementwise:
    def test_add_broadcast(self):
        check_grad(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_sub(self):
        check_grad(lambda a, b: (a - b * 2.0).sum(), (5,), (5,))

    def test_mul_broadcast(self):
        check_grad(lambda a, b: (a * b).sum(), (2, 3, 4), (3, 4))

    def test_neg(self):
        check_grad(lambda a: (-a).sum(), (3,))

    def test_exp(self):
        check_grad(lambda a: (a * a.exp()).sum(), (5,))

    def test_softplus_grad(self):
        check_grad(lambda a: (a.softplus() * a).sum(), (7,))

    def test_relu_grad_zero_in_negative_region(self):
        t = nn.Tensor(np.array([-2.0, -1.0, 3.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    def test_softplus_matches_log1pexp(self):
        x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        out = nn.Tensor(x).softplus().numpy()
        np.testing.assert_allclose(out, np.logaddexp(0, x), rtol=1e-12)

    def test_abs(self):
        check_grad(lambda a: (a.abs() + 1.0).sum(), (5,), seed=3)


class TestReductions:
    def test_sum_axis(self):
        check_grad(lambda a: sq(a.sum(axis=0)).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_grad(lambda a: (a * a.sum(axis=1, keepdims=True)).sum(), (3, 4))

    def test_mean(self):
        check_grad(lambda a: sq(a.mean(axis=1)).sum(), (2, 5))


class TestLinearAlgebraAndShape:
    def test_matmul_2d(self):
        check_grad(lambda a, b: (a @ b).sum(), (3, 4), (4, 5))

    def test_matmul_vector(self):
        check_grad(lambda a, b: (a @ b).sum(), (4,), (4,))

    def test_reshape(self):
        check_grad(lambda a: sq(a.reshape(2, 6)).sum(), (3, 4))

    def test_transpose(self):
        check_grad(lambda a: (a.T @ a).sum(), (3, 4))

    def test_transpose_axes(self):
        check_grad(lambda a: sq(a.transpose(1, 0, 2)).sum(), (2, 3, 4))

    def test_getitem(self):
        check_grad(lambda a: sq(a[1:, :2]).sum(), (4, 4))

    def test_getitem_fancy(self):
        idx = (np.array([0, 2]), np.array([1, 3]))
        check_grad(lambda a: sq(a[idx]).sum(), (4, 4))


class TestGraphMechanics:
    def test_grad_accumulates_on_reuse(self):
        t = nn.Tensor(np.ones(3), requires_grad=True)
        (t * 2 + t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0, 5.0])

    def test_backward_requires_scalar(self):
        t = nn.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_nograd_raises(self):
        t = nn.Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_no_grad_context(self):
        t = nn.Tensor(np.ones(3), requires_grad=True)
        with nn.no_grad():
            out = (t * 2).sum()
        assert not out.requires_grad
        assert (t * 2).requires_grad

    def test_deep_chain_no_recursion_error(self):
        t = nn.Tensor(np.ones(2), requires_grad=True)
        out = t
        for _ in range(2000):
            out = out + 0.001
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 1.0])

    def test_zero_grad(self):
        t = nn.Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_grad(self):
        # y = (a + a*a); dy/da = 1 + 2a
        a = nn.Tensor(np.array([3.0]), requires_grad=True)
        (a + a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])


class TestUnbroadcast:
    def test_sum_leading_axes(self):
        g = np.ones((2, 3, 4))
        out = _unbroadcast(g, (4,))
        np.testing.assert_allclose(out, np.full(4, 6.0))

    def test_sum_kept_axes(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))

    def test_identity(self):
        g = np.ones((3, 4))
        assert _unbroadcast(g, (3, 4)) is g


class TestConstructors:
    def test_repr_and_len(self):
        t = nn.Tensor(np.zeros((2, 2)), requires_grad=True)
        assert "requires_grad" in repr(t)
        assert len(t) == 2


class TestGradModeThreadLocal:
    def test_no_grad_is_per_thread(self):
        """Regression: one thread's no_grad section must never disable
        graph construction in a concurrently working thread
        (``parallel_seeds`` trains one model per seed thread at the same
        time, so overlapping no_grad windows are the norm, not a race)."""
        import threading

        inside = threading.Event()
        release = threading.Event()
        errors = []

        def holder():
            try:
                with nn.no_grad():
                    inside.set()
                    release.wait(timeout=30)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=holder)
        t.start()
        try:
            assert inside.wait(timeout=30)
            a = nn.Tensor(np.array([3.0]), requires_grad=True)
            out = (a * a).sum()
            assert out.requires_grad
            out.backward()
            np.testing.assert_allclose(a.grad, [6.0])
        finally:
            release.set()
            t.join(timeout=30)
        assert not errors
        assert not t.is_alive()
