"""The Adam optimizer and global gradient-norm clipping.

The paper trains CircuitVAE with Adam (Sec. 4.1), and the PrefixRL DQN
uses it too; :class:`Adam` here is a faithful numpy implementation.  It
updates the ``.data`` buffers of parameter tensors in place, reading
gradients from ``.grad``.

Updates are **arena-aware**: Adam keeps per-parameter scratch buffers
and performs its whole update through ``out=`` ufuncs, so a
steady-state training step allocates nothing.  The scratch forms compute
the exact same floating-point expressions (same association, only
commuted multiplications) as the naive formulas, so results are
bit-identical to the textbook implementation — this is load-bearing for
the compiled-vs-eager training equivalence contract.

Adam exposes ``state_dict()`` / ``load_state_dict()`` so
training checkpoints can persist moments across process restarts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, params: Iterable[Tensor]):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # -- serialization --------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Optimizer state as a flat ``{name: array}`` dict."""
        raise NotImplementedError

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict` (shape-checked)."""
        raise NotImplementedError

    def _load_arrays(self, buffers: List[np.ndarray], state: Dict, prefix: str) -> None:
        for i, buf in enumerate(buffers):
            value = np.asarray(state[f"{prefix}{i}"])
            if value.shape != buf.shape:
                raise ValueError(
                    f"optimizer state {prefix}{i} shape {value.shape} != "
                    f"parameter shape {buf.shape}"
                )
            buf[...] = value


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._s1 = [np.empty_like(p.data) for p in self.params]
        self._s2 = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for p, m, v, s1, s2 in zip(self.params, self._m, self._v, self._s1, self._s2):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=s1)
                np.add(grad, s1, out=s1)
                grad = s1
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m *= self.beta1
            m += s2
            # v = beta2 * v + ((1 - beta2) * grad) * grad
            np.multiply(grad, 1.0 - self.beta2, out=s2)
            np.multiply(s2, grad, out=s2)
            v *= self.beta2
            v += s2
            # p -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=s1)
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            np.multiply(s1, self.lr, out=s1)
            np.divide(s1, s2, out=s1)
            p.data -= s1

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {
            "step_count": np.asarray(self._step_count, dtype=np.int64)
        }
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m{i}"] = m.copy()
            state[f"v{i}"] = v.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._load_arrays(self._m, state, "m")
        self._load_arrays(self._v, state, "v")
        self._step_count = int(np.asarray(state["step_count"]))


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, which callers often log to detect
    training instability.
    """
    params = [p for p in params if p.grad is not None]
    # Keep the exact pre-IR expression: a BLAS dot would shift the norm
    # by ulps and break bit-identity with run directories recorded
    # before the graph executor existed.
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
