"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of :mod:`repro.nn`, the from-scratch neural
network substrate used by the CircuitVAE reproduction (the paper used
PyTorch, which is unavailable offline; the repo-root ``DESIGN.md``
documents this and the other substrate stand-ins).

The engine has two modes sharing one op set (:mod:`repro.nn.graph`):

* **Eager define-by-run** (the default, and the numerical reference):
  every differentiable operation dispatches through :func:`apply`, which
  computes immediately and stores ``(op id, parents, attrs)`` on the
  output — VJP rules live in the op registry as data, not in per-call
  closures.  :meth:`Tensor.backward` topologically sorts this tape and
  applies the registry rules in reverse.
* **Traced**: while a :class:`repro.nn.graph.Trace` is active (see
  :mod:`repro.nn.compile`), :func:`apply` additionally records each op
  into an explicit :class:`~repro.nn.graph.Node` IR that the compiler
  schedules into a buffer-reusing replay program.

Broadcasting is supported everywhere; gradients are un-broadcast
(summed) back to each parent's shape.  Tensors are float64 by default;
float32 arrays keep their dtype, and an op mixing float32 and float64
operands normalizes to float64 with a one-time ``RuntimeWarning`` (the
silent-promotion trap this warning guards against doubles training
memory without anyone noticing).
"""

from __future__ import annotations

import threading
import warnings
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .graph import OPS, active_trace

Arrayish = Union["Tensor", np.ndarray, float, int]

__all__ = ["Tensor", "no_grad", "apply"]


class _GradMode(threading.local):
    """Per-thread switch for gradient recording (see :func:`no_grad`).

    Thread-local so one seed cell's ``no_grad`` section (latent search
    evaluates helpers without growing the tape) can never disable graph
    construction in a concurrently searching or training cell.
    """

    enabled: bool = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager disabling graph construction, like ``torch.no_grad``.

    Useful during latent-space *search*, where we differentiate w.r.t. the
    latent input but evaluate helper quantities without growing the tape.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_mode.enabled = self._prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: Arrayish, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
_promotion_warned = threading.Lock(), [False]


def _warn_promotion_once() -> None:
    lock, flag = _promotion_warned
    with lock:
        if flag[0]:
            return
        flag[0] = True
    warnings.warn(
        "mixed float32/float64 tensor operands promote to float64; cast "
        "your inputs (or parameters) to one dtype to avoid silently "
        "doubling training memory (warned once per process)",
        RuntimeWarning,
        stacklevel=4,
    )


def apply(op_name: str, inputs: Sequence["Tensor"], attrs: Optional[dict] = None) -> "Tensor":
    """Apply a registry op eagerly (and record it into any active trace).

    This is the single dispatch point of the tape: dtype normalization,
    forward execution, grad linking and trace recording all happen here,
    so every ``Tensor`` method and every :mod:`repro.nn.functional` free
    function behaves identically.
    """
    op = OPS[op_name]
    attrs = {} if attrs is None else attrs
    arrays = tuple(t.data for t in inputs)
    if len(arrays) > 1:
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) > 1 and _FLOATS[0] in dtypes:
            _warn_promotion_once()
            arrays = tuple(
                a.astype(np.float64) if a.dtype == _FLOATS[0] else a for a in arrays
            )
    data = op.forward(arrays, attrs)
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in inputs):
        out.requires_grad = True
        out._parents = tuple(inputs)
        out._op = op_name
        out._attrs = attrs
    trace = active_trace()
    if trace is not None:
        trace.record(op_name, inputs, attrs, out)
    return out


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array (or nested sequence / scalar) holding the values.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` on
        :meth:`backward`.
    dtype:
        Optional explicit dtype.  By default float64, except float32
        arrays, which keep their dtype (see the module docstring).
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_op",
        "_attrs",
        "name",
    )

    def __init__(self, data, requires_grad: bool = False, name: str = "", dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is None:
            dtype = np.float32 if arr.dtype == np.float32 else np.float64
        self.data: np.ndarray = np.asarray(arr, dtype=dtype)
        self.requires_grad: bool = bool(requires_grad) and _grad_mode.enabled
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._op: Optional[str] = None
        self._attrs: dict = {}
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _vjps(self, grad: np.ndarray):
        """Per-parent gradients of this node (its registry VJP rule)."""
        op = OPS[self._op]
        return op.vjp(
            grad,
            self.data,
            tuple(p.data for p in self._parents),
            self._attrs,
            tuple(p.requires_grad for p in self._parents),
        )

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological sort (iterative DFS to survive deep graphs).
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._op is not None:
                node._push_parent_grads(node_grad, grads)
            elif node.requires_grad:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)

    def _push_parent_grads(self, grad: np.ndarray, grads: dict) -> None:
        parent_grads = self._vjps(grad)
        if parent_grads is None:
            return
        for parent, pgrad in zip(self._parents, parent_grads):
            if pgrad is None or not parent.requires_grad:
                continue
            pgrad = _unbroadcast(
                np.asarray(pgrad, dtype=parent.data.dtype), parent.data.shape
            )
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pgrad
            else:
                grads[key] = pgrad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        return apply("add", (self, _ensure_tensor(other, self)))

    __radd__ = __add__

    def __sub__(self, other: Arrayish) -> "Tensor":
        return apply("sub", (self, _ensure_tensor(other, self)))

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return _ensure_tensor(other, self).__sub__(self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        return apply("mul", (self, _ensure_tensor(other, self)))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return apply("neg", (self,))

    # Comparison operators return plain boolean arrays (no gradient).
    def __gt__(self, other: Arrayish) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: Arrayish) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: Arrayish) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: Arrayish) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return apply("exp", (self,))

    def abs(self) -> "Tensor":
        return apply("abs", (self,))

    def relu(self) -> "Tensor":
        return apply("relu", (self,))

    def softplus(self) -> "Tensor":
        return apply("softplus", (self,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: Arrayish) -> "Tensor":
        return apply("matmul", (self, _ensure_tensor(other, self)))

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", (self,), {"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(int(i) for i in np.argsort(axes))
        return apply("transpose", (self,), {"axes": axes, "inverse": inverse})

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        return apply("getitem", (self,), {"idx": idx})


def _ensure_tensor(value: Arrayish, like: Optional[Tensor] = None) -> Tensor:
    """Coerce ``value`` into a Tensor.

    Non-tensor operands (python scalars, lists, raw arrays) adopt
    ``like``'s dtype, so ``float32_tensor * 2.0`` stays float32 instead
    of tripping the mixed-dtype promotion warning: dtype is a property
    of *tensors*; only mixing two differently-typed tensors warns.
    """
    if isinstance(value, Tensor):
        return value
    if like is not None:
        return Tensor(np.asarray(value, dtype=like.data.dtype))
    return Tensor(value)
