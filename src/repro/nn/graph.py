"""The graph layer of :mod:`repro.nn`: an explicit op IR for autograd.

Historically every :class:`~repro.nn.tensor.Tensor` operation recorded a
*backward closure* — a fresh Python lambda capturing the operands — which
made the tape opaque: it could be walked, but not analyzed, scheduled,
or replayed.  This module replaces that with data:

* :class:`OpDef` — one entry per differentiable operation, holding the
  forward kernel and the **VJP rule as a plain function over arrays**
  (``vjp(g, out, inputs, attrs, needed) -> per-parent grads``), plus the
  metadata the compiler needs (does the VJP read the saved output /
  input values? is the output a view?).
* :data:`OPS` — the registry.  ``Tensor`` methods dispatch through
  :func:`repro.nn.tensor.apply`, which looks ops up here; eager mode
  computes immediately and stores only ``(op id, parents, attrs)`` on
  the output tensor, so :meth:`Tensor.backward` re-derives gradients
  from the registry instead of calling captured closures.
* :class:`Node` / :class:`Trace` — the IR.  While a trace is active
  (always thread-local: parallel seeds train concurrently), every
  ``apply`` also records a :class:`Node` with integer parent ids, which
  is what :mod:`repro.nn.compile` turns into a scheduled, buffer-reusing
  :class:`~repro.nn.compile.GraphProgram`.

Eager semantics are unchanged: the same kernels run in the same order
with the same operand aliasing the old closures captured, so eager
results are bit-identical to the pre-IR tape.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conv import (
    conv2d_backward,
    conv2d_forward,
    conv_transpose2d_backward,
    conv_transpose2d_forward,
)

__all__ = [
    "CompileUnsupported",
    "OpDef",
    "OPS",
    "register_op",
    "Node",
    "Trace",
    "active_trace",
    "stable_sigmoid",
]


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic function."""
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ----------------------------------------------------------------------
# Op definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpDef:
    """One differentiable operation: forward kernel + VJP rule as data.

    ``forward(inputs, attrs)`` returns a fresh array (or a view for
    ``view=True`` ops).  ``kernel(inputs, attrs, out)``, when present,
    writes the same values into a preallocated ``out`` buffer — the
    compiler uses it for buffer reuse; it must be bit-identical to
    ``forward``.  ``vjp(g, out, inputs, attrs, needed)`` returns one
    gradient per parent (entries for parents with ``needed[i]`` False
    may be anything; eager ignores them, like the old closures did).

    ``needs_out`` / ``needs_inputs`` declare whether the VJP reads the
    saved output / input *values* (not just shapes) — this is the
    liveness information behind the compiler's buffer arena: a value
    no VJP reads can share an arena slot once its last forward reader
    has run.
    """

    name: str
    forward: Callable[[Tuple[np.ndarray, ...], Dict], np.ndarray]
    vjp: Callable
    kernel: Optional[Callable] = None
    needs_out: bool = False
    needs_inputs: bool = False
    view: bool = False


OPS: Dict[str, OpDef] = {}


def register_op(op: OpDef) -> OpDef:
    """Add an op to the registry (name collisions are a programming error)."""
    if op.name in OPS:
        raise ValueError(f"op {op.name!r} already registered")
    OPS[op.name] = op
    return op


def _op(name, forward, vjp, **meta) -> OpDef:
    return register_op(OpDef(name, forward, vjp, **meta))


# -- elementwise arithmetic --------------------------------------------
_op(
    "add",
    lambda x, a: x[0] + x[1],
    lambda g, out, x, a, need: (g, g),
    kernel=lambda x, a, out: np.add(x[0], x[1], out=out),
)
_op(
    "sub",
    lambda x, a: x[0] - x[1],
    lambda g, out, x, a, need: (g, -g),
    kernel=lambda x, a, out: np.subtract(x[0], x[1], out=out),
)
_op(
    "mul",
    lambda x, a: x[0] * x[1],
    lambda g, out, x, a, need: (g * x[1], g * x[0]),
    kernel=lambda x, a, out: np.multiply(x[0], x[1], out=out),
    needs_inputs=True,
)
_op(
    "neg",
    lambda x, a: -x[0],
    lambda g, out, x, a, need: (-g,),
    kernel=lambda x, a, out: np.negative(x[0], out=out),
)

# -- elementwise functions ---------------------------------------------
_op(
    "exp",
    lambda x, a: np.exp(x[0]),
    lambda g, out, x, a, need: (g * out,),
    kernel=lambda x, a, out: np.exp(x[0], out=out),
    needs_out=True,
)
_op(
    "abs",
    lambda x, a: np.abs(x[0]),
    lambda g, out, x, a, need: (g * np.sign(x[0]),),
    kernel=lambda x, a, out: np.abs(x[0], out=out),
    needs_inputs=True,
)
_op(
    "relu",
    lambda x, a: x[0] * (x[0] > 0),
    lambda g, out, x, a, need: (g * (x[0] > 0),),
    kernel=lambda x, a, out: np.multiply(x[0], x[0] > 0, out=out),
    needs_inputs=True,
)
_op(
    "softplus",
    lambda x, a: np.logaddexp(0.0, x[0]),
    lambda g, out, x, a, need: (g * stable_sigmoid(x[0]),),
    kernel=lambda x, a, out: np.logaddexp(0.0, x[0], out=out),
    needs_inputs=True,
)


# -- reductions --------------------------------------------------------
def _sum_fw(x, a):
    return x[0].sum(axis=a["axis"], keepdims=a["keepdims"])


def _sum_kernel(x, a, out):
    return np.sum(x[0], axis=a["axis"], keepdims=a["keepdims"], out=out)


def _sum_vjp(g, out, x, a, need):
    axis, keepdims = a["axis"], a["keepdims"]
    grad = g
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return (np.broadcast_to(grad, x[0].shape).copy(),)


_op("sum", _sum_fw, _sum_vjp, kernel=_sum_kernel)


# -- linear algebra ----------------------------------------------------
def _matmul_vjp(g, out, x, a, need):
    ma, mb = x
    if ma.ndim == 1 and mb.ndim == 1:
        return (g * mb, g * ma)
    ga = g @ np.swapaxes(mb, -1, -2) if mb.ndim > 1 else np.outer(g, mb)
    gb = np.swapaxes(ma, -1, -2) @ g if ma.ndim > 1 else np.outer(ma, g)
    return (ga, gb)


_op(
    "matmul",
    lambda x, a: x[0] @ x[1],
    _matmul_vjp,
    kernel=lambda x, a, out: np.matmul(x[0], x[1], out=out),
    needs_inputs=True,
)


# -- shape manipulation ------------------------------------------------
_op(
    "reshape",
    lambda x, a: x[0].reshape(a["shape"]),
    lambda g, out, x, a, need: (g.reshape(x[0].shape),),
    view=True,
)
_op(
    "transpose",
    lambda x, a: x[0].transpose(a["axes"]),
    lambda g, out, x, a, need: (g.transpose(a["inverse"]),),
    view=True,
)


def _getitem_vjp(g, out, x, a, need):
    full = np.zeros(x[0].shape, dtype=np.float64)
    np.add.at(full, a["idx"], g)
    return (full,)


_op("getitem", lambda x, a: x[0][a["idx"]], _getitem_vjp, view=True)


# -- convolutions ------------------------------------------------------
def _conv2d_vjp(g, out, x, a, need):
    return conv2d_backward(g, x[0], x[1], a["stride"], a["padding"])


_op(
    "conv2d",
    lambda x, a: conv2d_forward(x[0], x[1], a["stride"], a["padding"]),
    _conv2d_vjp,
    needs_inputs=True,
)


def _conv_transpose2d_vjp(g, out, x, a, need):
    return conv_transpose2d_backward(g, x[0], x[1], a["stride"], a["padding"])


_op(
    "conv_transpose2d",
    lambda x, a: conv_transpose2d_forward(x[0], x[1], a["stride"], a["padding"]),
    _conv_transpose2d_vjp,
    needs_inputs=True,
)


# ----------------------------------------------------------------------
# The IR: nodes and traces
# ----------------------------------------------------------------------
@dataclass
class Node:
    """One vertex of a traced computation.

    ``kind`` is ``"op"`` for registry applications and ``"input"`` /
    ``"param"`` / ``"constant"`` for leaves.  Parents are node ids, so a
    trace is a plain array-of-structs DAG the compiler can schedule and
    analyze without touching any Tensor object.
    """

    id: int
    kind: str
    op: Optional[str]
    parents: Tuple[int, ...]
    attrs: Dict
    shape: Tuple[int, ...]
    dtype: np.dtype
    requires_grad: bool


_ACTIVE = threading.local()


class CompileUnsupported(RuntimeError):
    """A traced step cannot be compiled into a replayable program."""


#: index parts that are fixed at trace time and so replay correctly.
_STATIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def _static_index(idx) -> bool:
    """True when a ``getitem`` index holds only ints, slices, ``None``
    and ``Ellipsis`` (no array or list of positions)."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(part, _STATIC_INDEX) for part in parts)


def active_trace() -> Optional["Trace"]:
    """The trace currently recording on this thread, if any."""
    return getattr(_ACTIVE, "trace", None)


class Trace:
    """Records every registry op applied while active (as a context
    manager) into a list of :class:`Node`.

    Leaves are classified on first encounter: tensors listed in
    ``params`` become ``param`` nodes (their storage is read live at
    every replay, so in-place optimizer updates are seen), tensors in
    ``inputs`` become ``input`` nodes (rebound to fresh arrays on every
    replay), both recorded by their position in that list, so a program
    built from the trace binds whichever same-shaped list its caller
    passes; anything else — scalars and arrays created *inside*
    the traced function — is captured as a ``constant`` by reference.
    A traced function must therefore route all per-step data through
    declared inputs; that contract is what makes replay valid.

    Op attributes are captured the same way, so a ``getitem`` whose
    index holds an array (or list) of positions raises
    :class:`CompileUnsupported` at trace time: replay would gather the
    traced step's positions on every later step, whatever its data.
    """

    def __init__(self, params: Sequence = (), inputs: Sequence = ()):
        self.nodes: List[Node] = []
        self._ids: Dict[int, int] = {}
        self._pins: List[object] = []  # keep tensors alive: id() stays unique
        self._param_positions = {id(p): i for i, p in enumerate(params)}
        self._input_positions = {id(t): i for i, t in enumerate(inputs)}
        self.param_nodes: Dict[int, int] = {}  # node id -> position in `params`
        self.input_nodes: Dict[int, int] = {}  # node id -> position in `inputs`
        self.constants: Dict[int, np.ndarray] = {}  # node id -> array
        self.tensor_nodes: Dict[int, int] = {}  # id(tensor) -> node id

    # -- context management -------------------------------------------
    def __enter__(self) -> "Trace":
        if active_trace() is not None:
            raise RuntimeError("a trace is already active on this thread")
        _ACTIVE.trace = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.trace = None

    # -- recording -----------------------------------------------------
    def _new_node(self, **kwargs) -> Node:
        node = Node(id=len(self.nodes), **kwargs)
        self.nodes.append(node)
        return node

    def node_of(self, tensor) -> int:
        """The node id of ``tensor``, creating a leaf on first sight."""
        key = id(tensor)
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        self._pins.append(tensor)
        if key in self._param_positions:
            kind = "param"
        elif key in self._input_positions:
            kind = "input"
        else:
            kind = "constant"
        node = self._new_node(
            kind=kind,
            op=None,
            parents=(),
            attrs={},
            shape=tensor.data.shape,
            dtype=tensor.data.dtype,
            requires_grad=bool(tensor.requires_grad),
        )
        if kind == "param":
            self.param_nodes[node.id] = self._param_positions[key]
        elif kind == "input":
            self.input_nodes[node.id] = self._input_positions[key]
        else:
            self.constants[node.id] = tensor.data
        self._ids[key] = node.id
        self.tensor_nodes[key] = node.id
        return node.id

    def record(self, op_name: str, inputs: Sequence, attrs: Dict, out) -> int:
        """Record one registry application; returns the new node id."""
        if op_name == "getitem" and not _static_index(attrs["idx"]):
            raise CompileUnsupported(
                "array index under a trace would replay the traced "
                "positions as a constant; index with ints and slices only"
            )
        parents = tuple(self.node_of(p) for p in inputs)
        node = self._new_node(
            kind="op",
            op=op_name,
            parents=parents,
            attrs=attrs,
            shape=out.data.shape,
            dtype=out.data.dtype,
            requires_grad=bool(out.requires_grad),
        )
        self._pins.append(out)
        self._ids[id(out)] = node.id
        self.tensor_nodes[id(out)] = node.id
        return node.id

    def release(self) -> None:
        """Drop the tensor pins after compilation.

        They are only needed while a program is built and verified; a
        kept trace holds only its node/leaf tables, and without this the
        full set of traced intermediate arrays (and the traced
        parameters) would stay resident for as long as it is kept.
        """
        self._pins.clear()
        self._ids.clear()
        self.tensor_nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)
