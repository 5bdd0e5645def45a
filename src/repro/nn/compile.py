"""Trace-then-replay compiler for :mod:`repro.nn` training steps.

The eager tape re-dispatches every op through Python on every training
step even though the step's graph never changes shape.  This module
traces ONE step into the explicit :class:`~repro.nn.graph.Node` IR and
compiles it into a :class:`GraphProgram`:

* **Topological schedule** — the op list in recorded order, pruned to
  the ancestors of the requested outputs; the backward schedule
  replicates the eager engine's DFS order exactly, so gradient
  accumulation associates identically; every non-conv node runs its
  registry VJP — the same function eager runs — so its gradients are
  bit-for-bit eager's.
* **Liveness-analyzed buffer arenas** — every intermediate gets a
  preallocated numpy buffer written with ``out=`` kernels.  Values not
  needed by any VJP share an arena whose buffers are reused across
  liveness-disjoint intermediates of the same size; gradients share a
  second arena by their backward live range (first write by a consumer
  to their own backward instruction), except the loss seed and the
  parameter gradients, which stay dedicated.  All buffers are reused
  across steps, and each one is its own anonymous memory map
  (:func:`_storage`), so a dropped program's storage leaves the process
  at once instead of lingering in the allocator's heap.
* **Fast kernels** — convolutions replay through matmul-based kernels
  (the batched GEMM numpy's einsum performs internally, called
  directly), chosen by the conv's shape.  A stride-1 conv2d with fewer
  output than input channels (the decoder's output conv) builds no
  unfold columns: one GEMM of every tap's weights against its flat
  zero-padded input, whose shifted rows sum to the output
  (:class:`_TapConv2dForward`); its backward writes the tap-shifted
  output gradient once and takes dW and dx as one GEMM each.  Other
  conv2d forwards unfold the input, and their dx is a col2im fold.
  A conv2d forward keeps nothing: its backward reads the input value,
  which the registry pins like any VJP input, and pads or unfolds it
  again for dW.  The kernels match the eager conv kernels up to
  summation order (~1 ulp).  Every workspace of a conv instruction is
  live for that instruction only, so each program has one scratch
  region, sized to its largest conv instruction's workspace, that every
  conv kernel views from offset 0.  A col2im fold scatters one sample
  at a time, so its index table covers one sample; the tables, which
  no replay writes, are shared by the live programs of one
  :class:`CompiledTrainStep` and go with them.  A replay still
  allocates temporaries: the registry VJPs return fresh arrays, relu's
  kernel builds its ``x > 0`` mask, and every col2im ``bincount``
  allocates one sample's output.
* **Shape-guarded replay** — programs are built per input-shape
  signature; a new shape gets a trace of its own, never a wrong replay.
* **One verified trace per graph per process** — kept traces live in
  one process-wide table keyed by the step's ``key`` (what fixes the
  graph; for ``train_model`` the model class, ``VAEConfig``, ``beta``
  and ``lam``), the input signature and the parameter shapes.  A kept
  trace binds parameters by position and pins no tensor, so it keeps no
  model alive.  ``CompiledTrainStep.release`` drops the programs, the
  shard sums and the shard worker thread (``train_model`` builds a step
  per call and releases it on return, so the storage exists only while
  a call trains, and no parameter ``.grad`` points into it after).
* **Sharded steps** — ``CompiledTrainStep(shards=k)`` splits each batch
  into ``k`` row shards (:func:`shard_slices`), replays forward+backward
  per shard and combines outputs and gradients as the size-weighted
  mean (:class:`ShardMean`) before one clip and one optimizer step.
  The shard count is part of the numerics; the core budget
  (:func:`repro.utils.threads.core_budget`) decides only whether the
  shards overlap — each on its own thread and program instance, all
  built from one trace, under ``blas_budget(1)`` — or replay back to
  back through one program.
  Both placements are bitwise identical, so the records of a run do not
  depend on the machine.  Programs therefore never write ``Tensor.grad``
  themselves; the step points each parameter at its gradient.

**Equivalence contract**: a compiled step must be *numerically
equivalent* to the eager step.  The compiler enforces this mechanically:
the first program built from a new trace runs once on the traced arrays
and its outputs and parameter gradients are compared against the eager
engine's (`verify`), and the IR verifier (:mod:`repro.nn.verify`)
checks the buffer plan of every program built.  A trace is kept only
once its first program passes both; a later program from it differs
only in where its storage lives and which same-shaped parameters it
binds, and the IR verifier re-checks its plan.  A
mismatch, a finding, a non-float64 graph or an
unrepresentable op raises :class:`CompileUnsupported`, and any other
error during trace/build/verify propagates with its own type: a step
that cannot be compiled stops training loudly rather than running on
another engine, so a run's numbers never depend on whether a trace
compiled.

The traced function must route **all per-step data through its declared
inputs** — any tensor it creates internally is captured as a trace-time
constant (that is what makes replay cheap, and the verify pass will not
catch a violation that only manifests on later batches).  Array
indices are the one such capture the trace refuses outright
(:class:`~repro.nn.graph.Trace`): a batch-dependent gather would
otherwise replay the traced batch's rows forever.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..utils.threads import blas_budget, core_budget
from . import verify as ir_verify
from .graph import OPS, CompileUnsupported, Node, Trace
from .optim import Optimizer, clip_grad_norm
from .tensor import Tensor, _unbroadcast

__all__ = [
    "CompileUnsupported",
    "CompileStats",
    "GraphProgram",
    "ProgramPlan",
    "CompiledTrainStep",
    "ShardMean",
    "profile_enabled",
    "shard_slices",
]


def profile_enabled() -> bool:
    """``REPRO_PROFILE=1``: per-kernel replay timings (see GraphProgram).

    Checked once per program *build*, not per replay, so flipping the
    variable mid-run only affects programs built afterwards (a training
    step rebuilds its programs on every ``train_model`` call).
    """
    return os.environ.get("REPRO_PROFILE", "0").strip() not in ("", "0")


def _profiled(instr: Callable, label: str, totals: Dict[str, float]) -> Callable:
    """Wrap one replay instruction with a cumulative perf_counter timer."""

    def run_profiled() -> None:
        start = time.perf_counter()
        instr()
        totals[label] = totals.get(label, 0.0) + (time.perf_counter() - start)

    return run_profiled


@dataclass
class CompileStats:
    """Counters one :class:`CompiledTrainStep` accumulates.

    ``traces`` counts the traces the step made, one per table key it
    was the first in the process to need, however many programs are
    built from it: a two-shard step on an even batch traces once whether
    its shards replay back to back or on two threads, and a step whose
    key is already kept counts none (``nn.train_compiles`` in the
    benchmark's per-layer metrics).  ``replays`` counts steps served by
    cached programs, one per step however many shards it replays
    (``nn.train_replays``).
    The rest sum over every program built, rebuilds after
    :meth:`CompiledTrainStep.release` included: scheduled ops
    (``nodes``), dedicated buffers for outputs and backward-needed
    values (``buffers``), arena buffers allocated (``arena_slots``) and
    arena buffers handed to a later intermediate (``arena_reused``), and
    conv replay kernels (``fast_kernels``).

    The ``*_bytes`` counters are the storage of every program built,
    counted at each build: value buffers, dedicated and arena
    (``value_bytes``); gradient buffers, dedicated and arena
    (``grad_bytes``); the scratch regions (``scratch_bytes``); and the
    per-sample col2im index tables the programs built between two
    releases share, counted once per such round (``shared_bytes``).
    Every counter is cumulative over the step's life; ``train_model``
    builds a step per call, so its counters are that call's.
    """

    traces: int = 0
    replays: int = 0
    buffers: int = 0
    arena_slots: int = 0
    arena_reused: int = 0
    fast_kernels: int = 0
    nodes: int = 0
    value_bytes: int = 0
    grad_bytes: int = 0
    scratch_bytes: int = 0
    shared_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class ProgramPlan:
    """The structured scheduling/storage decisions of one program.

    :class:`GraphProgram` retains this alongside the closed-over replay
    instructions so the IR verifier (:mod:`repro.nn.verify`) can prove
    the plan sound — def-before-use, no live-slot overwrite, backward
    topological order — without re-deriving it
    from the closures.  Everything here is plain data (ints, tuples,
    dicts keyed by node id); ``buffer_token`` maps each materialized
    alias root, and ``grad_token`` each node that receives a gradient,
    to the identity of the array owning its storage, so two slots
    sharing storage share a token.  ``scratch_token`` is the identity
    of the program's scratch region (``None`` without conv kernels) and
    ``scratch_extents`` lists, per conv instruction (``fwd:<id>`` /
    ``bwd:<id>``), the ``[start, stop)`` element extents its workspaces
    take in that region.  Tests mutate copies of this to inject IR bugs
    and assert the verifier catches them.
    """

    sched: List[int] = field(default_factory=list)
    grad_sched: List[int] = field(default_factory=list)
    kinds: Dict[int, str] = field(default_factory=dict)
    ops: Dict[int, str] = field(default_factory=dict)
    parents: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    shapes: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    requires_grad: Dict[int, bool] = field(default_factory=dict)
    view: Dict[int, bool] = field(default_factory=dict)
    root: Dict[int, int] = field(default_factory=dict)
    buffer_token: Dict[int, int] = field(default_factory=dict)
    grad_token: Dict[int, int] = field(default_factory=dict)
    scratch_token: Optional[int] = None
    scratch_extents: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    pinned_roots: set = field(default_factory=set)
    needed_val: set = field(default_factory=set)
    outputs: Dict[str, int] = field(default_factory=dict)
    loss_id: int = -1

    def copy(self) -> "ProgramPlan":
        """A deep-enough copy for corruption-injection tests."""
        return ProgramPlan(
            sched=list(self.sched),
            grad_sched=list(self.grad_sched),
            kinds=dict(self.kinds),
            ops=dict(self.ops),
            parents=dict(self.parents),
            shapes=dict(self.shapes),
            requires_grad=dict(self.requires_grad),
            view=dict(self.view),
            root=dict(self.root),
            buffer_token=dict(self.buffer_token),
            grad_token=dict(self.grad_token),
            scratch_token=self.scratch_token,
            scratch_extents={
                label: list(extents)
                for label, extents in self.scratch_extents.items()
            },
            pinned_roots=set(self.pinned_roots),
            needed_val=set(self.needed_val),
            outputs=dict(self.outputs),
            loss_id=self.loss_id,
        )


# ----------------------------------------------------------------------
# Storage planning: arenas, the shared scratch region, shared tables
# ----------------------------------------------------------------------
def _storage(shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zeroed array of ``shape`` on its own anonymous memory map.

    Every array a program owns is allocated here, so dropping the
    program unmaps its storage at once: freed heap memory would stay in
    the allocator's arenas (and the process RSS) until a later
    allocation happened to reuse it.  Untouched pages cost no RSS.
    """
    size = math.prod(shape)
    region = mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(region, dtype=dtype, count=size).reshape(shape)


def _storage_token(array: np.ndarray) -> int:
    """Identity of the array that owns ``array``'s memory, so that a view
    and its base share a token (:class:`ProgramPlan`)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return id(array)


class _Arena:
    """Buffers recycled by live range, keyed by element count.

    :meth:`take` is called in increasing ``at`` order; it hands out a
    buffer whose previous occupant was freed at or before ``at`` (the
    first such of the requested size), else a new one, and files it as
    free again from ``free_at`` on.  Buffers are flat; each occupant
    gets a view in its own shape.
    """

    def __init__(self) -> None:
        self._pool: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self.slots = 0
        self.reused = 0
        self.nbytes = 0

    def take(self, shape: Tuple[int, ...], at: int, free_at: int) -> np.ndarray:
        size = math.prod(shape)
        pool = self._pool.setdefault(size, [])
        for i, (ready, flat) in enumerate(pool):
            if ready <= at:
                del pool[i]
                self.reused += 1
                break
        else:
            flat = _storage((size,))
            self.slots += 1
            self.nbytes += flat.nbytes
        pool.append((free_at, flat))
        return flat.reshape(shape)


class _Workspace:
    """The scratch one conv instruction uses while it runs.

    Instructions replay one at a time, so every instruction's extents
    start at offset 0 of its program's one scratch region, and the region
    is as large as the largest workspace.  :meth:`take` records disjoint
    ``[start, stop)`` element extents (starts 64-byte aligned) at build
    time; the kernels view them once the region exists (``bind``).
    """

    def __init__(self) -> None:
        self.extents: List[Tuple[int, int]] = []

    @property
    def size(self) -> int:
        return self.extents[-1][1] if self.extents else 0

    def take(self, shape: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
        start = -(-self.size // 8) * 8
        self.extents.append((start, start + math.prod(shape)))
        return start, tuple(shape)


def _view(region: np.ndarray, extent: Tuple[int, Tuple[int, ...]]) -> np.ndarray:
    start, shape = extent
    return region[start : start + math.prod(shape)].reshape(shape)


def _col2im_index(tables: Dict, stats: CompileStats, cols_shape, padded_hw, stride):
    """The static scatter index of :class:`_Col2Im` for one sample,
    built once per ``tables`` (the live programs of one
    :class:`CompiledTrainStep`) and never written.

    Element ``(c, u, v, i, j)`` of a sample's ``(C, kh, kw, oh, ow)``
    columns lands at row ``u + stride*i``, column ``v + stride*j`` of
    channel ``c`` of the sample's flat padded ``(C, Hp, Wp)`` grids.
    The array stays flagged writeable: ``np.bincount`` copies an index
    that is not, on every call.
    """
    key = (tuple(cols_shape[1:]), tuple(padded_hw), stride)
    index = tables.get(key)
    if index is None:
        _, channels, kh, kw, oh, ow = cols_shape
        hp, wp = padded_hw
        per_patch = np.empty((kh, kw, oh, ow), dtype=np.intp)
        for u in range(kh):
            for v in range(kw):
                rows = u + stride * np.arange(oh)
                cols_ = v + stride * np.arange(ow)
                per_patch[u, v] = rows[:, None] * wp + cols_[None, :]
        offsets = (np.arange(channels) * (hp * wp))[:, None]
        index = _storage((channels, per_patch.size), np.intp)
        np.add(per_patch.reshape(1, -1), offsets, out=index)
        index = index.ravel()
        tables[key] = index
        stats.shared_bytes += index.nbytes
    return index


# ----------------------------------------------------------------------
# Fast convolution kernels (scratch workspaces, matmul-based)
# ----------------------------------------------------------------------
class _Col2Im:
    """Adjoint of im2col: one ``bincount`` scatter-add per sample,
    written into a destination.

    The destination index of every element of a sample's columns is
    static, so it is precomputed once (:func:`_col2im_index`); each
    sample is then a single vectorized scatter-sum —
    2-5x faster than the reference loop of strided adds (whose
    per-``(u, v)`` numpy dispatch dominates at CNN-VAE sizes) and equal
    to it up to summation order.  ``bincount`` sums every bin in index
    order, so the per-sample folds are bitwise one fold over the whole
    batch, and no slower: on a 32-row shard at n=32 (2 CPU cores)
    blocks of 1, 2, 4 and 32 samples took 1.01/0.98/1.01/1.13 ms for
    ``enc_conv2``'s dx and 1.57/1.56/1.63/1.70 ms for ``dec_deconv2``;
    at n=64 ``dec_deconv2`` took 8.6 ms per sample and 10.7 ms as one
    fold, whose table is 32x the size.  Each ``bincount`` allocates the
    sample's padded output, whose interior is copied into the
    destination (``bind``): a convT output buffer or a conv2d dx
    workspace.
    """

    def __init__(self, index: np.ndarray, padded_shape, padding: int) -> None:
        self.index = index
        self.shape = tuple(padded_shape)  # one sample's (C, Hp, Wp)
        self.size = math.prod(self.shape)
        _, hp, wp = self.shape
        inner = slice(padding, hp - padding), slice(padding, wp - padding)
        self.interior = (slice(None),) + inner
        self.samples: List[Tuple[np.ndarray, np.ndarray]] = []

    def bind(self, cols6: np.ndarray, dest: np.ndarray) -> None:
        """Fold ``cols6`` (scratch columns) into ``dest`` (B, C, H, W)."""
        self.samples = [(cols.reshape(-1), out) for cols, out in zip(cols6, dest)]

    def __call__(self) -> None:
        for weights, out in self.samples:
            folded = np.bincount(self.index, weights=weights, minlength=self.size)
            np.copyto(out, folded.reshape(self.shape)[self.interior])


class _Padded:
    """A zero-padded scratch copy of ``x`` (B,C,H,W): each channel's
    ``(H + 2p, W + 2p)`` grid, flat and followed by ``tail`` zeros.

    Other kernels overwrite the scratch between calls, so each call
    re-zeroes the border strips and the tail before copying ``x`` into
    the interior.
    """

    def __init__(self, x_shape, padding: int, tail: int, ws: _Workspace) -> None:
        batch, channels, height, width = x_shape
        self.padding, self.hw = padding, (height, width)
        self.hp, self.wp = height + 2 * padding, width + 2 * padding
        self.shape = (batch, channels, self.hp * self.wp + tail)
        self._at = ws.take(self.shape)

    def bind(self, region: np.ndarray) -> None:
        self.flat = flat = _view(region, self._at)
        batch, channels, _ = self.shape
        area = self.hp * self.wp
        # splitting the contiguous last axis: always a view
        self.grid = grid = flat[:, :, :area].reshape(batch, channels, self.hp, self.wp)
        pad, (height, width) = self.padding, self.hw
        inner = slice(pad, pad + height)
        self.interior = grid[:, :, inner, pad : pad + width]
        strips = (
            grid[:, :, :pad],
            grid[:, :, pad + height :],
            grid[:, :, inner, :pad],
            grid[:, :, inner, pad + width :],
            flat[:, :, area:],
        )
        self._strips = [strip for strip in strips if strip.size]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for strip in self._strips:
            strip.fill(0.0)
        np.copyto(self.interior, x)
        return self.flat


class _Im2Col:
    """Unfold workspace: x (B,C,H,W) -> cols (B, C*kh*kw, L).

    The columns and, with padding, the padded copy of ``x``
    (:class:`_Padded`) live in the program's scratch region.
    """

    def __init__(self, x_shape, kh, kw, stride, padding, ws: _Workspace):
        batch, channels, height, width = x_shape
        self.stride = stride
        hp, wp = height + 2 * padding, width + 2 * padding
        self.oh = (hp - kh) // stride + 1
        self.ow = (wp - kw) // stride + 1
        self.kh, self.kw = kh, kw
        self.mat_shape = (batch, channels * kh * kw, self.oh * self.ow)
        self.pad = _Padded(x_shape, padding, 0, ws) if padding else None
        self._cols_at = ws.take((batch, channels, kh, kw, self.oh, self.ow))
        self._window_src = None
        self._windows = None

    def bind(self, region: np.ndarray) -> None:
        self.cols = _view(region, self._cols_at)
        self.cols_mat = self.cols.reshape(self.mat_shape)
        if self.pad is not None:
            self.pad.bind(region)
            self._bind_windows(self.pad.grid)

    def _bind_windows(self, xp: np.ndarray) -> None:
        windows = sliding_window_view(xp, (self.kh, self.kw), axis=(2, 3))
        windows = windows[:, :, :: self.stride, :: self.stride, :, :]
        self._windows = windows.transpose(0, 1, 4, 5, 2, 3)
        self._window_src = xp

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.pad is not None:
            self.pad(x)
        elif x is not self._window_src:
            # Unpadded inputs are caller-owned arrays; rebind lazily (the
            # compiled executor feeds the same buffer every step).
            self._bind_windows(x)
        np.copyto(self.cols, self._windows)
        return self.cols_mat


class _BatchGemmT:
    """``sum_b A[b] @ B[b].T`` — the weight-gradient contraction
    (``bol,bkl->ok`` / ``bil,bkl->ik``).

    Two static strategies, chosen by shape at build time (deterministic,
    so replays across processes stay identical):

    * long contraction (L >= 32): batched matmul into a small (B, R, C)
      workspace, then a batch sum — avoids transposing the large cols
      operand entirely;
    * short contraction: transpose both operands into contiguous
      workspaces and issue one 2-D GEMM (what einsum does internally).

    Both differ from einsum only in summation association (~1 ulp),
    which the program-level verify pass bounds.  The result and the
    workspaces are scratch: the caller consumes the result within its
    instruction.
    """

    def __init__(self, a_shape, b_shape, ws: _Workspace):
        batch, rows, length = a_shape
        _, cols, _ = b_shape
        self.shape_2d = (rows, batch * length), (cols, batch * length)
        self._out_at = ws.take((rows, cols))
        self.batched = length >= 32
        if self.batched:
            self._prod_at = ws.take((batch, rows, cols))
        else:
            self._a_at = ws.take((rows, batch, length))
            self._b_at = ws.take((cols, batch, length))

    def bind(self, region: np.ndarray) -> None:
        self.out = _view(region, self._out_at)
        if self.batched:
            self.prod = _view(region, self._prod_at)
        else:
            self.a_t = _view(region, self._a_at)
            self.b_t = _view(region, self._b_at)
            self.a_2d = self.a_t.reshape(self.shape_2d[0])
            self.b_2d = self.b_t.reshape(self.shape_2d[1])

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.batched:
            np.matmul(a, b.transpose(0, 2, 1), out=self.prod)
            np.sum(self.prod, axis=0, out=self.out)
            return self.out
        np.copyto(self.a_t, a.transpose(1, 0, 2))
        np.copyto(self.b_t, b.transpose(1, 0, 2))
        return np.matmul(self.a_2d, self.b_2d.T, out=self.out)


class _Conv2dForward:
    """conv2d replay kernel: im2col into scratch + broadcast matmul into
    ``out``."""

    def __init__(self, node: Node, x_shape, w_shape, out_buf, ws: _Workspace):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        self.unfold = _Im2Col(x_shape, w_shape[2], w_shape[3], stride, padding, ws)
        batch = x_shape[0]
        self.out_buf = out_buf
        self.out_mat = out_buf.reshape(batch, w_shape[0], -1)
        self.w_rows = w_shape[0]

    def bind(self, region: np.ndarray) -> None:
        self.unfold.bind(region)

    def __call__(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        cols = self.unfold(x)
        np.matmul(w.reshape(self.w_rows, -1), cols, out=self.out_mat)
        return self.out_buf


class _Taps:
    """Flat geometry of a stride-1 conv2d, x (B,C,H,W) * w (O,C,kh,kw).

    Each channel's zero-padded grid (Hp, Wp) is flattened and followed by
    ``kw - 1`` zeros, ``length`` elements in all.  On an output grid
    ``Wp`` wide, tap ``(u, v)`` of output ``q = i*Wp + j`` reads flat
    element ``q + u*Wp + v``; columns ``j >= ow`` wrap into the next row
    and are never read out.  Arrays of per-tap rows are ``(B, kh*kw*O,
    length)``, taps major, ``O`` rows each.
    """

    def __init__(self, x_shape, w_shape, padding: int) -> None:
        self.x_shape, self.padding = tuple(x_shape), padding
        self.out_ch, self.in_ch, self.kh, self.kw = w_shape
        height, width = x_shape[2], x_shape[3]
        self.hp, self.wp = height + 2 * padding, width + 2 * padding
        self.oh, self.ow = self.hp - self.kh + 1, self.wp - self.kw + 1
        self.length = self.hp * self.wp + self.kw - 1
        self.offsets = [u * self.wp + v for u in range(self.kh) for v in range(self.kw)]

    def padded(self, ws: _Workspace) -> _Padded:
        """The flat zero-padded input, a workspace of ``ws``."""
        return _Padded(self.x_shape, self.padding, self.kw - 1, ws)

    def interior(self, flat: np.ndarray) -> np.ndarray:
        """The unpadded ``(B, K, H, W)`` grid of a ``(B, K, length)`` array."""
        batch, rows, _ = flat.shape
        grid = flat[:, :, : self.hp * self.wp].reshape(batch, rows, self.hp, self.wp)
        pad, height, width = self.padding, self.x_shape[2], self.x_shape[3]
        return grid[:, :, pad : pad + height, pad : pad + width]

    def windows(self, rows: np.ndarray) -> List[np.ndarray]:
        """Per tap, the ``(B, O, oh, ow)`` view of per-tap ``rows`` at
        its offset: where the forward reads the tap's output terms, and
        where the backward writes the output gradient."""
        batch, out_ch = rows.shape[0], self.out_ch
        taps = rows.reshape(batch, len(self.offsets), out_ch, self.length)
        span = self.oh * self.wp
        views = []
        for t, offset in enumerate(self.offsets):
            window = taps[:, t, :, offset : offset + span]
            # splitting the contiguous last axis: always a view
            views.append(window.reshape(batch, out_ch, self.oh, self.wp)[..., : self.ow])
        return views


class _TapConv2dForward:
    """Stride-1 conv2d with fewer output than input channels, no im2col.

    One GEMM of every tap's weights, stacked ``(kh*kw*O, C)``, against
    the flat zero-padded input (:class:`_Taps`) gives each tap's output
    terms; the output is the sum of the taps' rows, each shifted by its
    flat offset.  The padded input, the stacked weights and the tap rows
    are scratch.
    """

    def __init__(self, node: Node, x_shape, w_shape, out_buf, ws: _Workspace):
        self.taps = taps = _Taps(x_shape, w_shape, node.attrs["padding"])
        self.pad = taps.padded(ws)
        self._w_at = ws.take((taps.kh, taps.kw, taps.out_ch, taps.in_ch))
        self._rows_at = ws.take((x_shape[0], len(taps.offsets) * taps.out_ch, taps.length))
        self.out_buf = out_buf

    def bind(self, region: np.ndarray) -> None:
        taps = self.taps
        self.pad.bind(region)
        self.w_stack = _view(region, self._w_at)
        self.w_mat = self.w_stack.reshape(-1, taps.in_ch)
        self.rows = _view(region, self._rows_at)
        self.first, *self.rest = taps.windows(self.rows)

    def __call__(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        padded = self.pad(x)
        np.copyto(self.w_stack, w.transpose(2, 3, 0, 1))
        np.matmul(self.w_mat, padded, out=self.rows)
        out = self.out_buf
        np.copyto(out, self.first)
        for window in self.rest:
            np.add(out, window, out=out)
        return out


class _TapConv2dBackward:
    """VJP of :class:`_TapConv2dForward`.

    The output gradient is written once per tap at the tap's flat offset
    (:class:`_Taps`): ``rows[b, (u, v, o), m]`` is ``g[b, o, i, j]`` at
    ``m = (i + u)*Wp + j + v`` and zero elsewhere.  Against these rows,
    dW is a :class:`_BatchGemmT` with the input padded again and dx over
    the flat padded input is one GEMM with the stacked weights.  Rows,
    the padded input, the weights and the padded dx are scratch.
    """

    def __init__(self, node: Node, x_shape, w_shape, need_dx: bool, ws: _Workspace):
        self.taps = taps = _Taps(x_shape, w_shape, node.attrs["padding"])
        rows_shape = (x_shape[0], len(taps.offsets) * taps.out_ch, taps.length)
        self._rows_at = ws.take(rows_shape)
        self.pad = taps.padded(ws)
        self.need_dx = need_dx
        if need_dx:
            self._w_at = ws.take((taps.kh, taps.kw, taps.out_ch, taps.in_ch))
            self._dx_at = ws.take((x_shape[0], taps.in_ch, taps.length))
        self.gemm_dw = _BatchGemmT(rows_shape, self.pad.shape, ws)
        self.dw_shape = (taps.kh, taps.kw, taps.out_ch, taps.in_ch)

    def bind(self, region: np.ndarray) -> None:
        taps = self.taps
        self.rows = _view(region, self._rows_at)
        self.windows = taps.windows(self.rows)
        self.pad.bind(region)
        if self.need_dx:
            self.w_stack = _view(region, self._w_at)
            self.w_mat_t = self.w_stack.reshape(-1, taps.in_ch).T
            self.dx_flat = _view(region, self._dx_at)
            self.dx_interior = taps.interior(self.dx_flat)
        self.gemm_dw.bind(region)

    def __call__(self, g, x, w):
        self.rows.fill(0.0)
        for window in self.windows:
            np.copyto(window, g)
        dw = self.gemm_dw(self.rows, self.pad(x))
        dw = dw.reshape(self.dw_shape).transpose(2, 3, 0, 1)
        dx = None
        if self.need_dx:
            np.copyto(self.w_stack, w.transpose(2, 3, 0, 1))
            np.matmul(self.w_mat_t, self.rows, out=self.dx_flat)
            dx = self.dx_interior
        return dx, dw


class _Conv2dBackward:
    """VJP of :class:`_Conv2dForward`: dW against the input unfolded
    again into this instruction's workspace, dx a col2im fold into it.

    The column gradient takes the columns' extent, which dW has read by
    the time it is written; on ``enc_conv2`` (n=32, a 32-row shard) that
    is 4.5 of the 13.5 MiB the largest conv instruction held.
    """

    def __init__(
        self, node: Node, x_shape, w_shape, need_dx, ws: _Workspace, index_for: Callable,
    ):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        self.unfold = unfold = _Im2Col(x_shape, w_shape[2], w_shape[3], stride, padding, ws)
        self.w_shape = w_shape
        self.need_dx = need_dx
        batch = x_shape[0]
        self.g_shape = (batch, w_shape[0], unfold.oh * unfold.ow)
        self.gemm_dw = _BatchGemmT(self.g_shape, unfold.mat_shape, ws)
        if need_dx:
            cols_shape = (batch, x_shape[1], w_shape[2], w_shape[3], unfold.oh, unfold.ow)
            self._dx_at = ws.take(x_shape)
            padded_hw = (x_shape[2] + 2 * padding, x_shape[3] + 2 * padding)
            self.fold = _Col2Im(
                index_for(cols_shape, padded_hw, stride), (x_shape[1],) + padded_hw, padding
            )

    def bind(self, region: np.ndarray) -> None:
        self.unfold.bind(region)
        self.gemm_dw.bind(region)
        if self.need_dx:
            self.dx = _view(region, self._dx_at)
            self.fold.bind(self.unfold.cols, self.dx)

    def __call__(self, g, x, w):
        g_mat = g.reshape(self.g_shape)
        dw = self.gemm_dw(g_mat, self.unfold(x)).reshape(self.w_shape)
        dx = None
        if self.need_dx:
            dcols = self.unfold.cols_mat
            np.matmul(w.reshape(self.w_shape[0], -1).T, g_mat, out=dcols)
            self.fold()
            dx = self.dx
        return dx, dw


class _ConvT2dForward:
    """conv_transpose2d replay kernel: matmul into scratch columns, then
    a col2im fold into ``out``."""

    def __init__(self, node: Node, x_shape, w_shape, out_buf, ws: _Workspace, index_for):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        batch, in_ch, height, width = x_shape
        _, out_ch, kh, kw = w_shape
        self.x_mat_shape = (batch, in_ch, height * width)
        cols_shape = (batch, out_ch, kh, kw, height, width)
        self._cols_at = ws.take(cols_shape)
        self.cols_mat_shape = (batch, out_ch * kh * kw, height * width)
        padded_hw = (out_buf.shape[2] + 2 * padding, out_buf.shape[3] + 2 * padding)
        self.fold = _Col2Im(
            index_for(cols_shape, padded_hw, stride), (out_ch,) + padded_hw, padding
        )
        self.out_buf = out_buf
        self.in_ch = in_ch

    def bind(self, region: np.ndarray) -> None:
        cols = _view(region, self._cols_at)
        self.cols_mat = cols.reshape(self.cols_mat_shape)
        self.fold.bind(cols, self.out_buf)

    def __call__(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x_mat = x.reshape(self.x_mat_shape)
        np.matmul(w.reshape(self.in_ch, -1).T, x_mat, out=self.cols_mat)
        self.fold()
        return self.out_buf


class _ConvT2dBackward:
    """conv_transpose2d VJP: unfold the output gradient, two matmuls."""

    def __init__(self, node: Node, x_shape, w_shape, g_shape, need_dx, ws: _Workspace):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        batch, in_ch, height, width = x_shape
        _, out_ch, kh, kw = w_shape
        self.unfold = _Im2Col(g_shape, kh, kw, stride, padding, ws)
        self.x_shape, self.w_shape = x_shape, w_shape
        gcols_mat_shape = (batch, out_ch * kh * kw, height * width)
        # When the unfold covers the input grid exactly its patches are
        # the gradient columns, with no per-step copy.
        self.exact = (self.unfold.oh, self.unfold.ow) == (height, width)
        if not self.exact:
            self._gcols_at = ws.take((batch, out_ch, kh, kw, height, width))
        self.gcols_mat_shape = gcols_mat_shape
        self.in_ch = in_ch
        self.x_mat_shape = (batch, in_ch, height * width)
        self.gemm_dw = _BatchGemmT(self.x_mat_shape, gcols_mat_shape, ws)
        self.need_dx = need_dx
        if need_dx:
            self._dx_at = ws.take(self.x_mat_shape)

    def bind(self, region: np.ndarray) -> None:
        self.unfold.bind(region)
        if self.exact:
            self.gcols_mat = self.unfold.cols_mat
        else:
            height, width = self.x_shape[2], self.x_shape[3]
            self.gcols = _view(region, self._gcols_at)
            self.gcols_mat = self.gcols.reshape(self.gcols_mat_shape)
            self.gcols_src = self.unfold.cols[:, :, :, :, :height, :width]
        self.gemm_dw.bind(region)
        if self.need_dx:
            self.dx = _view(region, self._dx_at)

    def __call__(self, g, x, w):
        self.unfold(g)
        if not self.exact:
            np.copyto(self.gcols, self.gcols_src)
        x_mat = x.reshape(self.x_mat_shape)
        dw = self.gemm_dw(x_mat, self.gcols_mat).reshape(self.w_shape)
        dx = None
        if self.need_dx:
            np.matmul(w.reshape(self.in_ch, -1), self.gcols_mat, out=self.dx)
            dx = self.dx.reshape(self.x_shape)
        return dx, dw


# ----------------------------------------------------------------------
# The compiled program
# ----------------------------------------------------------------------
class GraphProgram:
    """One traced step, scheduled onto preallocated storage.

    Built from a :class:`~repro.nn.graph.Trace` plus the ids of the loss
    node and the named output nodes; ``params`` are bound by the
    positions the trace recorded.  ``run(inputs)`` executes the
    forward schedule, then the backward schedule (parameter gradients
    land in the program's own buffers, :meth:`param_grads`), and returns
    the output arrays.
    The caller owns gradient clipping and the optimizer step.  ``tables``
    holds the col2im index tables the live programs of one step share (a
    fresh dict when omitted).
    """

    def __init__(
        self,
        trace: Trace,
        outputs: Dict[str, int],
        loss_id: int,
        params: Sequence[Tensor],
        stats: Optional[CompileStats] = None,
        tables: Optional[Dict] = None,
    ) -> None:
        self.stats = stats if stats is not None else CompileStats()
        self._trace = trace
        self._outputs = dict(outputs)
        self._loss_id = loss_id
        self._params = list(params)
        nodes = trace.nodes
        if any(n.dtype != np.float64 for n in nodes):
            raise CompileUnsupported("compiled training supports float64 graphs only")

        # -- 1. prune to ancestors of the outputs ----------------------
        keep = set()
        stack = list(self._outputs.values())
        while stack:
            nid = stack.pop()
            if nid in keep:
                continue
            keep.add(nid)
            stack.extend(nodes[nid].parents)
        self._keep = keep
        sched = [n.id for n in nodes if n.id in keep and n.kind == "op"]
        pos = {nid: i for i, nid in enumerate(sched)}

        # -- 2. backward schedule: replicate the eager DFS exactly -----
        order: List[int] = []
        visited = set()
        dfs: List[Tuple[int, bool]] = [(loss_id, False)]
        while dfs:
            nid, processed = dfs.pop()
            if processed:
                order.append(nid)
                continue
            if nid in visited:
                continue
            visited.add(nid)
            dfs.append((nid, True))
            node = nodes[nid]
            if node.kind == "op" and node.requires_grad:
                for parent in node.parents:
                    if parent not in visited:
                        dfs.append((parent, False))
        received = {loss_id}
        grad_sched: List[int] = []
        for nid in reversed(order):
            if nid not in received:
                continue
            node = nodes[nid]
            if node.kind == "op" and node.requires_grad:
                grad_sched.append(nid)
                for parent in node.parents:
                    if nodes[parent].requires_grad:
                        received.add(parent)
        self._grad_sched = grad_sched

        # -- 3. which values does the backward pass read? --------------
        needed_val = set(self._outputs.values())
        for nid in grad_sched:
            node = nodes[nid]
            op = OPS[node.op]
            if op.needs_out:
                needed_val.add(nid)
            if op.needs_inputs:
                needed_val.update(node.parents)

        # -- 4. alias roots (views share their base's storage) ---------
        root: Dict[int, int] = {}
        for nid in sorted(keep):
            node = nodes[nid]
            if node.kind == "op" and OPS[node.op].view:
                root[nid] = root[node.parents[0]]
            else:
                root[nid] = nid
        last_use: Dict[int, int] = {}
        for nid in sched:
            last_use[root[nid]] = max(last_use.get(root[nid], -1), pos[nid])
            for parent in nodes[nid].parents:
                last_use[root[parent]] = max(last_use.get(root[parent], -1), pos[nid])
        pinned_roots = {root[nid] for nid in needed_val}

        # -- 5. storage: dedicated / arena -----------------------------
        buffers: Dict[int, np.ndarray] = {}
        values = _Arena()
        value_bytes = 0
        for nid in sched:
            node = nodes[nid]
            if OPS[node.op].view or root[nid] != nid:
                continue
            if nid in pinned_roots:
                buffers[nid] = _storage(node.shape)
                value_bytes += buffers[nid].nbytes
                self.stats.buffers += 1
                continue
            buffers[nid] = values.take(node.shape, pos[nid], last_use[root[nid]] + 1)
        self.stats.arena_slots += values.slots
        self.stats.arena_reused += values.reused
        self.stats.value_bytes += value_bytes + values.nbytes
        self.stats.nodes += len(sched)

        # -- 6. forward instructions -----------------------------------
        self._storage: List[Optional[np.ndarray]] = [None] * len(nodes)
        self._input_binds: List[Tuple[int, int]] = []  # (node id, input position)
        self._param_binds: List[Tuple[int, Tensor]] = []
        for nid, position in trace.input_nodes.items():
            if nid in keep:
                self._input_binds.append((nid, position))
        for nid, position in trace.param_nodes.items():
            if nid in keep:
                self._param_binds.append((nid, self._params[position]))
        for nid, value in trace.constants.items():
            if nid in keep:
                self._storage[nid] = value

        self._forward: List[Callable] = []
        self._bwd_kernels: Dict[int, Callable] = {}
        #: conv kernels by instruction label, each with its workspace
        self._conv_kernels: Dict[str, Tuple[object, _Workspace]] = {}
        self._col2im_index = partial(
            _col2im_index, tables if tables is not None else {}, self.stats
        )
        for nid in sched:
            node = nodes[nid]
            op = OPS[node.op]
            instr = self._build_forward_instr(node, op, buffers.get(nid))
            self._forward.append(instr)

        # -- 7. backward instructions ----------------------------------
        # The loss seed and leaf (parameter) gradients are dedicated;
        # every other gradient takes an arena slot for its backward live
        # range: from the first consumer instruction that writes it to
        # its own backward instruction, the last that reads it.
        grads: Dict[int, np.ndarray] = {}
        for nid in received:
            if nid == loss_id:
                grads[nid] = _storage(nodes[nid].shape)
                grads[nid].fill(1.0)
            elif nodes[nid].kind != "op":
                grads[nid] = _storage(nodes[nid].shape)
        grad_bytes = sum(buf.nbytes for buf in grads.values())
        grad_slots = _Arena()
        grad_pos = {nid: i for i, nid in enumerate(grad_sched)}
        self._grads = grads
        self._param_grad_binds = [
            (self._params[position], grads[nid])
            for nid, position in trace.param_nodes.items()
            if nid in received
        ]
        first_write = set(received) - {loss_id}
        self._backward: List[Callable] = []
        for index, nid in enumerate(grad_sched):
            node = nodes[nid]
            sites = []
            for slot, parent in enumerate(node.parents):
                if parent not in received:
                    continue
                first = parent in first_write
                if first and parent not in grads:
                    grads[parent] = grad_slots.take(
                        nodes[parent].shape, index, grad_pos[parent] + 1
                    )
                sites.append((slot, parent, first, nodes[parent].shape))
                first_write.discard(parent)
            self._backward.append(self._build_backward_instr(node, sites))
        self.stats.grad_bytes += grad_bytes + grad_slots.nbytes

        # -- 8. the scratch region -------------------------------------
        # One per program, sized to the largest conv instruction's
        # workspace; every conv kernel views its workspace from offset 0.
        scratch = max((ws.size for _, ws in self._conv_kernels.values()), default=0)
        self._scratch = _storage((scratch,)) if scratch else None
        for kernel, _ in self._conv_kernels.values():
            kernel.bind(self._scratch)
        self.stats.scratch_bytes += scratch * 8

        # Retain the scheduling/storage decisions as plain data so the
        # IR verifier (repro.nn.verify) can prove them sound without
        # reverse-engineering the replay closures.
        self.plan = ProgramPlan(
            sched=list(sched),
            grad_sched=list(grad_sched),
            kinds={nid: nodes[nid].kind for nid in keep},
            ops={
                nid: nodes[nid].op
                for nid in keep
                if nodes[nid].kind == "op"
            },
            parents={nid: tuple(nodes[nid].parents) for nid in keep},
            shapes={nid: nodes[nid].shape for nid in keep},
            requires_grad={nid: nodes[nid].requires_grad for nid in keep},
            view={
                nid: bool(OPS[nodes[nid].op].view)
                for nid in keep
                if nodes[nid].kind == "op"
            },
            root=dict(root),
            buffer_token={nid: _storage_token(buf) for nid, buf in buffers.items()},
            grad_token={nid: _storage_token(buf) for nid, buf in grads.items()},
            scratch_token=(
                None if self._scratch is None else _storage_token(self._scratch)
            ),
            scratch_extents={
                label: list(ws.extents)
                for label, (_, ws) in self._conv_kernels.items()
            },
            pinned_roots=set(pinned_roots),
            needed_val=set(needed_val),
            outputs=dict(self._outputs),
            loss_id=loss_id,
        )

        # -- 9. optional per-kernel profiling (REPRO_PROFILE=1) --------
        # Cumulative replay seconds per op label.
        self.kernel_seconds: Dict[str, float] = {}
        if profile_enabled():
            totals = self.kernel_seconds
            self._forward = [
                _profiled(instr, "fwd:" + nodes[nid].op, totals)
                for instr, nid in zip(self._forward, sched)
            ]
            self._backward = [
                _profiled(instr, "bwd:" + nodes[nid].op, totals)
                for instr, nid in zip(self._backward, grad_sched)
            ]

    # ------------------------------------------------------------------
    def _build_forward_instr(
        self, node: Node, op, buf: Optional[np.ndarray]
    ) -> Callable:
        storage = self._storage
        parents = node.parents
        attrs = node.attrs
        nid = node.id
        if op.view or buf is None:
            forward = op.forward

            def run_view() -> None:
                storage[nid] = forward(
                    tuple(storage[p] for p in parents), attrs
                )

            return run_view
        storage[nid] = buf
        fast = self._build_fast_kernel(node, buf)
        if fast is not None:
            self.stats.fast_kernels += 1
            px, pw = parents

            def run_fast() -> None:
                fast(storage[px], storage[pw])

            return run_fast
        if op.kernel is not None:
            kernel = op.kernel

            def run_kernel() -> None:
                kernel(tuple(storage[p] for p in parents), attrs, buf)

            return run_kernel
        forward = op.forward

        def run_copy() -> None:
            np.copyto(buf, forward(tuple(storage[p] for p in parents), attrs))

        return run_copy

    def _build_fast_kernel(self, node: Node, buf: np.ndarray) -> Optional[Callable]:
        """Specialized conv kernels (and their VJPs) on scratch workspaces."""
        if node.op not in ("conv2d", "conv_transpose2d"):
            return None
        nodes = self._trace.nodes
        x_shape = nodes[node.parents[0]].shape
        w_shape = nodes[node.parents[1]].shape
        need_dx = nodes[node.parents[0]].requires_grad
        fwd_ws, bwd_ws = _Workspace(), _Workspace()
        backward = None
        if node.op == "conv2d" and node.attrs["stride"] == 1 and w_shape[0] < w_shape[1]:
            # Only narrowing convs: the tap rows are kh*kw*O per input
            # channel where the columns are kh*kw.  On the widening
            # enc_conv1 (1->8, n=32, one 32-row shard) the tap kernel took
            # 10.4 vs 0.4 ms forward, 4.4 vs 0.25 ms backward, and 20 vs
            # 0.3 MiB of scratch.
            forward = _TapConv2dForward(node, x_shape, w_shape, buf, fwd_ws)
            if node.id in self._grad_sched:
                backward = _TapConv2dBackward(node, x_shape, w_shape, need_dx, bwd_ws)
        elif node.op == "conv2d":
            forward = _Conv2dForward(node, x_shape, w_shape, buf, fwd_ws)
            if node.id in self._grad_sched:
                backward = _Conv2dBackward(
                    node, x_shape, w_shape, need_dx, bwd_ws, self._col2im_index
                )
        else:
            forward = _ConvT2dForward(
                node, x_shape, w_shape, buf, fwd_ws, self._col2im_index
            )
            if node.id in self._grad_sched:
                backward = _ConvT2dBackward(
                    node, x_shape, w_shape, node.shape, need_dx, bwd_ws
                )
        self._conv_kernels[f"fwd:{node.id}"] = (forward, fwd_ws)
        if backward is not None:
            self._bwd_kernels[node.id] = backward
            self._conv_kernels[f"bwd:{node.id}"] = (backward, bwd_ws)
        return forward

    def _build_backward_instr(self, node: Node, sites) -> Callable:
        storage = self._storage
        grads = self._grads
        nid = node.id
        parents = node.parents
        attrs = node.attrs
        fast = self._bwd_kernels.get(nid)
        if fast is not None:
            px, pw = parents

            def run_fast_bwd() -> None:
                dx, dw = fast(grads[nid], storage[px], storage[pw])
                for slot, parent, first, pshape in sites:
                    pg = dx if slot == 0 else dw
                    if first:
                        np.copyto(grads[parent], pg)
                    else:
                        grads[parent] += pg

            return run_fast_bwd
        op = OPS[node.op]
        vjp = op.vjp
        needed = tuple(
            self._trace.nodes[p].requires_grad for p in parents
        )

        def run_bwd() -> None:
            vjps = vjp(
                grads[nid],
                storage[nid],
                tuple(storage[p] for p in parents),
                attrs,
                needed,
            )
            for slot, parent, first, pshape in sites:
                pg = vjps[slot]
                if pg.shape != pshape:
                    pg = _unbroadcast(np.asarray(pg), pshape)
                if first:
                    np.copyto(grads[parent], pg)
                else:
                    grads[parent] += pg

        return run_bwd

    # ------------------------------------------------------------------
    def run(self, inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        """One forward+backward replay; returns the output arrays.

        Parameter gradients land in the program's own buffers
        (:meth:`param_grads`), never in ``Tensor.grad``: programs of one
        step may replay on different threads at once, and the step
        decides what the parameters see.
        """
        storage = self._storage
        for nid, position in self._input_binds:
            storage[nid] = inputs[position]
        for nid, tensor in self._param_binds:
            storage[nid] = tensor.data
        for instr in self._forward:
            instr()
        for instr in self._backward:
            instr()
        return {name: storage[nid] for name, nid in self._outputs.items()}

    def param_grads(self) -> List[Tuple[Tensor, np.ndarray]]:
        """``(parameter, gradient buffer)`` for every parameter the loss
        reaches; each buffer holds the last replay's gradient."""
        return list(self._param_grad_binds)

    def verify(self, inputs: Sequence[np.ndarray], traced: Dict[str, Tensor]) -> None:
        """Enforce the equivalence contract against the eager engine.

        Runs the program on the traced arrays and compares every output
        and every parameter gradient against an eager forward/backward
        of the same step.  Bitwise equality is expected; anything beyond
        1e-12 relative is a compiler bug and rejects the program.
        """
        got = self.run(inputs)
        for name, tensor in traced.items():
            if not np.allclose(got[name], tensor.data, rtol=1e-12, atol=1e-14):
                raise CompileUnsupported(
                    f"compiled output {name!r} diverges from eager"
                )
        for p in self._params:
            p.grad = None
        traced["loss"].backward()
        for tensor, grad_buf in self._param_grad_binds:
            eager = tensor.grad
            if eager is None or not np.allclose(
                eager, grad_buf, rtol=1e-12, atol=1e-14
            ):
                raise CompileUnsupported(
                    "compiled parameter gradient diverges from eager"
                )
        for p in self._params:
            p.grad = None


# ----------------------------------------------------------------------
# The compiled train step
# ----------------------------------------------------------------------
def shard_slices(batch: int, shards: int) -> List[slice]:
    """Row slices splitting ``batch`` rows into ``shards`` contiguous
    shards, the first ``batch % shards`` one row larger (7 -> 4 + 3).

    Never returns an empty shard: a batch smaller than ``shards`` splits
    into one-row shards.
    """
    shards = max(1, min(int(shards), int(batch)))
    base, extra = divmod(int(batch), shards)
    slices, start = [], 0
    for index in range(shards):
        stop = start + base + (index < extra)
        slices.append(slice(start, stop))
        start = stop
    return slices


class ShardMean:
    """The full-batch mean ``(n0*v0 + n1*v1 + ...) / n`` of per-shard
    means, folded shard by shard in shard order.

    The compiled step and its eager reference (``tests/helpers.py``)
    both combine through this class, so they evaluate the same float
    expressions.  ``values`` are floats or float64 arrays; :meth:`add`
    copies them into sums it owns (so a program may overwrite its
    buffers for the next shard), and :meth:`mean` divides those sums in
    place and returns them, ready for the next step's :meth:`add` calls
    to reuse — no steady-state allocations.  Only meant for two or more shards: a one-shard step
    uses its values as they are (``(n*v)/n`` need not round back to
    ``v``).
    """

    def __init__(self) -> None:
        self._sums: List[np.ndarray] = []
        #: one buffer the size of the largest value, for each ``n*v``
        self._scaled = np.empty(0)
        self.rows = 0

    def add(self, values: Sequence, rows: int) -> None:
        if not self._sums:
            self._sums = [np.empty(np.shape(value)) for value in values]
            self._scaled = np.empty(max(total.size for total in self._sums))
        for total, value in zip(self._sums, values):
            if self.rows == 0:
                np.multiply(value, rows, out=total)
            else:
                scaled = self._scaled[: total.size].reshape(total.shape)
                np.multiply(value, rows, out=scaled)
                np.add(total, scaled, out=total)
        self.rows += rows

    def mean(self) -> List[np.ndarray]:
        for total in self._sums:
            np.divide(total, self.rows, out=total)
        self.rows = 0
        return self._sums


#: Verified traces shared by every step in the process, keyed by
#: ``(step key, input signature, parameter shapes)``.
_TRACES: Dict[Tuple, "_KeptTrace"] = {}
_TRACES_LOCK = threading.Lock()


def _trim_heap() -> None:
    """Hand the C allocator's free heap pages back to the OS.

    A first trace and its eager verify free the eager graph's arrays,
    which glibc keeps in its heap under every program built after them;
    ``malloc_trim(0)`` returns them.  A no-op where the C library has no
    ``malloc_trim``.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


class _KeptTrace:
    """One :data:`_TRACES` entry: the lock a key's first trace and eager
    verify hold, then the verified ``(trace, output node ids, loss id)``."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.kept: Optional[Tuple[Trace, Dict[str, int], int]] = None


class CompiledTrainStep:
    """Trace-once, replay-many wrapper around one training step.

    ``step_fn(*input_tensors)`` must return a dict of scalar tensors
    including ``"loss"`` (the objective to differentiate) and must route
    all per-step data through its inputs.  Calling the instance with the
    step's numpy arrays runs forward + backward through the compiled
    program, clips gradients, steps the optimizer, and returns the
    outputs as floats — numerically equivalent to running the same
    ``step_fn`` eagerly followed by ``loss.backward()`` / clip / step.

    **Shards.**  With ``shards > 1`` every input is split along its
    first (batch) axis by :func:`shard_slices`; each shard replays
    forward+backward on its own, and the step combines outputs and
    gradients as :class:`ShardMean` before one clip and one optimizer
    step.  For a batch-mean loss that is the full-batch step up to
    rounding.  The shard count is numerics; cores decide only whether
    the shards overlap.  While :func:`~repro.utils.threads.core_budget`
    is at least the shard count, shard 0 replays on the calling thread
    and each other shard on a lazily created worker thread, each through
    its own program instance, all under ``blas_budget(1)``; otherwise
    the shards replay back to back through the caller's programs.  Both
    placements give bitwise-identical results.  ``shards=1`` (the
    default) replays the whole batch and is bitwise eager on graphs
    without convolutions.

    **Traces and programs.**  ``key`` names what fixes the graph
    ``step_fn`` traces besides the input signature and the parameter
    shapes: steps may share a key only if their ``step_fn`` trace the
    same graph (a fresh ``object()`` shares with no other step).  The
    first step of the process to need a (key, signature, shapes) traces
    it under that entry's lock, and the trace is kept in the table once
    the first program built from it passes the eager verify; every
    other program for it (a worker shard's, another step's, any program
    after :meth:`release`) is built from the kept trace with fresh
    storage, bound to its own step's parameters, and checked by the IR
    verifier only.  Programs are cached per (thread slot, signature) until
    :meth:`release` drops them and returns their storage to the OS.  A
    trace that cannot be compiled raises :class:`CompileUnsupported`
    (or the compiler's own error) out of the call; nothing is kept for
    it.
    """

    def __init__(
        self,
        step_fn: Callable[..., Dict[str, Tensor]],
        params: Sequence[Tensor],
        key: Hashable,
        optimizer: Optional[Optimizer] = None,
        grad_clip: Optional[float] = None,
        shards: int = 1,
    ) -> None:
        self.step_fn = step_fn
        self.params = list(params)
        self.key = key
        self.optimizer = optimizer
        self.grad_clip = grad_clip
        self.shards = max(1, int(shards))
        self.stats = CompileStats()
        #: seconds spent tracing, eager-verifying and building programs
        self.compile_seconds = 0.0
        #: live programs, by (thread slot, signature); slot 0 is the caller
        self._programs: Dict[Tuple[int, Tuple], GraphProgram] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._combined = ShardMean()
        #: col2im index tables, shared by the live programs
        self._tables: Dict[Tuple, np.ndarray] = {}

    def signature(self, arrays: Sequence[np.ndarray]) -> Tuple:
        return tuple((a.shape, a.dtype.str) for a in arrays)

    def kernel_seconds(self) -> Dict[str, float]:
        """Per-kernel replay seconds of the live programs.

        Empty unless the programs were built with ``REPRO_PROFILE=1``
        (see :func:`profile_enabled`); labels are ``fwd:<op>`` /
        ``bwd:<op>`` summed over the programs :meth:`release` has not
        dropped yet.  Shards on worker threads overlap in time, so these
        are thread-seconds and may exceed the wall time.
        """
        totals: Dict[str, float] = {}
        for program in self._programs.values():
            for label, seconds in program.kernel_seconds.items():
                totals[label] = totals.get(label, 0.0) + seconds
        return totals

    def release(self) -> None:
        """Drop every program, the col2im tables, the shard sums and the
        shard worker thread.

        Program storage is unmapped as the last reference goes, so it is
        back with the OS when this returns, and a parameter whose
        ``.grad`` is a program's gradient buffer or a combined shard
        mean gets ``None``.  A later call rebuilds its programs from the
        process's kept traces.
        """
        owned = {id(total) for total in self._combined._sums}
        for program in self._programs.values():
            owned.update(id(grad_buf) for _, grad_buf in program.param_grads())
        for tensor in self.params:
            if id(tensor.grad) in owned:
                tensor.grad = None
        self._programs.clear()
        self._tables.clear()
        self._combined = ShardMean()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __call__(self, *arrays: np.ndarray) -> Dict[str, float]:
        arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
        parts = [arrays]
        if self.shards > 1 and arrays:
            parts = [
                tuple(a[rows] for a in arrays)
                for rows in shard_slices(len(arrays[0]), self.shards)
            ]
        overlap = len(parts) > 1 and core_budget() >= len(parts)
        programs = [
            self._program(index if overlap else 0, part)
            for index, part in enumerate(parts)
        ]
        self.stats.replays += 1

        if len(parts) == 1:
            outputs = programs[0].run(arrays)
            for tensor, grad_buf in programs[0].param_grads():
                tensor.grad = grad_buf
            values = {name: float(value) for name, value in outputs.items()}
        else:
            values = self._run_shards(programs, parts, overlap)
        if self.grad_clip is not None:
            clip_grad_norm(self.params, self.grad_clip)
        if self.optimizer is not None:
            self.optimizer.step()
        return values

    def _run_shards(self, programs, parts, overlap: bool) -> Dict[str, float]:
        """Replay every shard, then point each parameter's ``.grad`` at
        the combined gradient; returns the combined outputs."""
        tensors = [tensor for tensor, _ in programs[0].param_grads()]
        combined = self._combined

        def fold(program: GraphProgram, outputs, rows: int) -> None:
            grads = {id(tensor): buf for tensor, buf in program.param_grads()}
            combined.add(
                list(outputs.values()) + [grads[id(tensor)] for tensor in tensors],
                rows,
            )

        if overlap:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.shards - 1, thread_name_prefix="repro-shard"
                )
            with blas_budget(1):
                pending = [
                    self._pool.submit(program.run, part)
                    for program, part in zip(programs[1:], parts[1:])
                ]
                try:
                    results = [programs[0].run(parts[0])]
                finally:
                    futures_wait(pending)
                results += [future.result() for future in pending]
            for program, outputs, part in zip(programs, results, parts):
                fold(program, outputs, len(part[0]))
        else:
            results = []
            for program, part in zip(programs, parts):
                results.append(program.run(part))
                fold(program, results[-1], len(part[0]))
        means = combined.mean()
        names = list(results[0])
        for tensor, grad in zip(tensors, means[len(names):]):
            tensor.grad = grad
        return {name: float(value) for name, value in zip(names, means)}

    def _program(self, slot: int, arrays: Tuple[np.ndarray, ...]) -> GraphProgram:
        """The live program of ``slot`` for ``arrays``' signature,
        building it on first use."""
        signature = self.signature(arrays)
        program = self._programs.get((slot, signature))
        if program is None:
            start = time.perf_counter()
            program = self._programs[slot, signature] = self._build(signature, arrays)
            self.compile_seconds += time.perf_counter() - start
        return program

    def _build(self, signature: Tuple, arrays: Tuple[np.ndarray, ...]) -> GraphProgram:
        """A program with fresh storage, from the process's kept trace of
        this step's key and ``signature`` or, the first time, from a new
        trace of ``arrays`` that its program must verify against eager
        (under the entry's lock: another thread's step waits for it)."""
        shapes = tuple(p.data.shape for p in self.params)
        with _TRACES_LOCK:
            entry = _TRACES.setdefault((self.key, signature, shapes), _KeptTrace())
        with entry.lock:
            if entry.kept is None:
                kept, traced = self._trace(arrays)
                program = self._checked_program(kept)
                program.verify(arrays, traced)
                kept[0].release()  # drop the tensor pins; builds need only the tables
                del traced  # the eager graph, so the trim returns its heap
                _trim_heap()
                entry.kept = kept
                self.stats.traces += 1
                return program
        return self._checked_program(entry.kept)

    def _checked_program(self, kept: Tuple[Trace, Dict[str, int], int]) -> GraphProgram:
        """A program built from ``kept`` whose plan the IR verifier proves
        sound (build time only; a rejected program stops the step)."""
        trace, node_ids, loss_id = kept
        program = GraphProgram(
            trace, node_ids, loss_id, self.params, stats=self.stats, tables=self._tables
        )
        ir_findings = ir_verify.verify_program(program)
        if ir_findings:
            first = ir_findings[0]
            raise CompileUnsupported(
                f"IR verifier rejected the program: {len(ir_findings)} "
                f"finding(s), first [{first.rule}] {first.message}"
            )
        return program

    def _trace(self, arrays: Tuple[np.ndarray, ...]):
        """Trace ``step_fn`` on ``arrays``: ``((trace, output node ids,
        loss id), the traced output tensors)``."""
        input_tensors = [Tensor(a) for a in arrays]
        with Trace(params=self.params, inputs=input_tensors) as trace:
            outputs = self.step_fn(*input_tensors)
        if not isinstance(outputs, dict) or "loss" not in outputs:
            raise CompileUnsupported("step_fn must return a dict with a 'loss' key")
        for name, tensor in outputs.items():
            if not isinstance(tensor, Tensor) or tensor.data.size != 1:
                raise CompileUnsupported(f"output {name!r} is not a scalar tensor")
        loss = outputs["loss"]
        if not loss.requires_grad:
            raise CompileUnsupported("loss does not require grad")
        node_ids = {
            name: trace.tensor_nodes[id(tensor)] for name, tensor in outputs.items()
        }
        return (trace, node_ids, trace.tensor_nodes[id(loss)]), outputs
