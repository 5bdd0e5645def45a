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
* **Liveness-analyzed buffer arena** — every intermediate gets a
  preallocated numpy buffer written with ``out=`` kernels; values not
  needed by any VJP are placed in a shared arena where buffers are
  reused across liveness-disjoint intermediates, and *all* buffers are
  reused across steps (zero allocations in the steady-state forward
  pass).
* **Fast kernels** — convolutions replay through matmul-based kernels
  with persistent im2col workspaces (the batched GEMM numpy's einsum
  performs internally, called directly), and the backward pass reuses
  the forward's unfolded patches instead of re-unfolding.  They match
  the eager conv kernels up to summation order (~1 ulp).
* **Shape-guarded replay** — programs are cached per input-shape
  signature; a new shape triggers a fresh trace, never a wrong replay.
* **Sharded steps** — ``CompiledTrainStep(shards=k)`` splits each batch
  into ``k`` row shards (:func:`shard_slices`), replays forward+backward
  per shard and combines outputs and gradients as the size-weighted
  mean (:class:`ShardMean`) before one clip and one optimizer step.
  The shard count is part of the numerics; the core budget
  (:func:`repro.utils.threads.core_budget`) decides only whether the
  shards overlap — each on its own thread and program instance, under
  ``blas_budget(1)`` — or replay back to back through one program.
  Both placements are bitwise identical, so the records of a run do not
  depend on the machine.  Programs therefore never write ``Tensor.grad``
  themselves; the step points each parameter at its gradient.

**Equivalence contract**: a compiled step must be *numerically
equivalent* to the eager step.  The compiler enforces this mechanically:
at compile time the program runs once on the traced arrays and its
outputs and parameter gradients are compared against the eager engine's
(`verify`); any mismatch raises :class:`CompileUnsupported` and the
caller falls back to eager.  Traces that use closure-based ops
(``Tensor._make``) or mixed dtypes are likewise rejected up front.

The traced function must route **all per-step data through its declared
inputs** — any tensor it creates internally is captured as a trace-time
constant (that is what makes replay cheap, and the verify pass will not
catch a violation that only manifests on later batches).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..utils.threads import blas_budget, core_budget
from . import verify as ir_verify
from .graph import OPS, Node, Trace
from .optim import Optimizer, clip_grad_norm
from .tensor import Tensor, _unbroadcast

__all__ = [
    "CompileUnsupported",
    "CompileStats",
    "GraphProgram",
    "ProgramPlan",
    "CompiledTrainStep",
    "ShardMean",
    "compile_train_step",
    "profile_enabled",
    "shard_slices",
]


def profile_enabled() -> bool:
    """``REPRO_PROFILE=1``: per-kernel replay timings (see GraphProgram).

    Checked once per program *build*, not per replay, so flipping the
    variable mid-run only affects programs compiled afterwards.
    """
    return os.environ.get("REPRO_PROFILE", "0").strip() not in ("", "0")


def _profiled(instr: Callable, label: str, totals: Dict[str, float]) -> Callable:
    """Wrap one replay instruction with a cumulative perf_counter timer."""

    def run_profiled() -> None:
        start = time.perf_counter()
        instr()
        totals[label] = totals.get(label, 0.0) + (time.perf_counter() - start)

    return run_profiled


class CompileUnsupported(RuntimeError):
    """The traced step cannot be compiled (caller should run eager)."""


@dataclass
class CompileStats:
    """Counters one :class:`CompiledTrainStep` accumulates.

    ``traces`` counts compilations: one per new input-shape signature,
    plus one per worker-thread shard program — a two-shard step on an
    even batch compiles once when its shards replay back to back and
    twice when they run on two threads (``nn.train_compiles`` in the
    benchmark's per-layer metrics).  ``replays`` counts steps served by
    cached programs, one per step however many shards it replays
    (``nn.train_replays``); ``fallbacks``
    counts steps that ran eager because compilation was rejected.  The
    rest sum over every program built: scheduled ops (``nodes``),
    dedicated buffers for outputs and backward-needed values
    (``buffers``), arena buffers allocated (``arena_slots``) and arena
    buffers handed to a later intermediate (``arena_reused``), and conv
    replay kernels (``fast_kernels``).  Every counter is cumulative, so
    callers can take deltas of any of them.
    """

    traces: int = 0
    replays: int = 0
    fallbacks: int = 0
    buffers: int = 0
    arena_slots: int = 0
    arena_reused: int = 0
    fast_kernels: int = 0
    nodes: int = 0

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
    alias root to the identity of its backing array, so two roots
    sharing storage share a token.  Tests mutate copies of this to
    inject IR bugs and assert the verifier catches them.
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
            pinned_roots=set(self.pinned_roots),
            needed_val=set(self.needed_val),
            outputs=dict(self.outputs),
            loss_id=self.loss_id,
        )


# ----------------------------------------------------------------------
# Fast convolution kernels (persistent workspaces, matmul-based)
# ----------------------------------------------------------------------
class _Col2Im:
    """Adjoint of im2col as one flat ``bincount`` scatter-add.

    The destination index of every patch element is static, so it is
    precomputed once; each call is a single vectorized scatter-sum —
    2-5x faster than the reference loop of strided adds (whose
    per-``(u, v)`` numpy dispatch dominates at CNN-VAE sizes) and equal
    to it up to summation order.
    """

    def __init__(self, cols6: np.ndarray, padded_shape, stride: int) -> None:
        batch, channels, kh, kw, oh, ow = cols6.shape
        hp, wp = padded_shape[2], padded_shape[3]
        self.shape = (batch, channels, hp, wp)
        self.size = batch * channels * hp * wp
        plane = hp * wp
        per_patch = np.empty((kh, kw, oh, ow), dtype=np.intp)
        for u in range(kh):
            for v in range(kw):
                rows = u + stride * np.arange(oh)
                cols_ = v + stride * np.arange(ow)
                per_patch[u, v] = rows[:, None] * wp + cols_[None, :]
        offsets = (np.arange(batch * channels) * plane)[:, None]
        self.index = (per_patch.reshape(1, -1) + offsets).ravel()
        self.weights = cols6.reshape(-1)  # view of the persistent workspace

    def __call__(self) -> np.ndarray:
        folded = np.bincount(self.index, weights=self.weights, minlength=self.size)
        return folded.reshape(self.shape)


class _Im2Col:
    """Persistent unfold workspace: x (B,C,H,W) -> cols (B, C*kh*kw, L).

    The strided window view into the (persistent) padded buffer is built
    once; each call is one interior copy plus one gather copy.
    """

    def __init__(self, x_shape, kh, kw, stride, padding):
        batch, channels, height, width = x_shape
        self.stride, self.padding = stride, padding
        hp, wp = height + 2 * padding, width + 2 * padding
        self.oh = (hp - kh) // stride + 1
        self.ow = (wp - kw) // stride + 1
        self.pad_buf = np.zeros((batch, channels, hp, wp)) if padding else None
        self.cols = np.empty((batch, channels, kh, kw, self.oh, self.ow))
        self.cols_mat = self.cols.reshape(batch, channels * kh * kw, self.oh * self.ow)
        self.kh, self.kw = kh, kw
        self._window_src = None
        self._windows = None
        self._interior = None
        if padding:
            self._interior = self.pad_buf[:, :, padding:-padding, padding:-padding]
            self._bind_windows(self.pad_buf)

    def _bind_windows(self, xp: np.ndarray) -> None:
        windows = sliding_window_view(xp, (self.kh, self.kw), axis=(2, 3))
        windows = windows[:, :, :: self.stride, :: self.stride, :, :]
        self._windows = windows.transpose(0, 1, 4, 5, 2, 3)
        self._window_src = xp

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.padding:
            np.copyto(self._interior, x)
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
    which the program-level verify pass bounds.
    """

    def __init__(self, a_shape, b_shape):
        batch, rows, length = a_shape
        _, cols, _ = b_shape
        self.out = np.empty((rows, cols))
        self.batched = length >= 32
        if self.batched:
            self.prod = np.empty((batch, rows, cols))
        else:
            self.a_t = np.empty((rows, batch, length))
            self.a_2d = self.a_t.reshape(rows, batch * length)
            self.b_t = np.empty((cols, batch, length))
            self.b_2d = self.b_t.reshape(cols, batch * length)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.batched:
            np.matmul(a, b.transpose(0, 2, 1), out=self.prod)
            np.sum(self.prod, axis=0, out=self.out)
            return self.out
        np.copyto(self.a_t, a.transpose(1, 0, 2))
        np.copyto(self.b_t, b.transpose(1, 0, 2))
        return np.matmul(self.a_2d, self.b_2d.T, out=self.out)


class _Conv2dForward:
    """conv2d replay kernel: im2col once + broadcast matmul into ``out``."""

    def __init__(self, node: Node, x_shape, w_shape, out_buf):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        self.unfold = _Im2Col(x_shape, w_shape[2], w_shape[3], stride, padding)
        batch = x_shape[0]
        self.out_buf = out_buf
        self.out_mat = out_buf.reshape(batch, w_shape[0], -1)
        self.w_rows = w_shape[0]

    def __call__(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        cols = self.unfold(x)
        np.matmul(w.reshape(self.w_rows, -1), cols, out=self.out_mat)
        return self.out_buf


class _Conv2dBackward:
    """conv2d VJP reusing the forward's unfolded patches."""

    def __init__(self, forward: _Conv2dForward, node: Node, x_shape, w_shape, need_dx):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        self.forward = forward
        self.w_shape = w_shape
        self.x_shape = x_shape
        self.need_dx = need_dx
        batch = x_shape[0]
        length = forward.unfold.oh * forward.unfold.ow
        g_shape = (batch, w_shape[0], length)
        self.g_shape = g_shape
        self.gemm_dw = _BatchGemmT(g_shape, forward.unfold.cols_mat.shape)
        # The flip-kernel correlation needs a non-negative flipped
        # padding (kh - 1 - padding); otherwise fall back to col2im.
        self.dx_as_conv = need_dx and stride == 1 and w_shape[2] - 1 - padding >= 0
        if self.dx_as_conv:
            # Stride-1 dx is a correlation of g with the spatially
            # flipped, channel-swapped kernel: unfold the (small) output
            # gradient once and issue one matmul — no scatter-add at
            # all.  (Verified ~1 ulp from the reference col2im path.)
            kh, kw = w_shape[2], w_shape[3]
            g_shape4 = (batch, w_shape[0], forward.unfold.oh, forward.unfold.ow)
            self.dx_unfold = _Im2Col(g_shape4, kh, kw, 1, kh - 1 - padding)
            self.w_flip = np.empty((x_shape[1], w_shape[0] * kh * kw))
            self.w_flip_4d = self.w_flip.reshape(
                x_shape[1], w_shape[0], kh, kw
            )
            self.dx_buf = np.empty((batch, x_shape[1], x_shape[2] * x_shape[3]))
        elif need_dx:
            self.pad = padding
            self.dcols = np.empty_like(forward.unfold.cols)
            self.dcols_mat = self.dcols.reshape(forward.unfold.cols_mat.shape)
            pad_shape = (
                batch,
                x_shape[1],
                x_shape[2] + 2 * padding,
                x_shape[3] + 2 * padding,
            )
            self.fold = _Col2Im(self.dcols, pad_shape, stride)

    def __call__(self, g, x, w):
        g_mat = g.reshape(self.g_shape)
        dw = self.gemm_dw(g_mat, self.forward.unfold.cols_mat).reshape(self.w_shape)
        dx = None
        if self.dx_as_conv:
            gcols = self.dx_unfold(g)
            np.copyto(self.w_flip_4d, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            np.matmul(self.w_flip, gcols, out=self.dx_buf)
            dx = self.dx_buf.reshape(self.x_shape)
        elif self.need_dx:
            np.matmul(w.reshape(self.w_shape[0], -1).T, g_mat, out=self.dcols_mat)
            folded = self.fold()
            pad = self.pad
            dx = folded[:, :, pad:-pad, pad:-pad] if pad else folded
        return dx, dw


class _ConvT2dForward:
    """conv_transpose2d replay kernel: matmul + persistent col2im."""

    def __init__(self, node: Node, x_shape, w_shape, out_buf):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        batch, in_ch, height, width = x_shape
        _, out_ch, kh, kw = w_shape
        self.stride, self.padding = stride, padding
        self.x_mat_shape = (batch, in_ch, height * width)
        self.cols = np.empty((batch, out_ch, kh, kw, height, width))
        self.cols_mat = self.cols.reshape(batch, out_ch * kh * kw, height * width)
        out_h, out_w = out_buf.shape[2], out_buf.shape[3]
        pad_shape = (batch, out_ch, out_h + 2 * padding, out_w + 2 * padding)
        self.fold = _Col2Im(self.cols, pad_shape, stride)
        self.out_buf = out_buf
        self.in_ch = in_ch

    def __call__(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x_mat = x.reshape(self.x_mat_shape)
        np.matmul(w.reshape(self.in_ch, -1).T, x_mat, out=self.cols_mat)
        folded = self.fold()
        pad = self.padding
        interior = folded[:, :, pad:-pad, pad:-pad] if pad else folded
        np.copyto(self.out_buf, interior)
        return self.out_buf


class _ConvT2dBackward:
    """conv_transpose2d VJP: unfold the output gradient, two matmuls."""

    def __init__(self, node: Node, x_shape, w_shape, g_shape, need_dx):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        batch, in_ch, height, width = x_shape
        _, out_ch, kh, kw = w_shape
        self.unfold = _Im2Col(g_shape, kh, kw, stride, padding)
        self.x_shape, self.w_shape = x_shape, w_shape
        if (self.unfold.oh, self.unfold.ow) == (height, width):
            # The unfold covers the input grid exactly: its patches are
            # the gradient columns, no per-step copy.
            self.gcols_src = None
            self.gcols_mat = self.unfold.cols_mat
        else:
            self.gcols = np.empty((batch, out_ch, kh, kw, height, width))
            self.gcols_mat = self.gcols.reshape(
                batch, out_ch * kh * kw, height * width
            )
            self.gcols_src = self.unfold.cols[:, :, :, :, :height, :width]
        self.in_ch = in_ch
        self.x_mat_shape = (batch, in_ch, height * width)
        self.gemm_dw = _BatchGemmT(self.x_mat_shape, self.gcols_mat.shape)
        self.need_dx = need_dx
        if need_dx:
            self.dx = np.empty(self.x_mat_shape)

    def __call__(self, g, x, w):
        self.unfold(g)
        if self.gcols_src is not None:
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
    node and the named output nodes.  ``run(inputs)`` executes the
    forward schedule, then the backward schedule (accumulating into the
    bound parameters' ``.grad`` buffers), and returns the output arrays.
    The caller owns gradient clipping and the optimizer step.
    """

    def __init__(
        self,
        trace: Trace,
        outputs: Dict[str, int],
        loss_id: int,
        params: Sequence[Tensor],
        stats: Optional[CompileStats] = None,
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
        # The registry metadata, with one refinement: the conv2d VJP
        # reuses the forward's unfolded patches, so only the weight — a
        # param leaf — is read, and the large input activation can go
        # to the arena.
        needed_val = set(self._outputs.values())
        for nid in grad_sched:
            node = nodes[nid]
            op = OPS[node.op]
            if node.op == "conv2d":
                needed_val.add(node.parents[1])
                continue
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
        free_slots: Dict[Tuple[Tuple[int, ...], str], List[Tuple[int, np.ndarray]]] = {}
        for nid in sched:
            node = nodes[nid]
            if OPS[node.op].view or root[nid] != nid:
                continue
            if nid in pinned_roots:
                buffers[nid] = np.empty(node.shape)
                self.stats.buffers += 1
                continue
            key = (node.shape, node.dtype.str)
            pool = free_slots.setdefault(key, [])
            taken = None
            for i, (free_at, buf) in enumerate(pool):
                if free_at <= pos[nid]:
                    taken = pool.pop(i)[1]
                    self.stats.arena_reused += 1
                    break
            if taken is None:
                taken = np.empty(node.shape)
                self.stats.arena_slots += 1
            buffers[nid] = taken
            pool.append((last_use[root[nid]] + 1, taken))
        self.stats.nodes += len(sched)

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
            buffer_token={nid: id(buf) for nid, buf in buffers.items()},
            pinned_roots=set(pinned_roots),
            needed_val=set(needed_val),
            outputs=dict(self._outputs),
            loss_id=loss_id,
        )

        # -- 6. forward instructions -----------------------------------
        self._storage: List[Optional[np.ndarray]] = [None] * len(nodes)
        self._input_binds: List[Tuple[int, int]] = []  # (node id, input position)
        self._param_binds: List[Tuple[int, Tensor]] = []
        for nid, position in trace.input_nodes.items():
            if nid in keep:
                self._input_binds.append((nid, position))
        for nid, tensor in trace.param_nodes.items():
            if nid in keep:
                self._param_binds.append((nid, tensor))
        for nid, value in trace.constants.items():
            if nid in keep:
                self._storage[nid] = value

        self._forward: List[Callable] = []
        self._bwd_kernels: Dict[int, Callable] = {}
        for nid in sched:
            node = nodes[nid]
            op = OPS[node.op]
            instr = self._build_forward_instr(node, op, buffers.get(nid))
            self._forward.append(instr)

        # -- 7. backward instructions ----------------------------------
        grads: Dict[int, np.ndarray] = {}
        for nid in received:
            if nid == loss_id:
                grads[nid] = np.ones(nodes[nid].shape)
            else:
                grads[nid] = np.empty(nodes[nid].shape)
        self._grads = grads
        self._param_grad_binds = [
            (tensor, grads[nid])
            for nid, tensor in trace.param_nodes.items()
            if nid in received
        ]
        first_write = set(received) - {loss_id}
        self._backward: List[Callable] = []
        for nid in grad_sched:
            node = nodes[nid]
            sites = []
            for slot, parent in enumerate(node.parents):
                if parent not in received:
                    continue
                sites.append(
                    (slot, parent, parent in first_write, nodes[parent].shape)
                )
                first_write.discard(parent)
            self._backward.append(self._build_backward_instr(node, sites))

        # -- 8. optional per-kernel profiling (REPRO_PROFILE=1) --------
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
        """Specialized conv kernels (and their VJPs) with workspaces."""
        if node.op not in ("conv2d", "conv_transpose2d"):
            return None
        nodes = self._trace.nodes
        x_shape = nodes[node.parents[0]].shape
        w_shape = nodes[node.parents[1]].shape
        need_dx = nodes[node.parents[0]].requires_grad
        if node.op == "conv2d":
            forward = _Conv2dForward(node, x_shape, w_shape, buf)
            if node.id in set(self._grad_sched):
                self._bwd_kernels[node.id] = _Conv2dBackward(
                    forward, node, x_shape, w_shape, need_dx
                )
        else:
            forward = _ConvT2dForward(node, x_shape, w_shape, buf)
            if node.id in set(self._grad_sched):
                self._bwd_kernels[node.id] = _ConvT2dBackward(
                    node, x_shape, w_shape, node.shape, need_dx
                )
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

    The compiled step and the eager fallback both combine through this
    class, so they evaluate the same float expressions.  ``values`` are
    floats or float64 arrays; :meth:`add` copies them into sums it owns
    (so a program may overwrite its buffers for the next shard), and
    :meth:`mean` divides those sums in place and returns them, ready for
    the next step's :meth:`add` calls to reuse — no steady-state
    allocations.  Only meant for two or more shards: a one-shard step
    uses its values as they are (``(n*v)/n`` need not round back to
    ``v``).
    """

    def __init__(self) -> None:
        self._sums: List[np.ndarray] = []
        self._scaled: List[np.ndarray] = []
        self.rows = 0

    def add(self, values: Sequence, rows: int) -> None:
        if not self._sums:
            self._sums = [np.empty(np.shape(value)) for value in values]
            self._scaled = [np.empty(np.shape(value)) for value in values]
        for total, scaled, value in zip(self._sums, self._scaled, values):
            if self.rows == 0:
                np.multiply(value, rows, out=total)
            else:
                np.multiply(value, rows, out=scaled)
                np.add(total, scaled, out=total)
        self.rows += rows

    def mean(self) -> List[np.ndarray]:
        for total in self._sums:
            np.divide(total, self.rows, out=total)
        self.rows = 0
        return self._sums


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
    its own program instance (compiled through the same trace + verify
    path), all under ``blas_budget(1)``; otherwise the shards replay
    back to back through the caller's programs.  Both placements give
    bitwise-identical results.  ``shards=1`` (the default) replays the
    whole batch and is bitwise eager on graphs without convolutions.

    Programs are cached per input-shape signature (shape-guarded
    replay); if a trace cannot be compiled, :class:`CompileUnsupported`
    propagates and the caller is expected to fall back to eager (and may
    keep calling — the failure is cached so the trace is not retried).
    """

    def __init__(
        self,
        step_fn: Callable[..., Dict[str, Tensor]],
        params: Sequence[Tensor],
        optimizer: Optional[Optimizer] = None,
        grad_clip: Optional[float] = None,
        shards: int = 1,
    ) -> None:
        self.step_fn = step_fn
        self.params = list(params)
        self.optimizer = optimizer
        self.grad_clip = grad_clip
        self.shards = max(1, int(shards))
        self.stats = CompileStats()
        #: the calling thread's programs, by signature
        self._programs: Dict[Tuple, Optional[GraphProgram]] = {}
        #: worker-thread instances, by (shard index, signature)
        self._worker_programs: Dict[Tuple, Optional[GraphProgram]] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._combined = ShardMean()

    def signature(self, arrays: Sequence[np.ndarray]) -> Tuple:
        return tuple((a.shape, a.dtype.str) for a in arrays)

    def kernel_seconds(self) -> Dict[str, float]:
        """Cumulative per-kernel replay seconds across all programs.

        Empty unless the programs were built with ``REPRO_PROFILE=1``
        (see :func:`profile_enabled`); labels are ``fwd:<op>`` /
        ``bwd:<op>`` summed over every shape-specialized program and
        every shard's program.  Shards on worker threads overlap in
        time, so these are thread-seconds and may exceed the wall time.
        """
        totals: Dict[str, float] = {}
        for program in (*self._programs.values(), *self._worker_programs.values()):
            if program is None:
                continue
            for label, seconds in program.kernel_seconds.items():
                totals[label] = totals.get(label, 0.0) + seconds
        return totals

    def __call__(self, *arrays: np.ndarray) -> Dict[str, float]:
        arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
        parts = [arrays]
        if self.shards > 1 and arrays:
            parts = [
                tuple(a[rows] for a in arrays)
                for rows in shard_slices(len(arrays[0]), self.shards)
            ]
        overlap = len(parts) > 1 and core_budget() >= len(parts)
        programs = []
        for index, part in enumerate(parts):
            key = self.signature(part)
            if overlap and index > 0:
                programs.append(self._program(self._worker_programs, (index, key), part))
            else:
                programs.append(self._program(self._programs, key, part))
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

    def _program(self, cache: Dict, key: Tuple, arrays) -> GraphProgram:
        """The cached program for ``key``, compiling it on first use."""
        if key not in cache:
            try:
                cache[key] = self._compile(arrays)
            except CompileUnsupported:
                cache[key] = None
                self.stats.fallbacks += 1
                raise
            except Exception as error:
                # Anything unexpected during trace/build/verify must not
                # take training down — the eager tape is always correct.
                cache[key] = None
                self.stats.fallbacks += 1
                raise CompileUnsupported(
                    f"compiler error ({type(error).__name__}: {error}); "
                    "falling back to eager"
                ) from error
        program = cache[key]
        if program is None:
            self.stats.fallbacks += 1
            raise CompileUnsupported("trace previously rejected for this signature")
        return program

    def _compile(self, arrays: Tuple[np.ndarray, ...]) -> GraphProgram:
        input_tensors = [Tensor(a) for a in arrays]
        with Trace(params=self.params, inputs=input_tensors) as trace:
            outputs = self.step_fn(*input_tensors)
        if not isinstance(outputs, dict) or "loss" not in outputs:
            raise CompileUnsupported("step_fn must return a dict with a 'loss' key")
        if trace.unsupported:
            raise CompileUnsupported(
                f"trace used non-IR ops: {trace.unsupported[:3]}"
            )
        for name, tensor in outputs.items():
            if not isinstance(tensor, Tensor) or tensor.data.size != 1:
                raise CompileUnsupported(f"output {name!r} is not a scalar tensor")
        loss = outputs["loss"]
        if not loss.requires_grad:
            raise CompileUnsupported("loss does not require grad")
        node_ids = {
            name: trace.tensor_nodes[id(tensor)] for name, tensor in outputs.items()
        }
        program = GraphProgram(
            trace,
            node_ids,
            trace.tensor_nodes[id(loss)],
            self.params,
            stats=self.stats,
        )
        program.verify(arrays, outputs)
        # Static pass: prove the plan sound before caching it for replay
        # (compile time only; a rejected program falls back to eager).
        ir_findings = ir_verify.verify_program(program)
        if ir_findings:
            first = ir_findings[0]
            raise CompileUnsupported(
                f"IR verifier rejected the program: {len(ir_findings)} "
                f"finding(s), first [{first.rule}] {first.message}"
            )
        trace.release()  # drop the tensor pins; run() needs only the tables
        self.stats.traces += 1
        return program


def compile_train_step(
    step_fn: Callable[..., Dict[str, Tensor]],
    params: Sequence[Tensor],
    optimizer: Optional[Optimizer] = None,
    grad_clip: Optional[float] = None,
    shards: int = 1,
) -> CompiledTrainStep:
    """Build a :class:`CompiledTrainStep` (convenience constructor)."""
    return CompiledTrainStep(
        step_fn, params, optimizer=optimizer, grad_clip=grad_clip, shards=shards
    )
