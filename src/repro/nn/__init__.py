"""``repro.nn`` — a from-scratch neural-network framework on numpy.

The CircuitVAE paper builds its model in PyTorch; this subpackage provides
the equivalent substrate offline, and only as much of it as the
reproduction's learners run (the CNN β-VAE with its MLP cost head, and
PrefixRL's CNN DQN): reverse-mode autograd over a registry of 15 ops
(:mod:`repro.nn.tensor`, :mod:`repro.nn.graph`), layers
(:mod:`repro.nn.layers`), Adam (:mod:`repro.nn.optim`), losses
(:mod:`repro.nn.losses`), parameter checkpoints (:mod:`repro.nn.serialize`)
and the traced training-step compiler (:mod:`repro.nn.compile`).
"""

from . import functional, graph, init, losses
from . import compile as compile  # noqa: A001 — torch-style nn.compile namespace
from .compile import (
    CompiledTrainStep,
    CompileStats,
    CompileUnsupported,
    ShardMean,
    shard_slices,
)
from .layers import (
    MLP,
    Conv2d,
    ConvTranspose2d,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from .optim import Adam, Optimizer, clip_grad_norm
from .serialize import load_state, save_state
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "ReLU",
    "Sequential",
    "MLP",
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "save_state",
    "load_state",
    "functional",
    "losses",
    "init",
    "graph",
    "compile",
    "CompiledTrainStep",
    "CompileStats",
    "CompileUnsupported",
    "ShardMean",
    "shard_slices",
]
