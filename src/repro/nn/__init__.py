"""``repro.nn`` — a from-scratch neural-network framework on numpy.

The CircuitVAE paper builds its model in PyTorch; this subpackage provides
the equivalent substrate offline: reverse-mode autograd
(:mod:`repro.nn.tensor`), layers (:mod:`repro.nn.layers`), optimizers
(:mod:`repro.nn.optim`), losses (:mod:`repro.nn.losses`) and serialization
(:mod:`repro.nn.serialize`).
"""

from . import functional, graph, init, losses
from . import compile as compile  # noqa: A001 — torch-style nn.compile namespace
from .compile import (
    CompiledTrainStep,
    CompileStats,
    CompileUnsupported,
    ShardMean,
    compile_train_step,
    shard_slices,
)
from .layers import (
    MLP,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Flatten,
    LayerNorm,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .optim import Adam, CosineSchedule, Optimizer, SGD, StepSchedule, clip_grad_norm
from .serialize import load_module, load_state, save_module, save_state
from .tensor import Tensor, concatenate, is_grad_enabled, no_grad, ones, randn, stack, tensor, where, zeros

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
    "stack",
    "concatenate",
    "where",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "CosineSchedule",
    "StepSchedule",
    "clip_grad_norm",
    "save_module",
    "load_module",
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
    "compile_train_step",
    "ShardMean",
    "shard_slices",
]
