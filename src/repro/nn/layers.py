"""Neural-network layers: the ``Module`` hierarchy of :mod:`repro.nn`.

A :class:`Module` owns named parameters (leaf :class:`~repro.nn.Tensor`
objects with ``requires_grad=True``) and optional sub-modules, mirroring the
familiar ``torch.nn`` API surface closely enough that the CircuitVAE model
code reads like its PyTorch original.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Module",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "ReLU",
    "Sequential",
    "MLP",
]


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Tensor` parameters and child ``Module`` objects
    as attributes; :meth:`parameters` and :meth:`state_dict` discover them by
    introspection, so no explicit registration calls are needed.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # -- discovery -----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, value in sorted(vars(self).items()):
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{i}", item

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- train / eval ---------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradient bookkeeping --------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- serialization ----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            value = np.asarray(state[name])
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {p.data.shape}, got {value.shape}"
                )
            p.data[...] = value

    # -- call protocol ------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully-connected layer: ``y = x @ W.T + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init.kaiming_uniform((out_features, in_features), rng), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class Conv2d(Module):
    """2-D convolution over NCHW activations."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Tensor(init.kaiming_uniform(shape, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """Transposed 2-D convolution (decoder upsampling)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = Tensor(init.kaiming_uniform(shape, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Run modules in order, feeding each output into the next."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __len__(self) -> int:
        return len(self.layers)


class MLP(Module):
    """Multi-layer perceptron with ReLU hidden activations.

    This is the shape of the paper's cost predictor (a 2-layer MLP on the
    latent vector) and of the dense heads inside the encoder/decoder.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        output_activation: Optional[Module] = None,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        layers: List[Module] = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(a, b, rng))
            if i < len(sizes) - 2:
                layers.append(ReLU())
        if output_activation is not None:
            layers.append(output_activation)
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
