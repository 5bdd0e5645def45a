"""Weight initialization schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "fan_in_and_out"]


def fan_in_and_out(shape) -> tuple:
    """Compute (fan_in, fan_out) for a Linear or Conv weight shape."""
    if len(shape) == 2:  # Linear: (out, in)
        return shape[1], shape[0]
    if len(shape) == 4:  # Conv: (out, in, kh, kw) or (in, out, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_uniform(shape, rng: np.random.Generator, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He-uniform init: U(-b, b) with b = gain * sqrt(3 / fan_in)."""
    fan_in, _ = fan_in_and_out(shape)
    bound = gain * np.sqrt(3.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
