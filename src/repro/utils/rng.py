"""Deterministic random-number management.

Every stochastic component in the repository takes an explicit
``np.random.Generator``.  An experiment derives its seeds from one base
seed, and each (method, seed) cell builds its own generator from its
seed, so runs are reproducible and independent regardless of execution
order — the paper runs "five different random seeds and
independently collected initial datasets".
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["seed_sequence"]


def seed_sequence(base_seed: int, count: int) -> List[int]:
    """Derive ``count`` well-separated seeds from one base seed."""
    ss = np.random.SeedSequence(base_seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(count)]
