"""``repro.utils`` — RNG management, ASCII plotting, table formatting, OpenBLAS thread budgets."""

from .rng import make_rng, seed_sequence, spawn

__all__ = ["make_rng", "spawn", "seed_sequence"]
