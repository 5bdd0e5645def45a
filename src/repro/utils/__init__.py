"""``repro.utils`` — RNG management, ASCII plotting, table formatting, OpenBLAS thread budgets."""

from .rng import seed_sequence

__all__ = ["seed_sequence"]
