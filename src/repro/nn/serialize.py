"""Save/load model parameters as ``.npz`` archives.

Writes are atomic (serialize to memory, then temp-file + ``os.replace``
via :mod:`repro.utils.io`), so a crash mid-save can never leave a
truncated archive behind — a checkpoint either exists in full or not at
all.  Dtype, shape and key order round-trip exactly.
"""

from __future__ import annotations

import io
from typing import Dict

import numpy as np

from ..utils.io import atomic_write_bytes

__all__ = ["save_state", "load_state"]


def save_state(state: Dict[str, np.ndarray], path: str) -> None:
    """Atomically write a parameter dict to ``path`` (npz).

    Keys may contain dots.  Unlike a bare ``np.savez(path)``, no
    ``.npz`` suffix is appended — the file lands at exactly ``path``
    (parent directories are created), so ``load_state(path)`` always
    finds what ``save_state(path)`` wrote.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    atomic_write_bytes(path, buffer.getvalue())


def load_state(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}
