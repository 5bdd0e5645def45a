"""OpenBLAS thread counts as a budget shared by concurrent work.

OpenBLAS starts one thread per core by default.  That is the right
default for one serial run, but a parallel seed grid already runs one
Python thread per seed: each seed's GEMMs then fan out over every core
again, and ``seeds × cores`` threads contend for ``cores``.  This module
lets the grid hand each seed its share instead.

The process loads one OpenBLAS build, numpy's (``libscipy_openblas64_``
in numpy 2.x wheels), which runs the training GEMMs and the GP's
Cholesky alike.  :func:`blas_libraries` finds it through ``ctypes``
(no ``threadpoolctl``) once, on first use, and
:func:`blas_budget` caps it for the duration of a ``with`` block.
Where no OpenBLAS symbol is found (numpy on Accelerate/MKL, non-Linux
platforms without the wheel's bundled library) everything here is a
silent no-op.

Thread counts change wall-clock only: the records of a run do not
depend on them (the parallel-seed tests compare records bit for bit).

:func:`core_budget` is the number of cores the calling code may spend:
the tightest active budget, else every usable core.  Seed threads are
not the only threads that spend it: a compiled training step runs its
second half-batch shard on a worker thread only while the budget is at
least 2, and caps BLAS at one thread for the step
(:class:`repro.nn.CompiledTrainStep`).  A serial grid on two cores
therefore trains on two shard threads; a two-seed grid on two cores
(budget 1) runs each seed's shards back to back.  Seed threads × shard
threads × BLAS threads stay at or below the cores.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "BlasLibrary",
    "blas_budget",
    "blas_libraries",
    "blas_thread_counts",
    "core_budget",
    "usable_cores",
]

#: (getter, setter) symbol pairs, one per OpenBLAS flavour numpy may
#: link: the ILP64 scipy-openblas build of numpy 2.x wheels, its LP64
#: flavour (32-bit wheels), and the plain-prefixed builds of numpy 1.x
#: wheels and system OpenBLAS (setup.py allows numpy>=1.22).
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def usable_cores() -> int:
    """CPUs this process may run on (its affinity mask where the
    platform has one, else the machine's count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BlasLibrary:
    """One loaded OpenBLAS build and its thread-count entry points."""

    def __init__(self, path: str, getter, setter) -> None:
        self.path = path
        self.name = os.path.basename(path)
        self._get = getter
        self._set = setter

    def get_num_threads(self) -> int:
        return int(self._get())

    def set_num_threads(self, count: int) -> None:
        self._set(int(count))

    def __repr__(self) -> str:
        return f"BlasLibrary({self.name}, threads={self.get_num_threads()})"


# thread-safety: _LOCK guards all three module-level stores below.
_LOCK = threading.Lock()
#: the loaded OpenBLAS builds; None until the first scan.
_LIBRARIES: Optional[List[BlasLibrary]] = None
#: budgets currently entered, duplicates allowed (guarded by _LOCK).
_ACTIVE: List[int] = []
#: each library's count when the outermost budget was entered; restored
#: on the last exit.  Guarded by _LOCK.
_SAVED: Dict[str, int] = {}


def _loaded_paths() -> List[str]:
    """Shared objects with ``openblas`` in their name mapped into this
    process (Linux), else the libraries bundled with the numpy wheel
    (ctypes re-opens an already-loaded library)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        return sorted(
            path
            for path in paths
            if path.startswith("/") and "openblas" in os.path.basename(path).lower()
        )
    except OSError:
        pass
    root = os.path.dirname(np.__file__)
    paths: List[str] = []
    for libdir in (root + ".libs", os.path.join(root, ".dylibs")):
        paths.extend(sorted(glob.glob(os.path.join(libdir, "*openblas*"))))
    return paths


def _open(path: str) -> Optional[BlasLibrary]:
    try:
        handle = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(handle, get_name, None)
        setter = getattr(handle, set_name, None)
        if getter is not None and setter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            return BlasLibrary(path, getter, setter)
    return None


def _discover() -> List[BlasLibrary]:
    # Caller holds _LOCK.  One scan serves the process: numpy (imported
    # above) maps its build at import, and nothing here loads another.
    global _LIBRARIES
    if _LIBRARIES is None:
        opened = (_open(path) for path in _loaded_paths())
        _LIBRARIES = [lib for lib in opened if lib is not None]
    return _LIBRARIES


def blas_libraries() -> List[BlasLibrary]:
    """Every OpenBLAS build loaded in this process (may be empty)."""
    with _LOCK:
        return list(_discover())


def blas_thread_counts() -> Dict[str, int]:
    """Current thread count of each loaded OpenBLAS build, by file name."""
    return {lib.name: lib.get_num_threads() for lib in blas_libraries()}


def _apply() -> None:
    # Caller holds _LOCK.  Each library runs at the tightest active
    # budget, never above the count it had when the budget began.
    cap = min(_ACTIVE)
    for lib in _discover():
        original = _SAVED.setdefault(lib.path, lib.get_num_threads())
        lib.set_num_threads(max(1, min(cap, original)))


def core_budget() -> int:
    """Cores the caller may spend: the tightest active :func:`blas_budget`
    (from any thread — budgets are process-wide), else
    :func:`usable_cores`."""
    with _LOCK:
        if _ACTIVE:
            return min(_ACTIVE)
    return usable_cores()


@contextmanager
def blas_budget(threads: int) -> Iterator[None]:
    """Cap the loaded OpenBLAS build at ``threads`` for the block.

    Budgets nest and overlap across threads: while any is active the
    count is the minimum of the active budgets, and it never rises above
    the count found on entry (so an explicit ``OPENBLAS_NUM_THREADS`` is
    respected).  The last budget to exit restores the original counts,
    on a normal exit and on an exception alike.
    """
    threads = max(1, int(threads))
    with _LOCK:
        _ACTIVE.append(threads)
        _apply()
    try:
        yield
    finally:
        with _LOCK:
            _ACTIVE.remove(threads)
            if _ACTIVE:
                _apply()
            else:
                for lib in _discover():
                    lib.set_num_threads(_SAVED[lib.path])
                _SAVED.clear()
