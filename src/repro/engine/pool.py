"""Synthesis dispatch: one design scalar, populations vectorized.

The pool only ever sees (task, graphs) of *unique* legalized graphs and
returns (area, delay) metric tuples — budget accounting, caching and
history stay in the parent.  The dispatch rule is one line: a single
design goes through :meth:`CircuitTask.synthesize`; two or more go
through :meth:`CircuitTask.evaluate_many` (:mod:`repro.synth.batched`),
one numpy-vectorized pass instead of N interpreter round-trips, with
contiguous chunks vectorized inside ``fork``'ed worker processes when
the batch holds at least two designs per worker.  Both paths are
bit-identical, so the rule changes wall-clock only.  Workers record no
trace spans; the caller's ``synthesis`` stage span times the batch.

Worker count comes from the constructor or the ``REPRO_ENGINE_WORKERS``
environment variable (default 1 = serial, no processes spawned).  Worker
processes start eagerly at construction — while the parent is still
single-threaded, which keeps fork safe under thread-parallel seed runs —
and the pool degrades to in-process execution if process creation fails
(sandboxed environments).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import threading
from typing import List, Optional, Sequence, Tuple

from ..circuits.task import CircuitTask
from ..prefix.graph import PrefixGraph

__all__ = ["SynthesisPool", "default_worker_count"]

_ENV_WORKERS = "REPRO_ENGINE_WORKERS"
Metrics = Tuple[float, float]


def default_worker_count() -> int:
    """Worker count from ``$REPRO_ENGINE_WORKERS`` (unset or empty = 1,
    serial).

    A value that is not a positive integer raises ``ValueError``, the
    same way ``--workers 0`` and ``EngineSpec(workers=0)`` are rejected.
    """
    value = os.environ.get(_ENV_WORKERS, "").strip()
    if not value:
        return 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(
            f"{_ENV_WORKERS}={value!r}: expected a positive integer"
        )
    return workers


def _synth_job(task: CircuitTask, graph: PrefixGraph) -> Metrics:
    """Synthesize one graph with the scalar flow, return its metrics."""
    result = task.synthesize(graph)
    return (result.area_um2, result.delay_ns)


def _synth_many_job(task: CircuitTask, graphs: Sequence[PrefixGraph]) -> List[Metrics]:
    """Worker entry point: vectorize one contiguous chunk of a batch."""
    return [
        (result.area_um2, result.delay_ns)
        for result in task.evaluate_many(graphs)
    ]


class SynthesisPool:
    """Lazily-created worker pool with a serial fallback.

    ``synthesize_batch`` preserves input order, so callers can zip the
    metrics back onto their graphs regardless of execution backend.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers if workers is not None else default_worker_count()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self._pool = None
        self._pool_broken = False
        self._pool_lock = threading.Lock()
        if self.workers > 1:
            # Create worker processes eagerly, while the parent is still
            # single-threaded: forking later from under parallel-seed
            # threads could snapshot held allocator/BLAS locks into the
            # children and deadlock them.
            self._ensure_pool()

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        # Locked: parallel-seed threads may race the first batch, and two
        # winners would leak a whole pool of worker processes.
        with self._pool_lock:
            if self._pool is not None or self._pool_broken:
                return self._pool
            try:
                # fork shares the already-imported repro modules with
                # workers, but is only safe on Linux — macOS exposes
                # "fork" too yet aborts in forked children that touch
                # Accelerate/ObjC, so everywhere else uses spawn (which
                # re-imports via PYTHONPATH).
                use_fork = (
                    sys.platform == "linux"
                    and "fork" in multiprocessing.get_all_start_methods()
                )
                context = multiprocessing.get_context(
                    "fork" if use_fork else "spawn"
                )
                self._pool = context.Pool(processes=self.workers)
            except (OSError, ValueError, RuntimeError):
                self._pool_broken = True  # sandboxed: fall back to serial
                self._pool = None
            return self._pool

    @property
    def parallel(self) -> bool:
        """Whether batches can actually run on worker processes."""
        return self.workers > 1 and not self._pool_broken

    # ------------------------------------------------------------------
    def synthesize_batch(
        self, task: CircuitTask, graphs: Sequence[PrefixGraph]
    ) -> List[Metrics]:
        """Synthesize unique graphs, in order: one design scalar, two or
        more vectorized — chunked across workers when the batch holds at
        least two designs per worker."""
        graphs = list(graphs)
        if len(graphs) < 2:
            return [_synth_job(task, graph) for graph in graphs]
        if self.workers > 1 and len(graphs) >= 2 * self.workers:
            pool = self._ensure_pool()
            if pool is not None:
                base, extra = divmod(len(graphs), self.workers)
                chunks, start = [], 0
                for worker in range(self.workers):
                    size = base + (1 if worker < extra else 0)
                    chunks.append(graphs[start : start + size])
                    start += size
                try:
                    job = functools.partial(_synth_many_job, task)
                    parts = pool.map(job, chunks)
                    return [metrics for part in parts for metrics in part]
                except (OSError, RuntimeError):
                    with self._pool_lock:
                        self._pool_broken = True
                        self._pool = None
        return _synth_many_job(task, graphs)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    def __enter__(self) -> "SynthesisPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        backend = "pool" if self.parallel else "serial"
        return f"SynthesisPool(workers={self.workers}, backend={backend})"
