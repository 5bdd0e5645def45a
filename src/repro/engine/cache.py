"""Persistent, canonical-key evaluation cache shared across runs.

The paper charges one simulation per *unique legalized circuit*; a real
deployment memoizes synthesis results fleet-wide so re-running a sweep, a
different seed, or a different method never re-synthesizes a design it
has already measured.  This module provides that store:

* **Canonical keys** — a design is identified by the packed bits of its
  legal prefix grid (:meth:`repro.prefix.graph.PrefixGraph.key`), so every
  encoding of the same circuit shares one entry.
* **Task fingerprints** — entries are namespaced by a SHA-256 fingerprint
  of everything that influences *synthesis*: bitwidth, circuit type, cell
  library, IO timing and flow options.  The cost weight ``omega`` is
  deliberately **excluded** — cost is recomputed from the stored
  area/delay at serve time, so omega sweeps reuse each other's synthesis
  results.
* **One dict per fingerprint** — ``{key: (metrics, loaded_from_disk)}``
  in memory, read on first use from an append-only JSONL shard per
  fingerprint under ``cache_dir`` (default: the ``REPRO_CACHE_DIR``
  environment variable; unset means memory-only).

Disk format: ``<cache_dir>/<fingerprint>.jsonl``, one record per line::

    {"k": "<hex of packed grid bits>", "a": <area_um2>, "d": <delay_ns>}

Append-only and last-writer-wins, so concurrent processes can share a
directory; a truncated or otherwise corrupt line (crash mid-append,
bit rot, manual edits) is skipped with a ``RuntimeWarning`` on load,
and duplicate keys resolve to the newest record.  Readers ignore
unknown keys, so shards carrying extra fields (older ones have a ``t``
write stamp) stay loadable.  The directory is a disposable accelerator:
records are identical with or without it, so deleting it is the only
garbage collection it needs.

Sharing with other processes is incremental: each instance remembers
how far into every shard it has parsed, so a miss against a shard that
a concurrent run has since appended to only parses the *new* tail.  A
shard that *shrank* (truncated or recreated from outside) is read again
from byte 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from typing import Dict, Optional, Tuple

from ..obs import trace

__all__ = [
    "task_fingerprint",
    "EvaluationCache",
    "default_cache_dir",
]

#: (area_um2, delay_ns) — everything synthesis produces that Evaluation needs.
Metrics = Tuple[float, float]

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Optional[str]:
    """The cache directory named by ``$REPRO_CACHE_DIR`` (None = disabled)."""
    value = os.environ.get(_ENV_CACHE_DIR, "").strip()
    return value or None


def task_fingerprint(task) -> str:
    """Stable hex digest of a task's synthesis-relevant configuration.

    Two tasks with the same fingerprint produce bit-identical
    :class:`~repro.synth.physical.PhysicalResult` metrics for any graph,
    so their cache entries are interchangeable.  ``delay_weight`` and the
    display ``name`` are excluded on purpose (see module docstring).
    """
    library = task.library
    payload = {
        "n": task.n,
        "circuit_type": task.circuit_type,
        "library": {
            "name": library.name,
            "tau_ns": library.tau_ns,
            "wire_cap_per_um": library.wire_cap_per_um,
            "bit_pitch_um": library.bit_pitch_um,
            "row_height_um": library.row_height_um,
            "cells": sorted(
                (
                    c.name,
                    c.function,
                    c.drive,
                    c.area,
                    c.input_cap,
                    c.logical_effort,
                    c.intrinsic_delay,
                )
                for c in (library.cell(name) for name in sorted(library._cells))
            ),
        },
        "io_timing": {
            "input_arrival": sorted(task.io_timing.input_arrival.items()),
            "output_margin": sorted(task.io_timing.output_margin.items()),
        },
        "options": {
            "max_fanout": task.options.max_fanout,
            "sizing_passes": task.options.sizing_passes,
            "area_recovery": task.options.area_recovery,
            "slack_threshold": task.options.slack_threshold,
            "mapping_style": task.options.mapping_style,
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class EvaluationCache:
    """Store of synthesis metrics: one dict per fingerprint over its shard.

    Thread-safe; one instance is shared by every simulator an engine
    backs, including thread-parallel per-seed runs.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self._lock = threading.RLock()
        # fingerprint -> {key: (metrics, loaded_from_disk)}; a fingerprint
        # is present once its shard has been read.
        self._shards: Dict[str, Dict[bytes, Tuple[Metrics, bool]]] = {}
        # How far into each shard this instance has parsed; external
        # appends beyond this point are picked up incrementally, never
        # by re-reading the whole file.
        self._read_positions: Dict[str, int] = {}
        # Lines parsed so far per shard, so corrupt-line warnings from
        # incremental refreshes still report absolute line numbers.
        self._line_counts: Dict[str, int] = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, fingerprint: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{fingerprint}.jsonl")

    def _shard(self, fingerprint: str) -> Dict[bytes, Tuple[Metrics, bool]]:
        """One fingerprint's entries, reading its disk shard on first use."""
        shard = self._shards.get(fingerprint)
        if shard is None:
            shard = self._shards[fingerprint] = {}
            self._read_shard(fingerprint, refresh=False)
        return shard

    def _read_shard(self, fingerprint: str, refresh: bool) -> bool:
        """Parse one shard from this instance's read position to its end.

        On the first read a trailing line with no newline is parsed (and
        warned about if corrupt) like any other; a refresh leaves it for
        later, as a concurrent writer's half-appended tail.  A shard that
        shrank — truncated or recreated from outside — is read again from
        byte 0.  Returns True when the shard had unread bytes.
        """
        if not self.cache_dir:
            return False
        path = self._path(fingerprint)
        position = self._read_positions.get(fingerprint, 0)
        lineno = self._line_counts.get(fingerprint, 0)
        try:
            size = os.path.getsize(path)
        except OSError:
            return False
        if size < position:
            position = lineno = 0
        if size == position:
            return False
        shard = self._shards[fingerprint]
        loaded = 0
        # Shard reads are the engine's only bulk cache I/O — worth a span
        # of their own when a run is traced (near-free otherwise).
        with (
            trace.span("cache_refresh") if refresh else trace.span("cache_load")
        ) as span:
            span.set_attr("fingerprint", fingerprint[:16])
            with open(path, "rb") as handle:
                handle.seek(position)
                for raw in handle:
                    if refresh and not raw.endswith(b"\n"):
                        # A concurrent writer's half-appended tail: not
                        # corruption, just early — re-read next refresh.
                        break
                    lineno += 1
                    parsed = self._parse_line(raw, f"{path}:{lineno}")
                    if parsed is not None:  # last record wins
                        shard[parsed[0]] = (parsed[1], True)
                        loaded += 1
                    position += len(raw)
            span.set_attr("entries", loaded)
        self._read_positions[fingerprint] = position
        self._line_counts[fingerprint] = lineno
        return True

    @staticmethod
    def _parse_line(raw: bytes, where: str = "unknown location"):
        """One JSONL record, or None (with a warning) if unparseable.

        Corrupt lines — a crashed writer's truncated tail, bit rot, a
        hand-edited shard — must never take the engine down: the record
        is skipped and synthesis regenerates it on demand.  ``where``
        names the shard path and line so the warning points at the
        exact record even with many shards on disk.
        """
        line = raw.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
            return bytes.fromhex(record["k"]), (
                float(record["a"]),
                float(record["d"]),
            )
        except (ValueError, KeyError, TypeError):
            preview = line[:60].decode("utf-8", errors="replace")
            warnings.warn(
                f"skipping corrupt evaluation-cache line at {where}: "
                f"{preview!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    # ------------------------------------------------------------------
    def get(self, fingerprint: str, key: bytes) -> Optional[Metrics]:
        """Look up metrics; None on miss.  See :meth:`get_with_origin`."""
        hit = self.get_with_origin(fingerprint, key)
        return hit[0] if hit is not None else None

    def get_with_origin(
        self, fingerprint: str, key: bytes
    ) -> Optional[Tuple[Metrics, str]]:
        """Look up metrics plus where they came from: 'memory' or 'disk'.

        The first hit on an entry loaded from disk reports ``'disk'``;
        subsequent hits report ``'memory'`` (telemetry uses this to
        distinguish warm-RAM from warm-disk behaviour).  A miss first
        reads whatever an external writer appended to the shard since
        this instance last read it.
        """
        with self._lock:
            shard = self._shard(fingerprint)
            entry = shard.get(key)
            if entry is None and self._read_shard(fingerprint, refresh=True):
                entry = shard.get(key)
            if entry is None:
                return None
            metrics, from_disk = entry
            shard[key] = (metrics, False)
            return metrics, ("disk" if from_disk else "memory")

    def put(self, fingerprint: str, key: bytes, metrics: Metrics) -> None:
        """Store metrics in memory and append them to the disk shard."""
        metrics = (float(metrics[0]), float(metrics[1]))
        with self._lock:
            self._shard(fingerprint)[key] = (metrics, False)
            if self.cache_dir:
                record = (
                    json.dumps({"k": key.hex(), "a": metrics[0], "d": metrics[1]})
                    + "\n"
                ).encode("utf-8")
                # O_APPEND puts the write at the end of the file as it is
                # *at write time*, so only the position after our own
                # write says where the record landed — a size read before
                # it is stale as soon as another process appends.
                with open(self._path(fingerprint), "ab") as handle:
                    handle.write(record)
                    handle.flush()
                    offset = handle.tell() - len(record)
                # Our own append needs no future re-parse: advance the
                # incremental-read position over it iff it starts exactly
                # where we stopped reading (if external appends sit in
                # between, leave it so the next refresh picks them up).
                if self._read_positions.get(fingerprint, 0) == offset:
                    self._read_positions[fingerprint] = offset + len(record)
                    self._line_counts[fingerprint] = (
                        self._line_counts.get(fingerprint, 0) + 1
                    )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(shard) for shard in self._shards.values())

    def __repr__(self) -> str:
        where = self.cache_dir or "memory-only"
        return f"EvaluationCache({where}, entries={len(self)})"
