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
* **Two tiers** — an in-memory LRU front (bounded by ``memory_limit``)
  over an append-only JSONL file per fingerprint under ``cache_dir``
  (default: the ``REPRO_CACHE_DIR`` environment variable; unset means
  memory-only).

Disk format: ``<cache_dir>/<fingerprint>.jsonl``, one record per line::

    {"k": "<hex of packed grid bits>", "a": <area_um2>, "d": <delay_ns>,
     "t": <unix seconds written>}

Append-only and last-writer-wins, so concurrent processes can share a
directory; a truncated or otherwise corrupt line (crash mid-append,
bit rot, manual edits) is skipped with a ``RuntimeWarning`` on load,
and duplicate keys resolve to the newest record.  ``t`` feeds the
age-eviction policy of :mod:`repro.serve.compact`; readers ignore it
(and any other unknown key), so shards written before it existed stay
loadable.

Sharing with external writers is incremental: each instance remembers
how far into every shard it has parsed, so a miss against a shard that
another process (a daemon, a parallel sweep) has since appended to only
parses the *new* tail — a long-lived daemon never re-reads its whole
history to discover one new record.  A shard that *shrank* (another
process compacted it) is detected the same way and triggers one full
reload.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import warnings
from collections import OrderedDict
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
    """Two-tier (LRU memory / JSONL disk) store of synthesis metrics.

    Thread-safe; one instance is shared by every simulator an engine
    backs, including thread-parallel per-seed runs.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        memory_limit: int = 200_000,
    ) -> None:
        if memory_limit < 1:
            raise ValueError("memory_limit must be positive")
        self.cache_dir = cache_dir
        self.memory_limit = memory_limit
        self._lock = threading.RLock()
        # (fingerprint, key) -> (metrics, loaded_from_disk)
        self._memory: "OrderedDict[Tuple[str, bytes], Tuple[Metrics, bool]]" = (
            OrderedDict()
        )
        self._loaded_fingerprints: set = set()
        # Byte offset of each key's latest record in its disk shard.
        # Entries evicted from the LRU front stay findable here, so a
        # memory miss seeks straight to the one record instead of
        # becoming a silent re-synthesis (or a full-shard rescan).
        self._disk_offsets: Dict[str, Dict[bytes, int]] = {}
        # How far into each shard this instance has parsed; external
        # appends beyond this point are picked up incrementally by
        # _refresh_fingerprint, never by re-reading the whole file.
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

    def _load_fingerprint(self, fingerprint: str) -> None:
        """Pull one fingerprint's disk shard into the memory front."""
        self._loaded_fingerprints.add(fingerprint)
        if not self.cache_dir:
            return
        path = self._path(fingerprint)
        if not os.path.exists(path):
            return
        # Disk-shard loads are the engine's only bulk cache I/O — worth a
        # span of their own when a run is traced (near-free otherwise).
        with trace.span("cache_load") as span:
            span.set_attr("fingerprint", fingerprint[:16])
            offsets = self._disk_offsets.setdefault(fingerprint, {})
            position = 0
            loaded = 0
            lineno = 0
            with open(path, "rb") as handle:
                for raw in handle:
                    lineno += 1
                    parsed = self._parse_line(raw, f"{path}:{lineno}")
                    if parsed is not None:  # skip crashed-writer truncation
                        key, metrics = parsed
                        offsets[key] = position  # last record wins
                        self._insert(fingerprint, key, metrics, from_disk=True)
                        loaded += 1
                    position += len(raw)
            self._read_positions[fingerprint] = position
            self._line_counts[fingerprint] = lineno
            span.set_attr("entries", loaded)

    @staticmethod
    def _parse_line(raw: bytes, where: str = "unknown location"):
        """One JSONL record, or None (with a warning) if unparseable.

        Corrupt lines — a crashed writer's truncated tail, bit rot, a
        hand-edited shard — must never take the engine down: the record
        is skipped and synthesis regenerates it on demand.  ``where``
        names the shard path and line (or byte offset) so the warning
        points at the exact record even with many shards on disk.
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

    def _read_at(
        self, fingerprint: str, key: bytes, offset: int
    ) -> Optional[Metrics]:
        """One record by byte offset; None if absent or the offset is stale."""
        path = self._path(fingerprint)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            handle.seek(offset)
            parsed = self._parse_line(
                handle.readline(), f"{path} (byte offset {offset})"
            )
        if parsed is not None and parsed[0] == key:
            return parsed[1]
        return None

    def _reload_entry(self, fingerprint: str, key: bytes) -> Optional[Metrics]:
        """Re-read one LRU-evicted record from its shard by byte offset."""
        offset = self._disk_offsets.get(fingerprint, {}).get(key)
        if self.cache_dir is None or offset is None:
            return None
        metrics = self._read_at(fingerprint, key, offset)
        if metrics is not None:
            return metrics
        # Offset went stale (e.g. another process compacted the shard):
        # fall back to one full rescan, rebuilding the index.
        self._disk_offsets.pop(fingerprint, None)
        self._read_positions.pop(fingerprint, None)
        self._line_counts.pop(fingerprint, None)
        self._loaded_fingerprints.discard(fingerprint)
        self._load_fingerprint(fingerprint)
        entry = self._memory.get((fingerprint, key))
        if entry is not None:
            return entry[0]
        # Rescanned but LRU-bounded out of memory again: the rebuilt
        # offset index is fresh, so one more seek settles it.
        offset = self._disk_offsets.get(fingerprint, {}).get(key)
        if offset is None:
            return None
        return self._read_at(fingerprint, key, offset)

    def _refresh_fingerprint(self, fingerprint: str) -> bool:
        """Catch up with external writers on an already-loaded shard.

        Parses only the bytes appended since this instance last read the
        shard (the incremental path a long-lived daemon relies on); a
        shard that shrank — another process compacted it — triggers one
        full reload instead.  Returns True when anything changed.
        """
        if not self.cache_dir:
            return False
        path = self._path(fingerprint)
        position = self._read_positions.get(fingerprint, 0)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size < position:
            # Shrunk underneath us: compaction rewrote the shard, every
            # remembered offset is void — rescan from byte 0.
            self._disk_offsets.pop(fingerprint, None)
            self._read_positions.pop(fingerprint, None)
            self._line_counts.pop(fingerprint, None)
            self._loaded_fingerprints.discard(fingerprint)
            self._load_fingerprint(fingerprint)
            return True
        if size == position:
            return False
        offsets = self._disk_offsets.setdefault(fingerprint, {})
        loaded = 0
        lineno = self._line_counts.get(fingerprint, 0)
        with trace.span("cache_refresh") as span:
            span.set_attr("fingerprint", fingerprint[:16])
            with open(path, "rb") as handle:
                handle.seek(position)
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        # A concurrent writer's half-appended tail: not
                        # corruption, just early — re-read next refresh.
                        break
                    lineno += 1
                    parsed = self._parse_line(raw, f"{path}:{lineno}")
                    if parsed is not None:
                        key, metrics = parsed
                        offsets[key] = position
                        self._insert(fingerprint, key, metrics, from_disk=True)
                        loaded += 1
                    position += len(raw)
            span.set_attr("entries", loaded)
        self._read_positions[fingerprint] = position
        self._line_counts[fingerprint] = lineno
        return True

    def _insert(
        self, fingerprint: str, key: bytes, metrics: Metrics, from_disk: bool
    ) -> None:
        memory_key = (fingerprint, key)
        self._memory[memory_key] = (metrics, from_disk)
        self._memory.move_to_end(memory_key)
        while len(self._memory) > self.memory_limit:
            self._memory.popitem(last=False)

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
        distinguish warm-RAM from warm-disk behaviour).
        """
        with self._lock:
            if fingerprint not in self._loaded_fingerprints:
                self._load_fingerprint(fingerprint)
            entry = self._memory.get((fingerprint, key))
            if entry is None:
                # Evicted from the LRU front but still on disk: re-read it
                # rather than letting the miss trigger a re-synthesis.
                metrics = self._reload_entry(fingerprint, key)
                if metrics is None and self._refresh_fingerprint(fingerprint):
                    # An external writer grew (or compacted) the shard
                    # since our last read; the refresh may have brought
                    # the key in.
                    entry = self._memory.get((fingerprint, key))
                    if entry is None:
                        metrics = self._reload_entry(fingerprint, key)
                if entry is None:
                    if metrics is None:
                        return None
                    self._insert(fingerprint, key, metrics, from_disk=True)
                    entry = self._memory[(fingerprint, key)]
            metrics, from_disk = entry
            self._memory[(fingerprint, key)] = (metrics, False)
            self._memory.move_to_end((fingerprint, key))
            return metrics, ("disk" if from_disk else "memory")

    def put(self, fingerprint: str, key: bytes, metrics: Metrics) -> None:
        """Store metrics in memory and append them to the disk shard."""
        metrics = (float(metrics[0]), float(metrics[1]))
        with self._lock:
            self._insert(fingerprint, key, metrics, from_disk=False)
            if self.cache_dir:
                path = self._path(fingerprint)
                line = json.dumps(
                    {
                        "k": key.hex(),
                        "a": metrics[0],
                        "d": metrics[1],
                        # written-at stamp for compaction age eviction
                        "t": round(time.time(), 3),
                    }
                )
                # getsize-then-append gives this process an exact offset;
                # a concurrent writer can only make it stale, which
                # _reload_entry detects and repairs with a rescan.
                offset = os.path.getsize(path) if os.path.exists(path) else 0
                with open(path, "a") as handle:
                    handle.write(line + "\n")
                self._disk_offsets.setdefault(fingerprint, {})[key] = offset
                if offset == 0:
                    # We created the shard, so we know its entire content:
                    # nothing on disk predates us that a load could find.
                    self._loaded_fingerprints.add(fingerprint)
                # Our own append needs no future re-parse: advance the
                # incremental-read position over it iff we were current
                # (if external appends are pending, leave it so the next
                # refresh picks them up).
                if (
                    fingerprint in self._loaded_fingerprints
                    and self._read_positions.get(fingerprint, 0) == offset
                ):
                    self._read_positions[fingerprint] = offset + len(line) + 1
                    self._line_counts[fingerprint] = (
                        self._line_counts.get(fingerprint, 0) + 1
                    )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, fingerprint_key: Tuple[str, bytes]) -> bool:
        return self.get(*fingerprint_key) is not None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries_in_memory": len(self._memory),
                "fingerprints_loaded": len(self._loaded_fingerprints),
                "cache_dir": self.cache_dir,
                "memory_limit": self.memory_limit,
            }

    def __repr__(self) -> str:
        where = self.cache_dir or "memory-only"
        return f"EvaluationCache({where}, entries={len(self)})"
