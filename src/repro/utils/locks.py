"""Advisory pid-file lock helpers for run directories.

A run directory being executed (:mod:`repro.api.rundir`) must have
exactly one live process behind it.  The discipline:

* the lock is a small JSON file naming the owning pid, written
  atomically;
* a lock whose pid is dead (the SIGKILLed run a resume exists for) is
  **stolen** with a :class:`RuntimeWarning` naming the dead pid —
  silent stealing hides the fact that a previous process died
  uncleanly;
* a lock whose pid is alive is respected (the caller raises or waits).

Advisory only: a pathological simultaneous acquire can still race, but
the realistic double-execution mistakes are caught.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Optional

__all__ = ["pid_alive", "read_lock_pid", "warn_stale_lock"]


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for an advisory lock owner."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        pass  # exists but owned elsewhere — treat as alive
    return True


def read_lock_pid(path: str) -> Optional[int]:
    """The pid recorded in a lock file, or None if unreadable/absent."""
    try:
        with open(path) as handle:
            return int(json.load(handle).get("pid"))
    except (ValueError, TypeError, OSError):
        return None


def warn_stale_lock(path: str, pid: Optional[int]) -> None:
    """Announce that a stale advisory lock is being stolen.

    Naming the dead pid matters: it tells the operator *which* previous
    process died uncleanly (e.g. the SIGKILLed run a resume recovers).
    """
    owner = f"dead process {pid}" if pid is not None else "an unreadable lock"
    warnings.warn(
        f"stealing stale advisory lock {path} left by {owner}",
        RuntimeWarning,
        stacklevel=3,
    )
