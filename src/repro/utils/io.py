"""Crash-safe filesystem primitives shared by every persistence layer.

Run directories, record files and spec files must survive a ``kill -9``
mid-write: a reader may never observe a half-written JSON document.  The
helpers here follow the standard write-temp-then-rename recipe — the
temporary file lands in the *destination directory* (``os.replace`` is
only atomic within one filesystem) and the payload is fully serialized
before the first byte is written, so a serialization error can neither
truncate an existing file nor leave a stray temp file behind.

Appending (evaluation-history JSONL) is durable line-by-line instead:
each line is flushed as one write, and readers tolerate a truncated
final line (the signature of a writer killed mid-append).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional

__all__ = [
    "ensure_parent_dir",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
]


def ensure_parent_dir(path: str) -> str:
    """Create the parent directory of ``path``; returns the parent."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return parent


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write binary ``data`` to ``path`` atomically (temp file +
    ``os.replace``).

    Creates missing parent directories.  On any failure the destination
    is untouched: either the old content survives intact or the new
    content is fully in place, never a mix.  ``.npz`` model/optimizer
    archives are serialized to memory first, then land in one rename.
    """
    parent = ensure_parent_dir(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=parent, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically, encoded as UTF-8.

    The text form of :func:`atomic_write_bytes`.
    """
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, payload: Any, indent: Optional[int] = None) -> None:
    """Serialize ``payload`` and write it atomically.

    Serialization happens *before* any file is opened, so an
    unserializable payload leaves both the destination and its directory
    exactly as they were.
    """
    text = json.dumps(payload, indent=indent)
    atomic_write_text(path, text + "\n" if indent is not None else text)
