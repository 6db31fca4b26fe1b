"""Durable file writes shared by every artifact emitter.

Population runs can take hours; a crash (or Ctrl-C) while ``--stats-json``,
a ready-file, a CSV, or a discrepancy report is being written must
never leave a half-serialized file that a later tool chokes on.  Every JSON
artifact in the repository therefore goes through :func:`atomic_write_text`:
the payload is written to a temporary file *in the same directory* (so the
rename cannot cross filesystems), fsync'd, and then moved over the target
with :func:`os.replace` — readers observe either the old complete file or
the new complete file, never a torn one.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional


def fsync_file(fh) -> None:
    """Flush ``fh`` and force its bytes to stable storage.

    Filesystems without fsync support (some tmpfs/overlay setups) degrade
    to a plain flush rather than failing the write.
    """
    fh.flush()
    try:
        os.fsync(fh.fileno())
    except OSError:  # pragma: no cover - fsync-less filesystem
        pass


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fsync_file(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(
    path: str, payload: Any, indent: Optional[int] = 2, sort_keys: bool = False
) -> None:
    """Serialize ``payload`` and write it atomically with a trailing newline."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    )
