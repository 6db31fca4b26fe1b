"""Checkpoint journal for population runs.

A population run at paper scale schedules 16,000 blocks; losing the lot
to a crash or a Ctrl-C ten minutes in is unacceptable for a production
service.  The journal makes runs resumable:

* **Format** — JSON lines.  The first line is a header carrying the
  schema tag and the run's *configuration fingerprint* (block count,
  curtail point, master seed, engine, machine, verify flag, ...); every
  subsequent line is one completed :class:`BlockRecord` as a flat JSON
  object.  Records are append-only and may arrive in any order (the
  parallel engine journals whole chunks as they complete); the resume
  path merges them back in index order.
* **Durability** — the header is written atomically (temp file + fsync +
  rename, :mod:`repro.ioutil`); appends are flushed and fsync'd per
  batch.  A crash can therefore tear at most the final line, and
  :func:`load_journal` detects and discards a torn tail (resume
  truncates it before appending).  Torn or corrupt *interior* lines mean
  real disk corruption and raise :class:`JournalError`.
* **Safety** — resuming validates the configuration fingerprint; a
  journal written under different run parameters is rejected rather than
  silently merged into a differently-parameterized population.

The journal stores every ``BlockRecord`` field including the
non-compared ``elapsed_seconds``, so a resumed run's records are equal
(``BlockRecord`` equality excludes wall clock) to an uninterrupted
run's — the kill-and-resume invariant pinned by ``tests/test_chaos.py``.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..ioutil import atomic_write_text, fsync_file

if TYPE_CHECKING:  # runtime import is deferred: runner imports this package
    from ..experiments.runner import BlockRecord

#: Version tag of the journal header.
JOURNAL_SCHEMA = "repro-journal/1"


def _record_type():
    from ..experiments.runner import BlockRecord

    return BlockRecord


class JournalError(ValueError):
    """A journal file is unreadable, corrupt, or from a different run."""


def record_to_dict(record: "BlockRecord") -> Dict[str, Any]:
    return record._asdict()


def record_from_dict(data: Mapping[str, Any]) -> "BlockRecord":
    record_type = _record_type()
    fields = set(record_type._fields)
    unknown = set(data) - fields
    if unknown:
        raise JournalError(f"unknown record field(s): {sorted(unknown)}")
    missing = fields - set(data) - {"degraded", "ladder", "elapsed_seconds"}
    if missing:
        raise JournalError(f"record missing field(s): {sorted(missing)}")
    return record_type(**data)


def _config_mismatch(
    found: Mapping[str, Any], expected: Mapping[str, Any]
) -> List[str]:
    keys = sorted(set(found) | set(expected))
    return [
        f"{key}: journal has {found.get(key)!r}, run wants {expected.get(key)!r}"
        for key in keys
        if found.get(key) != expected.get(key)
    ]


def load_journal(
    path: str, expect_config: Optional[Mapping[str, Any]] = None
) -> Tuple[Dict[str, Any], Dict[int, BlockRecord], int]:
    """Read a journal: ``(config, records by index, valid byte length)``.

    A torn final line (the only kind of tear an fsync'd append can leave)
    is discarded and excluded from the valid length; anything else that
    fails to decode raises :class:`JournalError`.  When ``expect_config``
    is given, the header fingerprint must match it exactly.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = blob.split(b"\n")
    last_content = max(
        (i for i, line in enumerate(lines) if line.strip()), default=-1
    )
    offset = 0
    header: Optional[Dict[str, Any]] = None
    records: Dict[int, BlockRecord] = {}
    valid_bytes = 0
    for k, raw in enumerate(lines):
        line_end = offset + len(raw) + 1  # +1 for the newline
        text = raw.strip()
        offset = line_end
        if not text:
            continue
        is_tail = k == last_content
        try:
            payload = json.loads(text.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("journal line is not a JSON object")
            if header is None:
                if payload.get("schema") != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"unsupported journal schema {payload.get('schema')!r} "
                        f"(want {JOURNAL_SCHEMA!r})"
                    )
                header = payload
            else:
                record = record_from_dict(payload)
                records[record.index] = record
        except JournalError:
            if is_tail and header is not None:
                break  # torn tail from a crash mid-append: discard
            raise
        except (ValueError, TypeError) as exc:
            if is_tail and header is not None:
                break  # torn tail from a crash mid-append: discard
            raise JournalError(
                f"{path}: corrupt journal line {k + 1}: {exc}"
            ) from None
        valid_bytes = min(line_end, len(blob))
    if header is None:
        raise JournalError(f"{path}: empty journal (no header line)")
    if expect_config is not None:
        mismatch = _config_mismatch(header.get("config", {}), expect_config)
        if mismatch:
            raise JournalError(
                f"{path}: journal was written by a different run — "
                + "; ".join(mismatch)
            )
    return header, records, valid_bytes


class Journal:
    """Append-only, fsync'd record journal (see module docstring).

    Use :meth:`create` for a fresh run and :meth:`resume` to continue an
    interrupted one; both return a journal open for appending.
    """

    def __init__(self, path: str, fh, config: Dict[str, Any]):
        self.path = path
        self._fh = fh
        self.config = config
        self.appended = 0

    # -- constructors --------------------------------------------------
    @classmethod
    def create(cls, path: str, config: Mapping[str, Any]) -> "Journal":
        """Start a fresh journal at ``path`` (header written atomically)."""
        header = {"schema": JOURNAL_SCHEMA, "config": dict(config)}
        atomic_write_text(path, json.dumps(header, sort_keys=True) + "\n")
        return cls(path, open(path, "a", encoding="utf-8"), dict(config))

    @classmethod
    def resume(
        cls, path: str, config: Mapping[str, Any]
    ) -> Tuple["Journal", Dict[int, BlockRecord]]:
        """Reopen ``path`` for appending; returns the finished records.

        A missing file degrades to :meth:`create` (so ``--resume`` both
        starts and continues runs); an existing file must carry a
        matching configuration fingerprint.  Any torn tail is truncated
        away before the first append.
        """
        if not os.path.exists(path):
            return cls.create(path, config), {}
        _, records, valid_bytes = load_journal(path, expect_config=config)
        fh = open(path, "r+", encoding="utf-8")
        fh.truncate(valid_bytes)
        fh.seek(0, os.SEEK_END)
        return cls(path, fh, dict(config)), records

    # -- appends -------------------------------------------------------
    def append(self, records: Iterable[BlockRecord]) -> None:
        """Journal completed records (one flushed, fsync'd write)."""
        lines = "".join(
            json.dumps(record_to_dict(r), sort_keys=True) + "\n" for r in records
        )
        if not lines:
            return
        self._fh.write(lines)
        fsync_file(self._fh)
        self.appended += lines.count("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
