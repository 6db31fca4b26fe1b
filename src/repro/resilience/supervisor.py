"""Worker supervision policy: retries, backoff, quarantine, validation.

The mechanics of running worker processes live in
:mod:`repro.resilience.pool`, the one supervised pool that population
runs and the scheduling daemon share; this module owns the *policy*
knobs and the reply validators:

* :class:`SupervisorConfig` — how long a job may go without progress
  (``hang_timeout``) before its worker is presumed hung (livelock,
  pathological block) and killed, how often the dispatcher polls, and
  the retry policy.  Progress, not liveness: a worker spinning uselessly
  is as dead as one that exited.
* A failed attempt is retried with capped exponential backoff
  (``backoff_base * 2**(attempt-1)``, at most ``backoff_cap`` seconds),
  so a systemic failure (disk full, fork bomb elsewhere on the host)
  does not turn into a tight crash loop.
* After ``max_retries`` failed attempts a job is **degraded**: the
  caller publishes its deterministic list-schedule seeds (the bottom
  rung of the degradation ladder) instead of failing.  One pathological
  block can cost its population chunk optimality; it can no longer cost
  the run, and a daemon request gets an honest seed, never a 500.

Replies are validated in the parent before they are accepted: a worker
that returns records for the wrong blocks (:func:`validate_records`, a
population chunk) or a malformed wire entry (:func:`validate_entry`, a
daemon job), impossible NOP counts, or inconsistent flags is treated
exactly like a crashed one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..record import Record, setslot
from .ladder import LADDER


class SupervisorConfig(Record):
    """Tuning knobs of the worker-pool supervisor."""

    __slots__ = ("hang_timeout", "poll_interval", "max_retries", "backoff_base", "backoff_cap")

    def __init__(self, hang_timeout: float = 30.0, poll_interval: float = 0.02,
                 max_retries: int = 3, backoff_base: float = 0.25, backoff_cap: float = 8.0):
        #: Seconds a job may go without progress before its worker is
        #: presumed hung.  Must exceed the worst-case single-block scheduling
        #: time (bound it with a block wall-clock budget when in doubt).
        setslot(self, "hang_timeout", hang_timeout)
        #: Dispatcher tick for hang deadlines, backoff expiry and respawns
        #: (worker replies and new jobs wake it at once).
        setslot(self, "poll_interval", poll_interval)
        #: Failed attempts before a job is degraded (a chunk quarantined).
        setslot(self, "max_retries", max_retries)
        #: Exponential backoff: first retry after ``backoff_base`` seconds.
        setslot(self, "backoff_base", backoff_base)
        #: Backoff ceiling.
        setslot(self, "backoff_cap", backoff_cap)
        if self.hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based) of a job."""
        if attempt <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))


def validate_records(records, expected_indexes: Sequence[int]) -> Optional[str]:
    """Why a worker's returned records are unacceptable (``None`` if fine).

    The checks are cheap structural invariants every honestly-produced
    record satisfies; violating any of them means the payload was
    corrupted in flight or the worker is broken, and the chunk must be
    retried.
    """
    if not isinstance(records, list):
        return f"payload is {type(records).__name__}, not a record list"
    got = [getattr(r, "index", None) for r in records]
    if got != list(expected_indexes):
        return f"record indexes {got} != assigned blocks {list(expected_indexes)}"
    for r in records:
        if r.size < 0 or r.statements < 0 or r.omega_calls < 0:
            return f"block {r.index}: negative size/statements/omega_calls"
        if min(r.initial_nops, r.seed_nops, r.final_nops) < 0:
            return f"block {r.index}: negative NOP count"
        if r.final_nops > r.seed_nops:
            return (
                f"block {r.index}: published {r.final_nops} NOPs, worse "
                f"than its own list seed ({r.seed_nops})"
            )
        if r.completed and r.degraded:
            return f"block {r.index}: completed and degraded are exclusive"
        if r.ladder not in LADDER:
            return f"block {r.index}: unknown ladder step {r.ladder!r}"
    return None


#: Wire-entry keys every honestly-produced service reply carries.
ENTRY_KEYS = (
    "name",
    "order",
    "etas",
    "issue_times",
    "total_nops",
    "seed_nops",
    "omega_calls",
    "completed",
    "degraded",
    "ladder",
    "cache",
    "shed",
)


def validate_entry(entry, expected_name: str, expected_idents) -> Optional[str]:
    """Why a pool worker's reply entry is unacceptable (``None`` if fine).

    The service-layer twin of :func:`validate_records`: cheap structural
    invariants of one ``repro-service/2`` entry.  A reply violating any
    of them was corrupted in flight (or the worker is broken) and the
    job must be retried on a fresh worker — never forwarded to a client.
    """
    if not isinstance(entry, dict):
        return f"payload is {type(entry).__name__}, not an entry object"
    missing = [k for k in ENTRY_KEYS if k not in entry]
    if missing:
        return f"entry is missing keys {missing}"
    if entry["name"] != expected_name:
        return f"entry names {entry['name']!r}, expected {expected_name!r}"
    order = entry["order"]
    if not isinstance(order, (list, tuple)) or sorted(order) != sorted(
        expected_idents
    ):
        return "order is not a permutation of the block's tuples"
    for seq_key in ("etas", "issue_times"):
        seq = entry[seq_key]
        if not isinstance(seq, (list, tuple)) or len(seq) != len(order):
            return f"{seq_key} does not match the order length"
    if min(entry["total_nops"], entry["seed_nops"], entry["omega_calls"]) < 0:
        return "negative NOP or omega count"
    if entry["total_nops"] > entry["seed_nops"]:
        return (
            f"published {entry['total_nops']} NOPs, worse than the "
            f"list seed ({entry['seed_nops']})"
        )
    if entry["completed"] and entry["degraded"]:
        return "completed and degraded are exclusive"
    if entry["ladder"] not in LADDER:
        return f"unknown ladder step {entry['ladder']!r}"
    if entry["cache"] not in ("hit", "miss", "bypass"):
        return f"unknown cache status {entry['cache']!r}"
    return None
