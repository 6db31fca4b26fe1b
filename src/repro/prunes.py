"""Prune-event kinds the searches count, shared by every engine.

Kept apart from :mod:`repro.telemetry` so a search can build its
``prune_counts`` mapping without loading the registry.
"""

from __future__ import annotations

from typing import Dict

#: Every prune-event kind the searches report.  ``as_dict`` payloads that
#: went through :meth:`repro.telemetry.Telemetry.record_search` always
#: carry all of them (zero-filled), so downstream tooling can rely on the
#: keys existing.
PRUNE_KINDS = (
    "legality",
    "bounds",
    "equivalence",
    "alpha_beta",
    "curtail",
    "timeout",
    "dominance",
)


def prune_counts(**kinds: int) -> Dict[str, int]:
    """A fully-populated prune-count mapping (unknown kinds rejected)."""
    unknown = set(kinds) - set(PRUNE_KINDS)
    if unknown:
        raise ValueError(f"unknown prune kinds: {sorted(unknown)}")
    return {kind: int(kinds.get(kind, 0)) for kind in PRUNE_KINDS}
