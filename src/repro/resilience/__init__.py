"""Fault tolerance for population runs.

Four pieces, composed by :mod:`repro.experiments.parallel` and the
``repro experiments`` CLI:

* :mod:`repro.resilience.budget` — unified wall-clock / Ω-call / memo
  budgets and the ``optimal-search → curtailed-search → split-windows →
  list-seed`` degradation ladder.
* :mod:`repro.resilience.journal` — append-only, fsync'd checkpoint
  journal of completed block records; ``--resume`` replays it.
* :mod:`repro.resilience.supervisor` — heartbeat-based worker
  supervision policy: retry with capped backoff, then poison-quarantine.
* :mod:`repro.resilience.faults` — deterministic (seeded) fault
  injection used by the chaos suite and the ``--chaos`` CLI flag.
"""

from .budget import (
    LADDER,
    STEP_CURTAILED,
    STEP_LIST_SEED,
    STEP_OPTIMAL,
    STEP_SPLIT,
    BlockBudget,
    BudgetManager,
)
from .faults import FaultPlan
from .journal import Journal, JournalError, load_journal
from .supervisor import ChunkSupervisor, SupervisorConfig, validate_records

__all__ = [
    "LADDER",
    "STEP_CURTAILED",
    "STEP_LIST_SEED",
    "STEP_OPTIMAL",
    "STEP_SPLIT",
    "BlockBudget",
    "BudgetManager",
    "FaultPlan",
    "Journal",
    "JournalError",
    "load_journal",
    "ChunkSupervisor",
    "SupervisorConfig",
    "validate_records",
]
