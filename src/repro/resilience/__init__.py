"""Fault tolerance for population runs and the scheduling daemon.

Five pieces, composed by :mod:`repro.experiments.parallel`, the
``repro experiments`` CLI and the ``repro serve`` daemon:

* :mod:`repro.resilience.budget` — unified wall-clock / Ω-call / memo
  budgets and the ``optimal-search → curtailed-search → split-windows →
  list-seed`` degradation ladder.
* :mod:`repro.resilience.journal` — append-only, fsync'd checkpoint
  journal of completed block records; ``--resume`` replays it.
* :mod:`repro.resilience.pool` — the one supervised worker pool:
  crash/hang/corrupt-reply detection, retry with capped backoff, then
  degradation; population chunks and daemon requests are its jobs.
* :mod:`repro.resilience.supervisor` — the pool's policy knobs
  (:class:`SupervisorConfig`) and the reply validators.
* :mod:`repro.resilience.faults` — deterministic (seeded) fault
  injection used by the chaos suites and the ``--chaos`` CLI flags.
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
from .supervisor import SupervisorConfig, validate_records

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
    "SupervisorConfig",
    "validate_records",
]
