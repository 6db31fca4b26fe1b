"""Independent verification layer — certificate checking and differential
oracles for the schedulers.

The paper's central claim is *optimality*, and everything in ``sched``
shares the Ω implementation in ``nop_insertion`` — a shared bug there
would pass every test that compares schedulers against each other.  This
package is the trust anchor that does not share that code:

* :mod:`repro.verify.certificate` — a second, from-scratch
  implementation of the machine model's timing rules.  It re-derives the
  dependences from the raw tuples, re-resolves pipeline assignments from
  the machine tables, and recomputes every NOP count positionally; it
  imports nothing from ``repro.sched``.
* :mod:`repro.verify.oracle` — runs the list scheduler, the
  branch-and-bound search, the multi-pipeline search, the splitting
  scheduler and (small blocks) brute-force enumeration on one block,
  certifies every result, and checks the invariant lattice between them.
  Failures are written as replayable discrepancy reports.
* :mod:`repro.verify.fuzz` — seeded deterministic block/machine
  generation (no hypothesis dependency) plus the adversarial machine
  gallery, for the ``repro verify`` CLI and CI.
* :mod:`repro.verify.loops` — the loop tier: modulo schedules checked
  against the independent steady-state certificate, the list-schedule
  steady state, and (tiny bodies) a complete brute-force minimum-II
  enumeration.
"""

from .certificate import (
    BruteForceIIResult,
    BruteForceResult,
    CertificateReport,
    LoopCertificateReport,
    Violation,
    brute_force_min_ii,
    brute_force_optimum,
    check_schedule,
    check_steady_state,
    loop_ii_lower_bound,
)
from .fuzz import FuzzResult, adversarial_machines, run_fuzz
from .loops import LoopOracleReport, check_loop, run_loop_suite
from .oracle import Discrepancy, OracleReport, check_block, replay_report

__all__ = [
    "BruteForceIIResult",
    "BruteForceResult",
    "CertificateReport",
    "Discrepancy",
    "FuzzResult",
    "LoopCertificateReport",
    "LoopOracleReport",
    "OracleReport",
    "Violation",
    "adversarial_machines",
    "brute_force_min_ii",
    "brute_force_optimum",
    "check_block",
    "check_loop",
    "check_schedule",
    "check_steady_state",
    "loop_ii_lower_bound",
    "replay_report",
    "run_loop_suite",
    "run_fuzz",
]
