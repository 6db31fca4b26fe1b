"""Inter-block scheduling — the paper's footnote 1.

*"Interactions between adjacent blocks can be managed without major
modification of the basic block schedules, essentially by modifying the
initial conditions in the analysis for each block."*

This module supplies exactly those initial conditions and a driver that
threads them through a straight-line sequence of basic blocks:

* :class:`InitialConditions` — per-pipeline earliest-enqueue cycles (an
  operation issued near the end of the previous block can keep its
  pipeline busy into this one) and per-variable earliest-read cycles
  (for memory systems whose stores take observable time — e.g. the
  CARP-style interconnection-network accesses the paper cites).
* :func:`carry_out` — the conditions a scheduled block hands its
  successor (it lives in :mod:`repro.sched.nop_insertion`, which the loop
  pipeliner loads anyway, and is re-exported here).
* :func:`schedule_sequence` — optimally schedule each block of a
  sequence under the conditions left by its predecessors; the resulting
  concatenated instruction stream is hazard-free by construction
  (property-tested against the simulator).

Scheduling remains per-block (no instruction crosses a block boundary),
exactly as the footnote prescribes; only the *analysis* sees the
neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from .nop_insertion import InitialConditions, carry_out
from .search import SearchOptions, SearchResult, schedule_block


@dataclass(frozen=True)
class ScheduledSequence:
    """A straight-line program of scheduled blocks."""

    results: Tuple[SearchResult, ...]
    conditions: Tuple[InitialConditions, ...]  # carry-in of each block

    @property
    def total_nops(self) -> int:
        return sum(r.final_nops for r in self.results)

    @property
    def total_cycles(self) -> int:
        """Issue cycles of the concatenated stream."""
        return sum(r.best.issue_span_cycles for r in self.results)

    @property
    def all_completed(self) -> bool:
        return all(r.completed for r in self.results)

    def __len__(self) -> int:
        return len(self.results)


def schedule_sequence(
    blocks: Sequence[BasicBlock],
    machine: MachineDescription,
    options: SearchOptions = SearchOptions(),
    entry_conditions: InitialConditions = InitialConditions(),
) -> ScheduledSequence:
    """Schedule each block optimally under its predecessors' carry-out.

    Returns the per-block search results and the carry-in conditions each
    block was scheduled with.  Concatenating the blocks' NOP-padded
    streams yields a hazard-free whole-program stream (the simulator
    verifies this in the test suite).
    """
    results: List[SearchResult] = []
    conditions: List[InitialConditions] = []
    incoming = entry_conditions
    for block in blocks:
        dag = DependenceDAG(block)
        conditions.append(incoming)
        result = schedule_block(
            dag, machine, options, initial_conditions=incoming
        )
        results.append(result)
        incoming = carry_out(result.best, dag, machine)
    return ScheduledSequence(tuple(results), tuple(conditions))
