"""Table 1 — search-space size for representative example blocks.

Paper::

    Instructions  Exhaustive     Pruning Illegal  Proposed Pruning
    In Block      Search Calls   Calls            Calls
    8             40,320         163              76
    11            39,916,800     9,039            12
    13            6.2x10^9       65,105           394
    13            6.2x10^9       40,240           21
    14            8.7x10^10      175,384          1,676
    16            2.1x10^13      27,487           17
    16            2.1x10^13      5,800,000        66,890
    16            2.1x10^13      92,228,324       5,434
    20            2.4x10^18      12,872           334
    21            5.1x10^19      58,581           202
    22            1.1x10^21      >9,999,000       119

Reproduction: representative synthetic blocks of the same sizes (two or
three per size, different dependence structures), reporting

* ``n!`` — the unpruned exhaustive search (computed, not run);
* the count of *legal* schedules (topological orders), capped at 10^7 and
  reported as ``>9,999,000`` beyond it, exactly as the paper does;
* the Ω calls of the proposed search (``SearchOptions.paper()`` so the
  prune set matches the published algorithm; the full-prune count is also
  shown).

The shape to match: legal-only pruning leaves 10^2..10^8 schedules with
no size correlation (structure, not size, governs the space — section
2.3's closing remark), while the proposed search touches only 10^1..10^5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir.dag import COUNT_CAPPED, DependenceDAG
from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..sched.exhaustive import LEGAL_COUNT_CAP, count_legal_orders, exhaustive_search_size
from ..sched.search import SearchOptions, schedule_block
from ..synth.population import sample_population
from .report import format_table, to_csv

#: Block sizes of the paper's representative examples.
PAPER_SIZES = (8, 11, 13, 13, 14, 16, 16, 16, 20, 21, 22)


@dataclass(frozen=True)
class Table1Row:
    size: int
    exhaustive_calls: int
    legal_calls: int  # COUNT_CAPPED when above the cap
    proposed_calls_paper_prunes: int
    proposed_calls_all_prunes: int
    optimal_nops: int

    def cells(self) -> Tuple[object, ...]:
        legal = (
            f">{LEGAL_COUNT_CAP - 1_000:,}"
            if self.legal_calls == COUNT_CAPPED
            else self.legal_calls
        )
        return (
            self.size,
            _sci(self.exhaustive_calls),
            legal,
            self.proposed_calls_paper_prunes,
            self.proposed_calls_all_prunes,
        )


def _sci(value: int) -> str:
    if value < 10**9:
        return f"{value:,}"
    text = f"{value:.1e}"
    mantissa, exponent = text.split("e")
    return f"{mantissa}x10^{int(exponent)}"


@dataclass(frozen=True)
class Table1Result:
    rows: List[Table1Row]

    def render(self) -> str:
        table = format_table(
            [
                "Instructions",
                "Exhaustive Calls",
                "Legal-Only Calls",
                "Proposed (paper prunes)",
                "Proposed (all prunes)",
            ],
            [r.cells() for r in self.rows],
            title="Table 1 — search space for representative examples",
        )
        return (
            table
            + "\npaper:    proposed pruning visits 12..66,890 schedules "
            "where legal-only needs 10^4..10^8"
        )

    def csv(self) -> str:
        return to_csv(
            [
                "size",
                "exhaustive",
                "legal",
                "proposed_paper_prunes",
                "proposed_all_prunes",
                "optimal_nops",
            ],
            [
                (
                    r.size,
                    r.exhaustive_calls,
                    r.legal_calls,
                    r.proposed_calls_paper_prunes,
                    r.proposed_calls_all_prunes,
                    r.optimal_nops,
                )
                for r in self.rows
            ],
        )


def _blocks_of_sizes(
    sizes: Tuple[int, ...], master_seed: int
) -> List[DependenceDAG]:
    """Fish representative blocks of the requested sizes out of the
    population stream (same generator as every other experiment)."""
    wanted: List[int] = list(sizes)
    found: List[Optional[DependenceDAG]] = [None] * len(wanted)
    for gb in sample_population(50_000, master_seed):
        size = len(gb.block)
        for slot, want in enumerate(wanted):
            if found[slot] is None and size == want:
                found[slot] = DependenceDAG(gb.block)
                break
        if all(f is not None for f in found):
            break
    return [f for f in found if f is not None]


def run(
    sizes: Tuple[int, ...] = PAPER_SIZES,
    master_seed: int = 1701,
    machine: Optional[MachineDescription] = None,
    curtail: int = 200_000,
    engine: str = "fast",
) -> Table1Result:
    """Run the Table 1 experiment."""
    if machine is None:
        machine = paper_simulation_machine()
    paper = SearchOptions.paper(curtail)._replace(engine=engine)
    full = SearchOptions(curtail=curtail, engine=engine)
    rows: List[Table1Row] = []
    for dag in _blocks_of_sizes(sizes, master_seed):
        n = len(dag)
        legal = count_legal_orders(dag, LEGAL_COUNT_CAP)
        paper_result = schedule_block(dag, machine, paper)
        full_result = schedule_block(dag, machine, full)
        rows.append(
            Table1Row(
                size=n,
                exhaustive_calls=exhaustive_search_size(n),
                legal_calls=legal,
                proposed_calls_paper_prunes=paper_result.omega_calls,
                proposed_calls_all_prunes=full_result.omega_calls,
                optimal_nops=full_result.final_nops,
            )
        )
    rows.sort(key=lambda r: r.size)
    return Table1Result(rows)
