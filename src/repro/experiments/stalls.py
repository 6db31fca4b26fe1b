"""Experiment S — stall taxonomy before and after optimal scheduling.

Section 2.1 distinguishes the two reasons an instruction waits —
*dependence* (latency) and *conflict* (enqueue time) — and notes they
"generally do not imply the same amount of delay".  This experiment
classifies every NOP in the corpus by its binding cause
(``repro.analysis.explain_schedule``) under the front end's emission
order and under the optimal schedule, answering a question the paper
leaves implicit: *which kind of stall does optimal scheduling actually
remove?*

Expected shape (and what we find): naive code stalls almost entirely on
dependences — on-demand loading puts consumers right behind producers —
and optimal scheduling eliminates the bulk of those; conflicts are a
minor term on the Tables 4+5 machine (loader enqueue 1 never conflicts;
only back-to-back multiplies can) and are also the stalls least amenable
to reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.timeline import explain_schedule, stall_breakdown
from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..sched.list_scheduler import program_order
from ..sched.nop_insertion import compute_timing
from ..sched.search import SearchOptions, schedule_block
from ..synth.population import PopulationSpec, sample_population
from .report import format_table, to_csv

CAUSES = ("dependence", "conflict")


@dataclass(frozen=True)
class StallsResult:
    naive: Dict[str, int]  # cause -> total NOPs, program order
    optimal: Dict[str, int]  # cause -> total NOPs, optimal schedule
    n_blocks: int
    machine_name: str

    def removed_pct(self, cause: str) -> float:
        before = self.naive.get(cause, 0)
        after = self.optimal.get(cause, 0)
        return 100.0 * (before - after) / before if before else 0.0

    def render(self) -> str:
        rows = []
        for cause in CAUSES:
            rows.append(
                (
                    cause,
                    self.naive.get(cause, 0),
                    self.optimal.get(cause, 0),
                    f"{self.removed_pct(cause):.1f}%",
                )
            )
        total_naive = sum(self.naive.values())
        total_optimal = sum(self.optimal.values())
        rows.append(
            (
                "total",
                total_naive,
                total_optimal,
                f"{100.0 * (total_naive - total_optimal) / max(1, total_naive):.1f}%",
            )
        )
        table = format_table(
            ["stall cause", "naive NOPs", "optimal NOPs", "removed"],
            rows,
            title=(
                f"S — stall taxonomy over {self.n_blocks} blocks "
                f"({self.machine_name})"
            ),
        )
        return (
            f"{table}\n"
            "section 2.1's taxonomy, quantified: on-demand emission stalls "
            "on dependences; scheduling hides them behind independent work, "
            "while conflict stalls (same-pipeline spacing) are both rarer "
            "and harder to remove"
        )

    def csv(self) -> str:
        return to_csv(
            ["cause", "naive_nops", "optimal_nops", "removed_pct"],
            [
                (c, self.naive.get(c, 0), self.optimal.get(c, 0),
                 round(self.removed_pct(c), 2))
                for c in CAUSES
            ],
        )


def run(
    n_blocks: int = 300,
    curtail: int = 20_000,
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: PopulationSpec = PopulationSpec(),
    engine: str = "fast",
) -> StallsResult:
    if machine is None:
        machine = paper_simulation_machine()
    options = SearchOptions(curtail=curtail, engine=engine)
    naive_totals: Dict[str, int] = {}
    optimal_totals: Dict[str, int] = {}
    count = 0
    for gb in sample_population(n_blocks, master_seed, spec):
        block = gb.block
        if len(block) < 2:
            continue
        count += 1
        dag = DependenceDAG(block)
        naive = compute_timing(dag, program_order(dag), machine)
        for cause, nops in stall_breakdown(
            explain_schedule(block, machine, naive, dag=dag)
        ).items():
            naive_totals[cause] = naive_totals.get(cause, 0) + nops
        best = schedule_block(dag, machine, options).best
        for cause, nops in stall_breakdown(
            explain_schedule(block, machine, best, dag=dag)
        ).items():
            optimal_totals[cause] = optimal_totals.get(cause, 0) + nops
    return StallsResult(naive_totals, optimal_totals, count, machine.name)
