"""Ablation experiments (A1 and A2 in DESIGN.md).

**A1 — pruning contributions.**  The paper's claim is that each heuristic
"prunes the search space dramatically" without sacrificing optimality.
We quantify every prune's contribution by switching it off individually
(and by degrading the seed to program order), measuring completion rate
and Ω calls on a shared block population.  Because all prunes are
optimality-preserving, the *final NOPs of completed searches never
change* across configurations — the harness asserts this.

**A2 — curtail-point sensitivity.**  Section 5.3: for truncated searches,
"increasing the runtime curtail point by fifty fold did not cause the
search to run to completion ... however, neither did the best schedule
change", i.e. the search converges to near-optimal long before it can
prove optimality.  We re-run every truncated block at multiples of λ and
report how often the schedule improves at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..sched.search import SearchOptions, schedule_block
from ..synth.population import PopulationSpec, sample_population
from .report import format_table, to_csv
from .runner import mean

#: The prune/seed configurations compared by A1.
A1_CONFIGS: Tuple[Tuple[str, SearchOptions], ...] = (
    ("all prunes (default)", SearchOptions()),
    ("no alpha-beta", SearchOptions(alpha_beta=False)),
    ("no equivalence (5c)", SearchOptions(equivalence_prune=False)),
    ("no lower bounds", SearchOptions(lower_bound_prune=False)),
    ("no dominance memo", SearchOptions(dominance_prune=False)),
    ("no heuristic seeds", SearchOptions(heuristic_seeds=False)),
    ("program-order seed", SearchOptions(seed_with_list_schedule=False)),
    ("seed-order candidates", SearchOptions(cheapest_first=False)),
    ("paper prunes only", SearchOptions.paper()),
)


@dataclass(frozen=True)
class AblationRow:
    label: str
    completed_pct: float
    avg_omega: float
    median_omega: float
    avg_final_nops: float


@dataclass(frozen=True)
class A1Result:
    rows: List[AblationRow]
    n_blocks: int
    curtail: int
    optimality_consistent: bool  # completed searches agree across configs

    def render(self) -> str:
        table = format_table(
            ["configuration", "% complete", "avg omega", "median omega",
             "avg final NOPs"],
            [
                (r.label, f"{r.completed_pct:.1f}", r.avg_omega,
                 r.median_omega, r.avg_final_nops)
                for r in self.rows
            ],
            title=(
                f"A1 — pruning ablation over {self.n_blocks} blocks "
                f"(lambda = {self.curtail:,})"
            ),
        )
        check = (
            "optimality check: all configurations agree on every "
            "mutually-completed block (prunes are optimality-preserving)"
            if self.optimality_consistent
            else "WARNING: configurations disagreed on a completed block!"
        )
        return f"{table}\n{check}"

    def csv(self) -> str:
        return to_csv(
            ["configuration", "completed_pct", "avg_omega", "median_omega",
             "avg_final_nops"],
            [
                (r.label, r.completed_pct, r.avg_omega, r.median_omega,
                 r.avg_final_nops)
                for r in self.rows
            ],
        )


def run_a1(
    n_blocks: int = 300,
    curtail: int = 20_000,
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: PopulationSpec = PopulationSpec(),
) -> A1Result:
    if machine is None:
        machine = paper_simulation_machine()
    dags = [
        DependenceDAG(gb.block)
        for gb in sample_population(n_blocks, master_seed, spec)
        if len(gb.block) > 0
    ]
    rows: List[AblationRow] = []
    # per-block final NOPs of *completed* searches, per config, for the
    # optimality-consistency cross-check.
    completed_finals: List[Dict[int, int]] = []
    for label, base in A1_CONFIGS:
        options = replace(base, curtail=curtail)
        omegas: List[int] = []
        finals: List[int] = []
        done = 0
        finals_map: Dict[int, int] = {}
        for idx, dag in enumerate(dags):
            result = schedule_block(dag, machine, options)
            omegas.append(result.omega_calls)
            finals.append(result.final_nops)
            if result.completed:
                done += 1
                finals_map[idx] = result.final_nops
        completed_finals.append(finals_map)
        omegas_sorted = sorted(omegas)
        rows.append(
            AblationRow(
                label=label,
                completed_pct=100.0 * done / len(dags),
                avg_omega=mean(omegas),
                median_omega=omegas_sorted[len(omegas_sorted) // 2],
                avg_final_nops=mean(finals),
            )
        )
    consistent = True
    reference = completed_finals[0]
    for finals_map in completed_finals[1:]:
        for idx, nops in finals_map.items():
            if idx in reference and reference[idx] != nops:
                consistent = False
    return A1Result(rows, len(dags), curtail, consistent)


# ----------------------------------------------------------------------
# A2 — curtail sensitivity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class A2Row:
    multiplier: int
    curtail: int
    still_truncated: int
    improved: int
    avg_final_nops: float


@dataclass(frozen=True)
class A2Result:
    rows: List[A2Row]
    n_truncated: int
    base_curtail: int

    def render(self) -> str:
        table = format_table(
            ["lambda multiplier", "lambda", "still truncated", "schedules improved",
             "avg final NOPs"],
            [
                (f"x{r.multiplier}", r.curtail, r.still_truncated, r.improved,
                 r.avg_final_nops)
                for r in self.rows
            ],
            title=(
                f"A2 — curtail sensitivity on {self.n_truncated} truncated "
                f"blocks (base lambda = {self.base_curtail:,})"
            ),
        )
        return (
            f"{table}\npaper: a fifty-fold larger lambda neither completed the "
            "searches nor changed the best schedules found"
        )

    def csv(self) -> str:
        return to_csv(
            ["multiplier", "curtail", "still_truncated", "improved", "avg_final_nops"],
            [
                (r.multiplier, r.curtail, r.still_truncated, r.improved,
                 r.avg_final_nops)
                for r in self.rows
            ],
        )


def run_a2(
    n_blocks: int = 2_000,
    base_curtail: int = 2_000,
    multipliers: Tuple[int, ...] = (1, 10, 50),
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: PopulationSpec = PopulationSpec(),
) -> A2Result:
    """Find truncated blocks at a modest λ, then raise λ and watch.

    A deliberately small ``base_curtail`` is used so that truncation
    actually occurs often enough to study (at production λ almost nothing
    truncates — Table 7).
    """
    if machine is None:
        machine = paper_simulation_machine()
    truncated: List[Tuple[DependenceDAG, int]] = []
    base = SearchOptions(curtail=base_curtail)
    for gb in sample_population(n_blocks, master_seed, spec):
        if len(gb.block) == 0:
            continue
        dag = DependenceDAG(gb.block)
        result = schedule_block(dag, machine, base)
        if not result.completed:
            truncated.append((dag, result.final_nops))

    rows: List[A2Row] = []
    for multiplier in multipliers:
        options = SearchOptions(curtail=base_curtail * multiplier)
        still = 0
        improved = 0
        finals: List[int] = []
        for dag, base_nops in truncated:
            result = schedule_block(dag, machine, options)
            finals.append(result.final_nops)
            if not result.completed:
                still += 1
            if result.final_nops < base_nops:
                improved += 1
        rows.append(
            A2Row(
                multiplier=multiplier,
                curtail=base_curtail * multiplier,
                still_truncated=still,
                improved=improved,
                avg_final_nops=mean(finals),
            )
        )
    return A2Result(rows, len(truncated), base_curtail)
