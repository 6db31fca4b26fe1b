"""Extension experiments (X1 and X2 in DESIGN.md).

**X1 — multi-pipeline selection** (paper footnote 3 / section 6).  On the
Tables 2+3 example machine (two loaders, two adders, one multiplier) the
published algorithm must pin each operation class to one pipeline; the
extension searches over the assignment jointly with the order.  Compared
policies: first-pipeline pinning, round-robin pinning, and the joint
search — measured by NOPs and issue-span cycles.

**X2 — block splitting** (section 5.3).  "For very large basic blocks,
it might be useful to split the basic blocks into smaller sections ...
and find solutions which are locally optimal.  A good heuristic for the
split might be to simply partition the list schedule."  We schedule
40-80-instruction blocks monolithically (bounded search) and with the
splitting scheduler, comparing NOPs and Ω calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription, first_pipeline_assignment
from ..machine.presets import paper_example_machine, paper_simulation_machine
from ..sched.multi import round_robin_assignment, schedule_block_multi
from ..sched.search import SearchOptions, schedule_block
from ..sched.splitting import schedule_block_split
from ..synth.population import PopulationSpec, sample_population
from .report import format_table, to_csv
from .runner import mean


# ----------------------------------------------------------------------
# X1 — multi-pipeline selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class X1Row:
    machine: str
    policy: str
    avg_nops: float
    avg_span_cycles: float
    avg_omega: float
    wins: int  # blocks where this policy strictly beat first-pipeline


@dataclass(frozen=True)
class X1Result:
    rows: List[X1Row]
    n_blocks: int
    joint_never_loses: bool

    def render(self) -> str:
        table = format_table(
            ["machine", "assignment policy", "avg NOPs", "avg span (cycles)",
             "avg omega", "blocks beating pinned"],
            [
                (r.machine, r.policy, r.avg_nops, r.avg_span_cycles,
                 r.avg_omega, r.wins)
                for r in self.rows
            ],
            title=f"X1 — pipeline selection ({self.n_blocks} blocks per machine)",
        )
        check = (
            "dominance check: joint search never produced more NOPs than "
            "either pinned policy"
            if self.joint_never_loses
            else "WARNING: joint search lost to a pinned policy on some block!"
        )
        return (
            f"{table}\n{check}\n"
            "on identical twins (Tables 2+3) an optimal order compensates "
            "for any spreading policy; on asymmetric units the joint search "
            "finds schedules no static pinning can reach (footnote 3's "
            "unsupported feature, realized)"
        )

    def csv(self) -> str:
        return to_csv(
            ["machine", "policy", "avg_nops", "avg_span", "avg_omega", "wins"],
            [(r.machine, r.policy, r.avg_nops, r.avg_span_cycles, r.avg_omega,
              r.wins) for r in self.rows],
        )


def run_x1(
    n_blocks: int = 100,
    curtail: int = 30_000,
    master_seed: int = 2023,
    machines: Optional[List[MachineDescription]] = None,
    spec: PopulationSpec = PopulationSpec(),
) -> X1Result:
    if machines is None:
        from ..machine.presets import asymmetric_units_machine

        machines = [paper_example_machine(), asymmetric_units_machine()]
    options = SearchOptions(curtail=curtail)
    rows: List[X1Row] = []
    joint_never_loses = True
    for machine in machines:
        per_policy: dict[str, List[Tuple[int, int, int]]] = {
            "first-pipeline (pinned)": [],
            "round-robin (pinned)": [],
            "joint search (extension)": [],
        }
        for gb in sample_population(n_blocks, master_seed, spec):
            if len(gb.block) == 0:
                continue
            dag = DependenceDAG(gb.block)
            n = len(dag)
            first = schedule_block(
                dag, machine, options,
                assignment=first_pipeline_assignment(dag, machine),
            )
            per_policy["first-pipeline (pinned)"].append(
                (first.final_nops, n + first.final_nops, first.omega_calls)
            )
            rr = schedule_block(
                dag, machine, options,
                assignment=round_robin_assignment(dag, machine),
            )
            per_policy["round-robin (pinned)"].append(
                (rr.final_nops, n + rr.final_nops, rr.omega_calls)
            )
            joint = schedule_block_multi(
                dag,
                machine,
                options,
                extra_incumbents=[
                    (first.best.order, first_pipeline_assignment(dag, machine)),
                    (rr.best.order, round_robin_assignment(dag, machine)),
                ],
            )
            per_policy["joint search (extension)"].append(
                (joint.total_nops, joint.issue_span_cycles, joint.omega_calls)
            )
            if joint.total_nops > min(first.final_nops, rr.final_nops):
                joint_never_loses = False

        baseline = per_policy["first-pipeline (pinned)"]
        for policy, results in per_policy.items():
            wins = sum(
                1 for (nops, _, _), (bnops, _, _) in zip(results, baseline)
                if nops < bnops
            )
            rows.append(
                X1Row(
                    machine=machine.name,
                    policy=policy,
                    avg_nops=mean(r[0] for r in results),
                    avg_span_cycles=mean(r[1] for r in results),
                    avg_omega=mean(r[2] for r in results),
                    wins=wins,
                )
            )
    return X1Result(rows, n_blocks, joint_never_loses)


# ----------------------------------------------------------------------
# X2 — block splitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class X2Row:
    label: str
    avg_nops: float
    avg_omega: float
    max_omega: int
    optimal_or_all_windows: float  # % runs completing (monolithic) / all windows local-opt


@dataclass(frozen=True)
class X2Result:
    rows: List[X2Row]
    n_blocks: int
    avg_size: float
    window: int

    def render(self) -> str:
        table = format_table(
            ["scheduler", "avg NOPs", "avg omega", "max omega", "% complete"],
            [(r.label, r.avg_nops, r.avg_omega, r.max_omega,
              f"{r.optimal_or_all_windows:.0f}")
             for r in self.rows],
            title=(
                f"X2 — block splitting on {self.n_blocks} large blocks "
                f"(avg {self.avg_size:.1f} instructions, window {self.window})"
            ),
        )
        return (
            f"{table}\nsection 5.3's proposal, quantified: splitting bounds "
            "the worst-case search (its omega ceiling is windows x lambda) at "
            "a small NOP premium; with the full prune set the monolithic "
            "search is cheap even at this size, so splitting only pays under "
            "1990-era pruning"
        )

    def csv(self) -> str:
        return to_csv(
            ["scheduler", "avg_nops", "avg_omega", "max_omega", "pct_complete"],
            [(r.label, r.avg_nops, r.avg_omega, r.max_omega,
              r.optimal_or_all_windows)
             for r in self.rows],
        )


def run_x2(
    n_blocks: int = 30,
    window: int = 20,
    curtail: int = 50_000,
    master_seed: int = 7,
    machine: Optional[MachineDescription] = None,
) -> X2Result:
    """Schedule large blocks three ways: monolithically with the paper's
    prune set (the 1990 situation section 5.3 worries about),
    monolithically with the full prune set, and window-by-window."""
    if machine is None:
        machine = paper_simulation_machine()
    # A population skewed to large blocks (40-80 instructions); a wide
    # variable pool keeps dead-store elimination from shrinking them.
    spec = PopulationSpec(
        statement_shape=30.0,
        statement_scale=1.6,
        min_statements=30,
        max_statements=80,
        min_variables=10,
        max_variables=24,
        min_constants=4,
        max_constants=10,
    )
    paper_mono: List[Tuple[int, int, bool]] = []
    full_mono: List[Tuple[int, int, bool]] = []
    split: List[Tuple[int, int, bool]] = []
    sizes: List[int] = []
    for gb in sample_population(n_blocks * 4, master_seed, spec):
        if len(gb.block) < 40:
            continue
        if len(sizes) >= n_blocks:
            break
        dag = DependenceDAG(gb.block)
        sizes.append(len(dag))
        p = schedule_block(dag, machine, SearchOptions.paper(curtail=curtail))
        paper_mono.append((p.final_nops, p.omega_calls, p.completed))
        f = schedule_block(dag, machine, SearchOptions(curtail=curtail))
        full_mono.append((f.final_nops, f.omega_calls, f.completed))
        s = schedule_block_split(
            dag, machine, window=window, curtail_per_window=curtail // 10
        )
        split.append((s.total_nops, s.omega_calls, s.all_windows_completed))

    def row(label: str, results: List[Tuple[int, int, bool]]) -> X2Row:
        return X2Row(
            label,
            mean(r[0] for r in results),
            mean(r[1] for r in results),
            max(r[1] for r in results),
            100.0 * sum(r[2] for r in results) / max(1, len(results)),
        )

    rows = [
        row("monolithic, paper prunes", paper_mono),
        row("monolithic, all prunes", full_mono),
        row(f"split (window={window})", split),
    ]
    return X2Result(rows, len(sizes), mean(sizes), window)
