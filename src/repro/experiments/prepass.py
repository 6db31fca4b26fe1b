"""Experiment A3 — prepass vs postpass scheduling (sections 1 and 3.4).

The paper's structural argument: previous schedulers are "postpass
reorganizers" on register-allocated assembly, where "the register
assignment can impose unnecessary restrictions on the schedule,
resulting in unnecessary execution delays"; this work schedules the
register-free tuple form and allocates afterwards.

The experiment isolates that delta exactly: the same optimal search runs
(a) on the true dependence DAG under a fair register budget (prepass —
the paper's design) and (b) on the DAG plus the anti/output edges a
program-order register allocation induces (postpass — the prior art).
Any NOP difference is attributable purely to scheduling *after*
allocation — no heuristic noise on either side.

Swept over register-file sizes: the tighter the file, the more reuse,
the more artificial serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..postpass.registers import compare_prepass_postpass
from ..regalloc.liveness import max_live
from ..regalloc.spill import insert_spill_code
from ..sched.search import SearchOptions
from ..synth.population import PopulationSpec, sample_population
from .report import format_table, to_csv
from .runner import mean


@dataclass(frozen=True)
class A3Row:
    registers: str  # "tightest" or a number
    blocks: int
    avg_reuse_edges: float
    avg_prepass_nops: float
    avg_postpass_nops: float
    avg_penalty: float
    blocks_penalized_pct: float


@dataclass(frozen=True)
class A3Result:
    rows: List[A3Row]
    penalty_never_negative: bool

    def render(self) -> str:
        table = format_table(
            ["register file", "blocks", "avg reuse edges",
             "prepass NOPs", "postpass NOPs", "penalty", "% blocks hurt"],
            [
                (r.registers, r.blocks, r.avg_reuse_edges,
                 r.avg_prepass_nops, r.avg_postpass_nops, r.avg_penalty,
                 f"{r.blocks_penalized_pct:.0f}")
                for r in self.rows
            ],
            title="A3 — prepass (paper) vs postpass (prior art) scheduling",
        )
        check = (
            "sanity: postpass never beat prepass (its legal schedules are "
            "a subset)"
            if self.penalty_never_negative
            else "WARNING: postpass beat prepass somewhere — investigate!"
        )
        return (
            f"{table}\n{check}\n"
            "paper's claim (sections 1, 3.4): register assignment before "
            "scheduling imposes unnecessary restrictions; the penalty "
            "column is that cost, isolated"
        )

    def csv(self) -> str:
        return to_csv(
            ["registers", "blocks", "avg_reuse_edges", "prepass_nops",
             "postpass_nops", "penalty", "pct_blocks_hurt"],
            [
                (r.registers, r.blocks, r.avg_reuse_edges,
                 r.avg_prepass_nops, r.avg_postpass_nops, r.avg_penalty,
                 r.blocks_penalized_pct)
                for r in self.rows
            ],
        )


def run_a3(
    n_blocks: int = 150,
    register_files: Tuple[Optional[int], ...] = (None, 4, 6, 8),
    curtail: int = 30_000,
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: PopulationSpec = PopulationSpec(),
    engine: str = "fast",
) -> A3Result:
    """Run the prepass-vs-postpass sweep.

    ``None`` in ``register_files`` means "tightest spill-free file"
    (exactly max-live registers, maximum reuse pressure).  Fixed sizes
    smaller than a block's pressure get spill code first, as any real
    compiler would.
    """
    if machine is None:
        machine = paper_simulation_machine()
    options = SearchOptions(curtail=curtail, engine=engine)
    blocks = [
        gb.block
        for gb in sample_population(n_blocks, master_seed, spec)
        if len(gb.block) > 1
    ]
    rows: List[A3Row] = []
    never_negative = True
    for k in register_files:
        penalties: List[int] = []
        pre: List[int] = []
        post: List[int] = []
        edges: List[int] = []
        for block in blocks:
            if k is not None and max_live(block) > k:
                block = insert_spill_code(block, k).block
            comparison = compare_prepass_postpass(block, machine, k, options)
            penalties.append(comparison.delay_penalty)
            pre.append(comparison.prepass.final_nops)
            post.append(comparison.postpass.final_nops)
            edges.append(comparison.reuse_edges)
            if comparison.delay_penalty < 0:
                never_negative = False
        rows.append(
            A3Row(
                registers="tightest" if k is None else str(k),
                blocks=len(penalties),
                avg_reuse_edges=mean(edges),
                avg_prepass_nops=mean(pre),
                avg_postpass_nops=mean(post),
                avg_penalty=mean(penalties),
                blocks_penalized_pct=100.0
                * sum(p > 0 for p in penalties)
                / max(1, len(penalties)),
            )
        )
    return A3Result(rows, never_negative)
