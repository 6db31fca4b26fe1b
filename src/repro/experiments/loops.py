"""Experiment L — modulo software pipelining on the loop kernels.

The straight-line experiments measure one basic block; this table
measures throughput across iterations.  For every kernel in
``repro.synth.loops`` the modulo scheduler's initiation interval is
compared against the steady state the plain list schedule settles into,
with the MII decomposition (resource vs recurrence) alongside so the
bottleneck is visible.  Every kernel is compiled through
:func:`repro.driver.compile_loop`, so each row's schedule has already
passed the independent steady-state certificate and the overlapped
stream was executed against sequential loop semantics before being
reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..driver import compile_loop
from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..sched.search import SearchOptions
from ..synth.loops import LOOP_KERNELS
from .report import format_table, to_csv


@dataclass(frozen=True)
class LoopRow:
    kernel: str
    instructions: int
    searched_ii: int
    list_ii: int
    res_mii: int
    rec_mii: int
    stages: int
    proved: bool

    @property
    def speedup(self) -> float:
        return self.list_ii / self.searched_ii

    @property
    def bottleneck(self) -> str:
        return "rec" if self.rec_mii > self.res_mii else "res"


@dataclass(frozen=True)
class LoopsResult:
    rows: List[LoopRow]
    machine_name: str

    def render(self) -> str:
        table = format_table(
            [
                "kernel",
                "instrs",
                "II",
                "list II",
                "MII (res/rec)",
                "stages",
                "speedup",
                "proved",
            ],
            [
                (
                    r.kernel,
                    r.instructions,
                    r.searched_ii,
                    r.list_ii,
                    f"{max(r.res_mii, r.rec_mii)} "
                    f"({r.res_mii}/{r.rec_mii}, {r.bottleneck}-bound)",
                    r.stages,
                    f"{r.speedup:.2f}x",
                    "yes" if r.proved else "no",
                )
                for r in self.rows
            ],
            title=(
                f"L — modulo-scheduled loop kernels on {self.machine_name} "
                "(certified)"
            ),
        )
        wins = [r for r in self.rows if r.searched_ii < r.list_ii]
        best = max(self.rows, key=lambda r: r.speedup)
        return (
            f"{table}\n"
            f"{len(wins)} of {len(self.rows)} kernels beat the list "
            f"steady state; best is {best.kernel} at {best.speedup:.2f}x "
            f"(II {best.searched_ii} vs {best.list_ii}) — cross-iteration "
            "overlap recovers throughput the acyclic scheduler cannot see"
        )

    def csv(self) -> str:
        return to_csv(
            [
                "kernel",
                "instructions",
                "searched_ii",
                "list_ii",
                "res_mii",
                "rec_mii",
                "stages",
                "speedup",
                "proved",
            ],
            [
                (
                    r.kernel,
                    r.instructions,
                    r.searched_ii,
                    r.list_ii,
                    r.res_mii,
                    r.rec_mii,
                    r.stages,
                    round(r.speedup, 3),
                    int(r.proved),
                )
                for r in self.rows
            ],
        )


def run(
    machine: Optional[MachineDescription] = None,
    kernels: tuple = LOOP_KERNELS,
    engine: str = "fast",
) -> LoopsResult:
    if machine is None:
        machine = paper_simulation_machine()
    rows: List[LoopRow] = []
    for kernel in kernels:
        compiled = compile_loop(
            kernel.source,
            machine,
            options=SearchOptions(engine=engine),
            verify_memory=kernel.memory,
            name=kernel.name,
        )
        result = compiled.result
        rows.append(
            LoopRow(
                kernel=kernel.name,
                instructions=len(compiled.loop.body),
                searched_ii=result.ii,
                list_ii=result.list_ii,
                res_mii=result.res_mii,
                rec_mii=result.rec_mii,
                stages=result.stage_count,
                proved=result.completed,
            )
        )
    return LoopsResult(rows, machine.name)
