"""Experiment K — scheduler comparison on realistic kernels.

The synthetic corpus answers "how often and how fast"; this table
answers "what does it look like on code you would actually write".  For
every kernel in ``repro.synth.kernels`` and every scheduler, it reports
the pipelined issue span (cycles) and the speedup over the front end's
emission order — all results verified against source semantics on the
simulator before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..driver import compile_source
from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..sched.search import SearchOptions
from ..synth.kernels import KERNELS
from .report import format_table, to_csv

COMPARED = ("none", "list", "gross", "optimal")


@dataclass(frozen=True)
class KernelRow:
    kernel: str
    instructions: int
    cycles: dict  # scheduler -> issue span
    optimal_proved: bool

    @property
    def speedup(self) -> float:
        return self.cycles["none"] / self.cycles["optimal"]


@dataclass(frozen=True)
class KernelsResult:
    rows: List[KernelRow]
    machine_name: str

    def render(self) -> str:
        table = format_table(
            ["kernel", "instrs"]
            + [f"{s} (cyc)" for s in COMPARED]
            + ["speedup", "proved"],
            [
                (
                    r.kernel,
                    r.instructions,
                    *[r.cycles[s] for s in COMPARED],
                    f"{r.speedup:.2f}x",
                    "yes" if r.optimal_proved else "no",
                )
                for r in self.rows
            ],
            title=f"K — realistic kernels on {self.machine_name} (verified)",
        )
        worst = min(self.rows, key=lambda r: r.speedup)
        best = max(self.rows, key=lambda r: r.speedup)
        return (
            f"{table}\n"
            f"range: {worst.kernel} gains {worst.speedup:.2f}x (serial "
            f"chain, nothing to overlap) .. {best.kernel} gains "
            f"{best.speedup:.2f}x — scheduling pays exactly where the "
            "paper's intro says it does"
        )

    def csv(self) -> str:
        return to_csv(
            ["kernel", "instructions"] + list(COMPARED) + ["speedup", "proved"],
            [
                (
                    r.kernel,
                    r.instructions,
                    *[r.cycles[s] for s in COMPARED],
                    round(r.speedup, 3),
                    int(r.optimal_proved),
                )
                for r in self.rows
            ],
        )


def run(
    machine: Optional[MachineDescription] = None,
    kernels: tuple = KERNELS,
    engine: str = "fast",
) -> KernelsResult:
    if machine is None:
        machine = paper_simulation_machine()
    rows: List[KernelRow] = []
    for kernel in kernels:
        cycles = {}
        proved = False
        size = 0
        for scheduler in COMPARED:
            result = compile_source(
                kernel.source,
                machine,
                scheduler=scheduler,
                options=SearchOptions(engine=engine),
                verify_memory=kernel.memory,
                name=kernel.name,
            )
            cycles[scheduler] = result.issue_span_cycles
            size = len(result.block)
            if scheduler == "optimal":
                proved = result.search.completed
        rows.append(KernelRow(kernel.name, size, cycles, proved))
    return KernelsResult(rows, machine.name)
