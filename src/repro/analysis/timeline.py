"""Pipeline-occupancy timelines — a cycle-by-cycle view of a schedule.

Renders the machine's pipelines against the clock for one scheduled
block: which instruction issues each cycle, which pipelines are accepting
work, holding results in flight, or refusing enqueues.  The pictures make
the latency/enqueue distinction of section 2.1 tangible and are used by
the examples and the ``repro compile --show timeline`` output.

Legend per pipeline column::

    #   the cycle an operation enqueues into this pipeline
    =   pipeline cannot accept another enqueue (enqueue-time window)
    -   result still in flight (latency window, enqueues allowed)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.block import BasicBlock
from ..ir.dag import DependenceDAG
from ..ir.textual import format_tuple
from ..machine.machine import MachineDescription
from ..sched.nop_insertion import (
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
)


def render_timeline(
    block: BasicBlock,
    machine: MachineDescription,
    timing: ScheduleTiming,
    assignment: Optional[PipelineAssignment] = None,
    initial: Optional[InitialConditions] = None,
    dag: Optional[DependenceDAG] = None,
) -> str:
    """An ASCII Gantt chart of one schedule."""
    if dag is None:
        dag = DependenceDAG(block)
    resolver = SigmaResolver(dag, machine, assignment)
    span = timing.issue_times[-1] + 1 if timing.order else 0
    drain = 0
    for pos, ident in enumerate(timing.order):
        drain = max(drain, timing.issue_times[pos] + resolver.latency(ident))
    total = max(span, drain)

    pipes = list(machine.pipelines)
    issue_at: Dict[int, int] = {
        t: ident for ident, t in zip(timing.order, timing.issue_times)
    }

    # Per-pipeline per-cycle state.
    marks: Dict[int, List[str]] = {p.ident: [" "] * total for p in pipes}
    if initial is not None:
        for pid, free_at in initial.pipe_free.items():
            if pid in marks:
                for cycle in range(min(free_at, total)):
                    marks[pid][cycle] = "="
    for pos, ident in enumerate(timing.order):
        pid = resolver.sigma(ident)
        if pid is None:
            continue
        issued = timing.issue_times[pos]
        latency = resolver.latency(ident)
        enqueue = resolver.enqueue_time(ident)
        for cycle in range(issued, min(issued + latency, total)):
            if marks[pid][cycle] == " ":
                marks[pid][cycle] = "-"
        for cycle in range(issued, min(issued + enqueue, total)):
            marks[pid][cycle] = "="
        marks[pid][issued] = "#"

    label_width = max(
        (len(format_tuple(block.by_ident(i))) for i in timing.order),
        default=0,
    )
    header = f"{'cycle':>5}  {'issued':<{label_width}}"
    for p in pipes:
        header += f"  {p.function[:10]:^10}"
    lines = [header, "-" * len(header)]
    for cycle in range(total):
        ident = issue_at.get(cycle)
        label = format_tuple(block.by_ident(ident)) if ident is not None else (
            "(nop)" if cycle < span else "(drain)"
        )
        row = f"{cycle:>5}  {label:<{label_width}}"
        for p in pipes:
            row += f"  {marks[p.ident][cycle]:^10}"
        lines.append(row.rstrip())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Stall explanation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StallExplanation:
    """Why one instruction's eta is what it is."""

    ident: int
    position: int
    eta: int
    cause: str  # "none" | "dependence" | "conflict" | "carry-in"
    detail: str

    def __str__(self) -> str:
        if self.eta == 0:
            return f"instruction {self.ident}: no stall"
        return (
            f"instruction {self.ident}: {self.eta} NOP(s) — "
            f"{self.cause}: {self.detail}"
        )


def explain_schedule(
    block: BasicBlock,
    machine: MachineDescription,
    timing: ScheduleTiming,
    assignment: Optional[PipelineAssignment] = None,
    initial: Optional[InitialConditions] = None,
    dag: Optional[DependenceDAG] = None,
) -> List[StallExplanation]:
    """Attribute every NOP to its binding constraint.

    For each instruction, recomputes the dependence, conflict, and
    carry-in bounds on its issue time and names the one that actually
    forced the delay (the section 2.1 taxonomy, mechanized).
    """
    if dag is None:
        dag = DependenceDAG(block)
    resolver = SigmaResolver(dag, machine, assignment)
    init = initial if initial is not None else InitialConditions()
    out: List[StallExplanation] = []
    issue_of = {
        ident: t for ident, t in zip(timing.order, timing.issue_times)
    }
    last_pipe_issue: Dict[int, int] = {}

    for pos, ident in enumerate(timing.order):
        eta = timing.etas[pos]
        issued = timing.issue_times[pos]
        base = timing.issue_times[pos - 1] + 1 if pos else 0
        cause, detail = "none", ""
        if eta > 0:
            best_bound = base
            pid = resolver.sigma(ident)
            if pid is not None:
                last = last_pipe_issue.get(pid)
                if last is not None:
                    bound = last + resolver.enqueue_time(ident)
                    if bound > best_bound:
                        best_bound = bound
                        cause = "conflict"
                        detail = (
                            f"pipeline {pid} busy until cycle {bound} "
                            f"(enqueue time "
                            f"{resolver.enqueue_time(ident)})"
                        )
                elif pid in init.pipe_free and init.pipe_free[pid] > best_bound:
                    best_bound = init.pipe_free[pid]
                    cause = "carry-in"
                    detail = f"pipeline {pid} carried busy until cycle {best_bound}"
            t = block.by_ident(ident)
            if t.variable is not None and t.variable in init.variable_ready:
                bound = init.variable_ready[t.variable]
                if bound > best_bound:
                    best_bound = bound
                    cause = "carry-in"
                    detail = (
                        f"variable {t.variable!r} not ready before cycle {bound}"
                    )
            for delta in dag.rho(ident):
                bound = issue_of[delta] + resolver.latency(delta)
                if bound > best_bound:
                    best_bound = bound
                    cause = "dependence"
                    detail = (
                        f"waits for tuple {delta} "
                        f"(latency {resolver.latency(delta)}, "
                        f"issued cycle {issue_of[delta]})"
                    )
        pid = resolver.sigma(ident)
        if pid is not None:
            last_pipe_issue[pid] = issued
        out.append(StallExplanation(ident, pos, eta, cause, detail))
    return out


def stall_breakdown(explanations: List[StallExplanation]) -> Dict[str, int]:
    """Total NOPs per cause — the dependence/conflict split of §2.1."""
    out: Dict[str, int] = {}
    for e in explanations:
        if e.eta:
            out[e.cause] = out.get(e.cause, 0) + e.eta
    return out


def pipeline_utilization(
    block: BasicBlock,
    machine: MachineDescription,
    timing: ScheduleTiming,
    assignment: Optional[PipelineAssignment] = None,
    dag: Optional[DependenceDAG] = None,
) -> Dict[int, float]:
    """Fraction of the issue span each pipeline spends enqueue-busy."""
    if dag is None:
        dag = DependenceDAG(block)
    resolver = SigmaResolver(dag, machine, assignment)
    span = timing.issue_span_cycles or 1
    busy: Dict[int, int] = {p.ident: 0 for p in machine.pipelines}
    for pos, ident in enumerate(timing.order):
        pid = resolver.sigma(ident)
        if pid is not None:
            busy[pid] += resolver.enqueue_time(ident)
    return {pid: min(1.0, cycles / span) for pid, cycles in busy.items()}
