"""Cycle-accurate multi-pipeline execution simulator.

Section 2.2 of the paper describes three architectural implementations of
pipeline delays — implicit interlock, explicit interlock, and NOP
insertion — and argues they are orthogonal to the scheduling problem: a
schedule is good or bad regardless of the enforcement mechanism.  This
simulator makes that claim checkable:

* in **implicit-interlock** mode it receives a bare instruction order and
  stalls in hardware whenever a dependence or conflict would be violated;
* in **NOP-padded** mode it receives an instruction stream with NOPs
  already inserted and faults on any hazard.

Explicit interlock (a Tera-style wait count per instruction) is the
padded check with each wait in place of its NOPs;
:mod:`repro.simulator.register_machine` executes it as assembly text.

The central reproduction invariant (property-tested): for any legal
order, the implicit-interlock cycle count equals ``len(order) +
mu(order)`` computed by the Ω procedure — hardware stalls and compiler
NOPs are the same cycles.

The simulator also executes the instructions (via the tuple evaluators)
so value correctness can be asserted against the reference interpreter.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.dag import DependenceDAG
from ..ir.interp import Value, _step
from ..machine.machine import MachineDescription
from ..record import Record, setslot
from ..sched.nop_insertion import (
    InitialConditions,
    PipelineAssignment,
    SigmaResolver,
)


class HazardError(RuntimeError):
    """A NOP-padded stream violated the pipeline constraints — the
    compiler under-inserted delays."""


class InterlockMode(enum.Enum):
    """The delay disciplines of section 2.2 that run on tuples."""

    IMPLICIT = "implicit"
    NOP_PADDED = "nop-padded"


#: Sentinel for a NOP slot in a padded stream.
NOP = None


class SimulationTrace(Record):
    """Result of simulating one basic block."""

    __slots__ = ("mode", "issue_cycles", "order", "total_cycles", "completion_cycle",
                 "stall_cycles", "memory")

    def __init__(self, mode: InterlockMode, issue_cycles: Tuple[int, ...], order: Tuple[int, ...],
                 total_cycles: int, completion_cycle: int, stall_cycles: int,
                 memory: Dict[str, Value]):
        setslot(self, "mode", mode)
        setslot(self, "issue_cycles", issue_cycles)  # issue cycle of each real instruction
        setslot(self, "order", order)  # tuple idents in issue order
        setslot(self, "total_cycles", total_cycles)  # cycle after the last *issue* (issue span)
        setslot(self, "completion_cycle", completion_cycle)  # cycle when the last result drains
        setslot(self, "stall_cycles", stall_cycles)  # cycles lost to interlocks / NOPs
        setslot(self, "memory", memory)


class PipelineSimulator:
    """Simulates a machine executing one basic block.

    The hardware model matches the compiler model of section 2.1 exactly:

    * an instruction *issues* on some cycle ``t``;
    * if it runs on pipeline ``p``, the next issue into ``p`` is legal at
      ``t + enqueue_time(p)`` or later;
    * its result is available to dependents issuing at
      ``t + latency(p)`` or later (``t + 1`` for unpipelined operations);
    * one instruction (or NOP) issues per cycle.
    """

    def __init__(
        self,
        block: BasicBlock,
        machine: MachineDescription,
        dag: Optional[DependenceDAG] = None,
        assignment: Optional[PipelineAssignment] = None,
        initial: Optional[InitialConditions] = None,
    ):
        self.block = block
        self.machine = machine
        self.dag = dag if dag is not None else DependenceDAG(block)
        self.resolver = SigmaResolver(self.dag, machine, assignment)
        self.initial = initial if initial is not None else InitialConditions()

    # ------------------------------------------------------------------
    def run_implicit(
        self,
        order: Sequence[int],
        memory: Optional[Mapping[str, Value]] = None,
    ) -> SimulationTrace:
        """Hardware interlock: stall each issue until it is hazard-free."""
        return self._run(list(order), InterlockMode.IMPLICIT, memory, waits=None)

    def run_padded(
        self,
        stream: Sequence[Optional[int]],
        memory: Optional[Mapping[str, Value]] = None,
    ) -> SimulationTrace:
        """NOP padding: ``stream`` mixes tuple idents and :data:`NOP`
        slots; every real issue must be hazard-free on arrival."""
        order: List[int] = []
        waits: List[int] = []
        pending = 0
        for slot in stream:
            if slot is NOP:
                pending += 1
            else:
                order.append(slot)
                waits.append(pending)
                pending = 0
        trace = self._run(order, InterlockMode.NOP_PADDED, memory, waits=waits)
        return trace

    # ------------------------------------------------------------------
    def _run(
        self,
        order: List[int],
        mode: InterlockMode,
        memory: Optional[Mapping[str, Value]],
        waits: Optional[List[int]],
    ) -> SimulationTrace:
        if sorted(order) != sorted(self.block.idents):
            raise ValueError("simulation order must cover the whole block")
        if not self.dag.is_legal_order(order):
            raise ValueError("simulation order violates the dependence DAG")

        resolver = self.resolver
        issue_of: Dict[int, int] = {}
        # Earliest next legal issue per pipe, seeded with the carry-in
        # occupancy from preceding blocks (footnote 1).
        pipe_free: Dict[int, int] = dict(self.initial.pipe_free)
        variable_ready = self.initial.variable_ready
        result_ready: Dict[int, int] = {}
        issue_cycles: List[int] = []
        cycle = 0
        stalls = 0

        env: Dict[str, Value] = dict(memory or {})
        values: Dict[int, Value] = {}

        for pos, ident in enumerate(order):
            t = self.block.by_ident(ident)
            if waits is not None:
                cycle += waits[pos]
                stalls += waits[pos]
            earliest = cycle
            pid = resolver.sigma(ident)
            if pid is not None:
                earliest = max(earliest, pipe_free.get(pid, 0))
            if variable_ready and t.variable in variable_ready:
                earliest = max(earliest, variable_ready[t.variable])
            earliest = max(earliest, self.initial.tuple_ready.get(ident, 0))
            for delta in self.dag.rho(ident):
                earliest = max(earliest, result_ready[delta])
            if earliest > cycle:
                if mode is InterlockMode.IMPLICIT:
                    stalls += earliest - cycle
                    cycle = earliest
                else:
                    raise HazardError(
                        f"instruction {ident} ({t.op.value}) issued at cycle "
                        f"{cycle} but is not safe before cycle {earliest} "
                        f"({mode.value} stream under-padded)"
                    )
            issue_of[ident] = cycle
            issue_cycles.append(cycle)
            if pid is not None:
                pipe_free[pid] = cycle + resolver.enqueue_time(ident)
            result_ready[ident] = cycle + resolver.latency(ident)
            _step(t, env, values)
            cycle += 1  # the issue slot itself

        completion = max(result_ready.values(), default=0)
        return SimulationTrace(
            mode=mode,
            issue_cycles=tuple(issue_cycles),
            order=tuple(order),
            total_cycles=cycle,
            completion_cycle=completion,
            stall_cycles=stalls,
            memory=env,
        )


def simulate_schedule(
    block: BasicBlock,
    machine: MachineDescription,
    order: Sequence[int],
    etas: Sequence[int],
    memory: Optional[Mapping[str, Value]] = None,
    assignment: Optional[PipelineAssignment] = None,
) -> SimulationTrace:
    """Simulate a scheduled block as a NOP-padded stream.

    Convenience wrapper validating a scheduler's output end to end: takes
    the (order, etas) a scheduler produced, expands the NOPs, and runs the
    padded stream — raising :class:`HazardError` if the scheduler
    under-inserted NOPs anywhere.
    """
    stream: List[Optional[int]] = []
    for ident, eta in zip(order, etas):
        stream.extend([NOP] * eta)
        stream.append(ident)
    sim = PipelineSimulator(block, machine, assignment=assignment)
    return sim.run_padded(stream, memory)
