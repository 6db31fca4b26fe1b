"""A register-level machine: executes *generated assembly*, not tuples.

The tuple-level simulator (:mod:`repro.simulator.core`) shares the
block/DAG data structures with the compiler; this machine does not.  It
knows only what hardware knows — mnemonics, register numbers, variable
names, and the pipeline tables — making it a fully independent check of
the compiler's actual artifact: the assembly text, parsed back by
:mod:`repro.codegen.asmparser`, must execute hazard-free and compute the
source program's semantics.

Hazard model (scoreboard semantics, matching §2.1 exactly):

* each register carries ``(value, ready_at)``: a write at issue cycle t
  with producer latency L binds the register immediately (in-order issue
  serializes WAW/WAR) but marks the value unreadable before ``t + L``;
* reading a register before its ``ready_at`` is a dependence hazard;
* each pipeline refuses a second enqueue within its enqueue time;
* memory behaves like one more destination: a store's variable is
  unreadable before ``issue + store latency``.

Two modes, as in the tuple simulator: *implicit* (hardware stalls) and
*padded/explicit* (the instruction stream's waits must already suffice;
violations raise :class:`RegisterHazardError`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..codegen.asmparser import AsmInstruction, parse_assembly
from ..ir.ops import Opcode
from ..machine.machine import UNPIPELINED_LATENCY, MachineDescription
from ..record import Record, setslot
from ..sched.nop_insertion import InitialConditions


class RegisterHazardError(RuntimeError):
    """The assembly under-waited: a hazard reached the register machine."""


class RegisterTrace(Record):
    """Result of executing an assembly program."""

    __slots__ = ("total_cycles", "stall_cycles", "memory", "registers", "issue_cycles")

    def __init__(self, total_cycles: int, stall_cycles: int, memory: Dict[str, object],
                 registers: Dict[int, object], issue_cycles: Tuple[int, ...]):
        setslot(self, "total_cycles", total_cycles)  # cycle after the last issue
        # waits consumed (padded) or stalls inserted (implicit)
        setslot(self, "stall_cycles", stall_cycles)
        setslot(self, "memory", memory)
        setslot(self, "registers", registers)
        setslot(self, "issue_cycles", issue_cycles)


class RegisterMachine:
    """Executes parsed assembly against a machine description."""

    def __init__(self, machine: MachineDescription):
        self.machine = machine
        if not machine.is_deterministic:
            machine = machine.fixed_assignment()
            self.machine = machine
        self._latency: Dict[Opcode, int] = {}
        self._pipe: Dict[Opcode, Optional[int]] = {}
        for op in Opcode:
            pid = machine.sigma(op)
            self._pipe[op] = pid
            self._latency[op] = (
                UNPIPELINED_LATENCY if pid is None else machine.pipeline(pid).latency
            )

    # ------------------------------------------------------------------
    def run(
        self,
        program: Sequence[AsmInstruction],
        memory: Optional[Mapping[str, object]] = None,
        stall_on_hazard: bool = False,
        initial: Optional[InitialConditions] = None,
    ) -> RegisterTrace:
        """Execute ``program``.

        ``stall_on_hazard=False`` (padded/explicit discipline) raises
        :class:`RegisterHazardError` when the stream's waits are
        insufficient; ``True`` models the implicit interlock instead.
        ``initial`` seeds carry-in pipeline occupancy and variable
        readiness (footnote 1), as on the tuple-level simulator.
        """
        init = initial if initial is not None else InitialConditions()
        mem_value: Dict[str, object] = dict(memory or {})
        mem_ready: Dict[str, int] = dict(init.variable_ready)
        reg_value: Dict[int, object] = {}
        reg_ready: Dict[int, int] = {}
        pipe_free: Dict[int, int] = dict(init.pipe_free)
        cycle = 0
        stalls = 0
        issues: List[int] = []

        for instr in program:
            cycle += instr.wait
            stalls += instr.wait
            earliest = cycle
            for reg in instr.src_regs:
                if reg not in reg_value:
                    raise RegisterHazardError(
                        f"line {instr.line_no}: R{reg} read before any write"
                    )
                earliest = max(earliest, reg_ready.get(reg, 0))
            if instr.opcode is Opcode.LOAD:
                earliest = max(earliest, mem_ready.get(instr.variable, 0))
            elif instr.opcode is Opcode.STORE:
                # Writes to a cell still being written serialize too.
                earliest = max(earliest, mem_ready.get(instr.variable, 0))
            pid = self._pipe[instr.opcode]
            if pid is not None:
                earliest = max(earliest, pipe_free.get(pid, 0))
            if earliest > cycle:
                if stall_on_hazard:
                    stalls += earliest - cycle
                    cycle = earliest
                else:
                    raise RegisterHazardError(
                        f"line {instr.line_no}: {instr.opcode.value} issued "
                        f"at cycle {cycle} but is not safe before "
                        f"cycle {earliest}"
                    )

            latency = self._latency[instr.opcode]
            if pid is not None:
                pipe_free[pid] = cycle + self.machine.pipeline(pid).enqueue_time

            op = instr.opcode
            if op is Opcode.CONST:
                result = instr.immediate
            elif op is Opcode.LOAD:
                if instr.variable not in mem_value:
                    raise RegisterHazardError(
                        f"line {instr.line_no}: load of undefined variable "
                        f"{instr.variable!r}"
                    )
                result = mem_value[instr.variable]
            elif op is Opcode.STORE:
                mem_value[instr.variable] = reg_value[instr.src_regs[0]]
                mem_ready[instr.variable] = cycle + latency
                result = None
            else:
                operands = [reg_value[r] for r in instr.src_regs]
                result = op.evaluate(*operands)
            if instr.dest_reg is not None:
                reg_value[instr.dest_reg] = result
                reg_ready[instr.dest_reg] = cycle + latency

            issues.append(cycle)
            cycle += 1

        return RegisterTrace(
            total_cycles=cycle,
            stall_cycles=stalls,
            memory=mem_value,
            registers=reg_value,
            issue_cycles=tuple(issues),
        )

    def run_text(
        self,
        text: str,
        memory: Optional[Mapping[str, object]] = None,
        stall_on_hazard: bool = False,
        initial: Optional[InitialConditions] = None,
    ) -> RegisterTrace:
        """Parse and execute assembly text in one step."""
        return self.run(parse_assembly(text), memory, stall_on_hazard, initial)
