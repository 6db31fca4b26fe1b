"""Code generation: scheduled tuples to target assembly (section 3.4).

"It is assumed that the tuple operations are defined so that each tuple
corresponds directly to one target machine instruction, hence this
transformation is easily accomplished."  The synthetic target ISA is a
three-address register machine:

=========  =====================  =================
tuple      assembly               meaning
=========  =====================  =================
Const      ``LI   Rd, imm``       load immediate
Load       ``LD   Rd, var``       load from memory
Store      ``ST   var, Rs``       store to memory
Copy       ``MOV  Rd, Rs``        register move
Neg        ``NEG  Rd, Rs``        negate
Add/...    ``ADD  Rd, Ra, Rb``    arithmetic
(delay)    ``NOP``                null operation
=========  =====================  =================

All three delay disciplines of section 2.2 are emitted from the same
schedule:

* :data:`DelayDiscipline.NOP_PADDED` — ``eta(i)`` NOP lines before each
  instruction (MIPS-style; the paper's canonical presentation);
* :data:`DelayDiscipline.EXPLICIT_INTERLOCK` — each instruction prefixed
  with a Tera-style ``wait=k`` tag holding its eta;
* :data:`DelayDiscipline.IMPLICIT_INTERLOCK` — bare instructions; the
  hardware stalls (etas appear only as comments).

The emitted NOP-padded and explicit streams replay exactly on the
cycle-accurate simulator, which is how tests close the loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.ops import Opcode
from ..ir.tuples import ConstOperand, RefOperand
from ..machine.machine import DelayDiscipline
from ..record import Record, setslot
from ..regalloc.allocator import RegisterAllocation
from ..sched.nop_insertion import ScheduleTiming


_MNEMONICS = {
    Opcode.ADD: "ADD",
    Opcode.SUB: "SUB",
    Opcode.MUL: "MUL",
    Opcode.DIV: "DIV",
}


class AssemblyProgram(Record):
    """Generated assembly for one scheduled block."""

    __slots__ = ("name", "discipline", "lines", "num_registers_used", "nop_count")

    def __init__(self, name: str, discipline: DelayDiscipline, lines: Tuple[str, ...],
                 num_registers_used: int, nop_count: int):
        setslot(self, "name", name)
        setslot(self, "discipline", discipline)
        setslot(self, "lines", lines)
        setslot(self, "num_registers_used", num_registers_used)
        setslot(self, "nop_count", nop_count)

    def __str__(self) -> str:
        return "\n".join(self.lines)

    @property
    def instruction_count(self) -> int:
        """Real (non-NOP, non-comment) instructions."""
        return sum(
            1
            for line in self.lines
            if line.strip() and not line.strip().startswith(";")
            and line.strip() != "NOP"
        )


def _render_instruction(
    t, allocation: RegisterAllocation, reg_names: Dict[int, str]
) -> str:
    op = t.op
    if op is Opcode.CONST:
        assert isinstance(t.alpha, ConstOperand)
        return f"LI   {reg_names[t.ident]}, {t.alpha.value}"
    if op is Opcode.LOAD:
        return f"LD   {reg_names[t.ident]}, {t.variable}"
    if op is Opcode.STORE:
        assert isinstance(t.beta, RefOperand)
        return f"ST   {t.variable}, {reg_names[t.beta.ref]}"
    if op is Opcode.COPY:
        assert isinstance(t.alpha, RefOperand)
        return f"MOV  {reg_names[t.ident]}, {reg_names[t.alpha.ref]}"
    if op is Opcode.NEG:
        assert isinstance(t.alpha, RefOperand)
        return f"NEG  {reg_names[t.ident]}, {reg_names[t.alpha.ref]}"
    assert isinstance(t.alpha, RefOperand) and isinstance(t.beta, RefOperand)
    return (
        f"{_MNEMONICS[op]}  {reg_names[t.ident]}, "
        f"{reg_names[t.alpha.ref]}, {reg_names[t.beta.ref]}"
    )


def generate_assembly(
    block: BasicBlock,
    timing: ScheduleTiming,
    allocation: RegisterAllocation,
    discipline: DelayDiscipline = DelayDiscipline.NOP_PADDED,
    comment_timing: bool = False,
) -> AssemblyProgram:
    """Emit assembly for a scheduled, register-allocated block.

    ``timing`` and ``allocation`` must describe the same order.
    """
    if timing.order != allocation.order:
        raise ValueError("timing and allocation describe different orders")

    reg_names = {
        ident: f"R{reg}" for ident, reg in allocation.registers.items()
    }
    lines: List[str] = [f"; block {block.name} ({discipline.value})"]
    nops = 0
    for pos, ident in enumerate(timing.order):
        t = block.by_ident(ident)
        eta = timing.etas[pos]
        body = _render_instruction(t, allocation, reg_names)
        suffix = (
            f"    ; t={timing.issue_times[pos]}" if comment_timing else ""
        )
        if discipline is DelayDiscipline.NOP_PADDED:
            lines.extend(["NOP"] * eta)
            nops += eta
            lines.append(body + suffix)
        elif discipline is DelayDiscipline.EXPLICIT_INTERLOCK:
            lines.append(f"[wait={eta}] {body}{suffix}")
        else:  # implicit interlock: hardware finds the delays itself
            note = f"    ; hw stalls {eta}" if eta and comment_timing else suffix
            lines.append(body + note)

    return AssemblyProgram(
        name=block.name,
        discipline=discipline,
        lines=tuple(lines),
        num_registers_used=allocation.num_registers_used,
        nop_count=nops,
    )


def padded_stream(timing: ScheduleTiming) -> List[Optional[int]]:
    """The (ident | NOP) issue stream a NOP-padded program induces —
    directly consumable by :func:`repro.simulator.PipelineSimulator.run_padded`."""
    stream: List[Optional[int]] = []
    for ident, eta in zip(timing.order, timing.etas):
        stream.extend([None] * eta)
        stream.append(ident)
    return stream


def explicit_stream(timing: ScheduleTiming) -> List[Tuple[int, int]]:
    """(ident, wait) pairs for the explicit-interlock discipline."""
    return list(zip(timing.order, timing.etas))
