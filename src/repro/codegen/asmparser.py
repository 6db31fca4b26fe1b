"""Parser for the generated assembly text.

Closes the last gap in the round trip: everything else in the test suite
exercises in-memory structures, but a compiler's actual artifact is
*text*.  This parser reads the output of
:func:`repro.codegen.assembly.generate_assembly` (any of the three delay
disciplines) back into instruction records that the register-level
machine (:mod:`repro.simulator.register_machine`) can execute.

Accepted syntax, per line::

    ; comment                      (ignored; also stripped from line ends)
    NOP
    [wait=K] <instruction>         (explicit-interlock prefix)
    LI   Rd, imm
    LD   Rd, var
    ST   var, Rs
    MOV  Rd, Rs
    NEG  Rd, Rs
    ADD|SUB|MUL|DIV  Rd, Ra, Rb
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..ir.ops import Opcode
from ..record import Record, setslot


class AsmSyntaxError(ValueError):
    """Raised on malformed assembly text."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


#: Mnemonic -> (opcode, operand shape).  Shapes: "ri" = reg, imm;
#: "rv" = reg, var; "vr" = var, reg; "rr" = reg, reg; "rrr" = three regs.
MNEMONICS = {
    "LI": (Opcode.CONST, "ri"),
    "LD": (Opcode.LOAD, "rv"),
    "ST": (Opcode.STORE, "vr"),
    "MOV": (Opcode.COPY, "rr"),
    "NEG": (Opcode.NEG, "rr"),
    "ADD": (Opcode.ADD, "rrr"),
    "SUB": (Opcode.SUB, "rrr"),
    "MUL": (Opcode.MUL, "rrr"),
    "DIV": (Opcode.DIV, "rrr"),
}

_REG_RE = re.compile(r"^R(\d+)$")
_WAIT_RE = re.compile(r"^\[wait=(\d+)\]\s*(.*)$")


class AsmInstruction(Record):
    """One parsed instruction (NOPs become ``wait`` on the successor)."""

    __slots__ = ("opcode", "dest_reg", "src_regs", "variable", "immediate", "wait", "line_no")

    def __init__(self, opcode: Opcode, dest_reg: Optional[int] = None,
                 src_regs: Tuple[int, ...] = (), variable: Optional[str] = None,
                 immediate: Optional[int] = None, wait: int = 0, line_no: int = 0):
        setslot(self, "opcode", opcode)
        setslot(self, "dest_reg", dest_reg)  # destination register, if any
        setslot(self, "src_regs", src_regs)
        setslot(self, "variable", variable)  # LD source / ST destination
        setslot(self, "immediate", immediate)
        setslot(self, "wait", wait)  # NOPs / wait-count preceding this instruction
        setslot(self, "line_no", line_no)

    def __str__(self) -> str:
        prefix = f"[wait={self.wait}] " if self.wait else ""
        return f"{prefix}{self.opcode.value} (line {self.line_no})"


def _parse_reg(text: str, line_no: int) -> int:
    m = _REG_RE.match(text.strip())
    if not m:
        raise AsmSyntaxError(f"expected a register, got {text.strip()!r}", line_no)
    return int(m.group(1))


def parse_assembly(text: str) -> List[AsmInstruction]:
    """Parse generated assembly into executable instruction records.

    Standalone ``NOP`` lines fold into the following instruction's
    ``wait`` count (trailing NOPs are dropped — they pad nothing).
    """
    out: List[AsmInstruction] = []
    pending_wait = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        wait_match = _WAIT_RE.match(line)
        explicit_wait = 0
        if wait_match:
            explicit_wait = int(wait_match.group(1))
            line = wait_match.group(2).strip()
            if not line:
                raise AsmSyntaxError("wait tag without an instruction", line_no)
        if line.upper() == "NOP":
            if wait_match:
                raise AsmSyntaxError("NOP cannot carry a wait tag", line_no)
            pending_wait += 1
            continue
        fields = line.replace(",", " ").split()
        mnemonic = fields[0].upper()
        if mnemonic not in MNEMONICS:
            raise AsmSyntaxError(f"unknown mnemonic {fields[0]!r}", line_no)
        opcode, shape = MNEMONICS[mnemonic]
        operands = fields[1:]
        expected = len(shape)
        if len(operands) != expected:
            raise AsmSyntaxError(
                f"{mnemonic} expects {expected} operands, got {len(operands)}",
                line_no,
            )
        wait = pending_wait + explicit_wait
        pending_wait = 0
        if shape == "ri":
            try:
                imm = int(operands[1])
            except ValueError:
                raise AsmSyntaxError(
                    f"bad immediate {operands[1]!r}", line_no
                ) from None
            out.append(
                AsmInstruction(
                    opcode,
                    dest_reg=_parse_reg(operands[0], line_no),
                    immediate=imm,
                    wait=wait,
                    line_no=line_no,
                )
            )
        elif shape == "rv":
            out.append(
                AsmInstruction(
                    opcode,
                    dest_reg=_parse_reg(operands[0], line_no),
                    variable=operands[1],
                    wait=wait,
                    line_no=line_no,
                )
            )
        elif shape == "vr":
            out.append(
                AsmInstruction(
                    opcode,
                    variable=operands[0],
                    src_regs=(_parse_reg(operands[1], line_no),),
                    wait=wait,
                    line_no=line_no,
                )
            )
        elif shape == "rr":
            out.append(
                AsmInstruction(
                    opcode,
                    dest_reg=_parse_reg(operands[0], line_no),
                    src_regs=(_parse_reg(operands[1], line_no),),
                    wait=wait,
                    line_no=line_no,
                )
            )
        else:  # rrr
            out.append(
                AsmInstruction(
                    opcode,
                    dest_reg=_parse_reg(operands[0], line_no),
                    src_regs=(
                        _parse_reg(operands[1], line_no),
                        _parse_reg(operands[2], line_no),
                    ),
                    wait=wait,
                    line_no=line_no,
                )
            )
    return out
