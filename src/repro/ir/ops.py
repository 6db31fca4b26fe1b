"""Operation types for the tuple intermediate form.

The paper (section 3.1) represents each instruction as a tuple
``(i, O, alpha, beta)`` where ``O`` is the operation type.  The operation
vocabulary used throughout the paper's examples and its synthetic
benchmarks is small: ``Const``, ``Load``, ``Store`` and the four binary
arithmetic operations ``Add``, ``Sub``, ``Mul``, ``Div``.  We add ``Neg``
(unary minus) and ``Copy`` (register-to-register move) because the front
end's source language needs them; both behave like single-cycle,
non-pipelined operations by default, exactly like ``Add``/``Sub`` on the
paper's simulation machine.

Each opcode carries enough static information for the rest of the system:
its arity, whether it produces a value, whether it reads or writes memory,
and (for the arithmetic opcodes) a Python evaluator used by the reference
interpreter.
"""

from __future__ import annotations

import enum
from typing import Callable


class Opcode(enum.Enum):
    """Operation type ``O`` of a tuple ``(i, O, alpha, beta)``."""

    CONST = "Const"
    LOAD = "Load"
    STORE = "Store"
    COPY = "Copy"
    NEG = "Neg"
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    DIV = "Div"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # ------------------------------------------------------------------
    # Static classification
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of operands the opcode consumes."""
        return _ARITY[self]

    @property
    def produces_value(self) -> bool:
        """True when other tuples may reference this tuple's result."""
        return self is not Opcode.STORE

    @property
    def writes_memory(self) -> bool:
        return self is Opcode.STORE

    @property
    def is_commutative(self) -> bool:
        return self in (Opcode.ADD, Opcode.MUL)

    # ------------------------------------------------------------------
    # Evaluation (reference interpreter support)
    # ------------------------------------------------------------------
    def evaluate(self, a, b=None):
        """Apply the arithmetic operation to already-computed operand values.

        Division is exact (``fractions.Fraction``) so that semantics
        preservation tests are not confounded by integer truncation or
        floating-point rounding.
        """
        fn = _EVALUATORS.get(self)
        if fn is None:
            raise ValueError(f"opcode {self.value} is not directly evaluable")
        return fn(a, b)


def parse_opcode(text: str) -> Opcode:
    """Parse an opcode from its linear-notation spelling (case-insensitive)."""
    try:
        return _BY_NAME[text.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown opcode: {text!r}") from None


_ARITY = {
    Opcode.CONST: 1,  # the literal itself occupies alpha
    Opcode.LOAD: 1,  # the variable name occupies alpha
    Opcode.STORE: 2,  # variable name, value
    Opcode.COPY: 1,
    Opcode.NEG: 1,
    Opcode.ADD: 2,
    Opcode.SUB: 2,
    Opcode.MUL: 2,
    Opcode.DIV: 2,
}


def _div(a, b):
    if b == 0:
        # The interpreter treats division by zero as an arithmetic fault;
        # callers that randomly generate programs catch this.
        raise ZeroDivisionError("tuple Div by zero")
    # Imported here: ``fractions`` loads ``decimal`` (libmpdec), and only
    # a constant-folded Div runs this.
    from fractions import Fraction

    return Fraction(a) / Fraction(b)


_EVALUATORS: dict[Opcode, Callable] = {
    Opcode.COPY: lambda a, b: a,
    Opcode.NEG: lambda a, b: -a,
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: lambda a, b: _div(a, b),
}

_BY_NAME = {op.value.lower(): op for op in Opcode}

#: Opcodes whose result may feed arithmetic (everything but Store).
VALUE_PRODUCING_OPCODES = tuple(op for op in Opcode if op.produces_value)

#: The binary arithmetic opcodes, in a stable order.
BINARY_ARITHMETIC = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV)
