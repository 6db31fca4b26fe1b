"""The tuple intermediate form.

Section 3.1 of the paper: *"The notation we use for each instruction is
that of a tuple of the form* ``i, O, alpha, beta`` *where* ``i`` *is the
reference number of the tuple,* ``O`` *is the operation type, and*
``alpha`` *and* ``beta`` *are two operands.  Each operand can be a
variable, the result of another tuple (the reference number of another
tuple), or empty."*

Operands are modelled with three small immutable classes rather than bare
strings/ints so that the type of every operand is explicit:

* :class:`VarOperand` — a reference to a named memory variable (``#a``).
* :class:`ConstOperand` — a literal constant (only valid for ``Const``).
* :class:`RefOperand` — the result of another tuple, by reference number.

A tuple with no operand in a slot stores ``None`` (the paper's ∅).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..record import Record, setslot
from .ops import Opcode


class VarOperand(Record):
    """A reference to a named, unambiguous memory variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("variable operand requires a non-empty name")
        setslot(self, "name", name)

    def __str__(self) -> str:
        return f"#{self.name}"


class ConstOperand(Record):
    """A literal constant value (integer, as in the paper's examples)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        setslot(self, "value", value)

    def __str__(self) -> str:
        return f'"{self.value}"'


class RefOperand(Record):
    """The result of another tuple, identified by its reference number."""

    __slots__ = ("ref",)

    def __init__(self, ref: int):
        if ref < 1:
            raise ValueError("tuple reference numbers start at 1")
        setslot(self, "ref", ref)

    def __str__(self) -> str:
        return str(self.ref)


Operand = Union[VarOperand, ConstOperand, RefOperand]

#: The shared operands, one per reference number, variable name and
#: constant value, which the builder and the program's own passes use
#: (``parse_block`` and the helpers below build fresh ones).  A table
#: stops growing at ``SHARED_MAX`` entries, so client input cannot grow
#: it; past that its operands are built fresh.
SHARED_MAX = 1024
_REFS: Dict[int, RefOperand] = {}
_VARS: Dict[str, VarOperand] = {}
_CONSTS: Dict[int, ConstOperand] = {}


def _shared(table: dict, kind: type, key):
    operand = table.get(key)
    if operand is None:
        operand = kind(key)
        if len(table) < SHARED_MAX:
            table[key] = operand
    return operand


def ref_operand(ref: int) -> RefOperand:
    return _shared(_REFS, RefOperand, ref)


def var_operand(name: str) -> VarOperand:
    return _shared(_VARS, VarOperand, name)


def const_operand(value: int) -> ConstOperand:
    return _shared(_CONSTS, ConstOperand, value)


class IRTuple(Record):
    """One instruction ``(i, O, alpha, beta)`` of the intermediate form.

    Instances are immutable; optimization passes build new tuples rather
    than mutating existing ones, which keeps blocks safely shareable
    between the scheduler's many candidate orderings.  Built, renumbered
    and optimized blocks hold shared operands (:func:`ref_operand`).
    """

    __slots__ = ("ident", "op", "alpha", "beta")

    def __init__(self, ident: int, op: Opcode, alpha: Optional[Operand] = None,
                 beta: Optional[Operand] = None):
        if ident < 1:
            raise ValueError("tuple reference numbers start at 1")
        setslot(self, "ident", ident)
        setslot(self, "op", op)
        setslot(self, "alpha", alpha)
        setslot(self, "beta", beta)
        self._check_shape()

    # ------------------------------------------------------------------
    def _check_shape(self) -> None:
        op = self.op
        if op is Opcode.CONST:
            if not isinstance(self.alpha, ConstOperand) or self.beta is not None:
                raise ValueError("Const expects a single literal operand")
        elif op is Opcode.LOAD:
            if not isinstance(self.alpha, VarOperand) or self.beta is not None:
                raise ValueError("Load expects a single variable operand")
        elif op is Opcode.STORE:
            if not isinstance(self.alpha, VarOperand):
                raise ValueError("Store expects a variable in alpha")
            if not isinstance(self.beta, RefOperand):
                raise ValueError("Store expects a tuple reference in beta")
        elif op in (Opcode.COPY, Opcode.NEG):
            if not isinstance(self.alpha, RefOperand) or self.beta is not None:
                raise ValueError(f"{op.value} expects a single tuple reference")
        elif not (isinstance(self.alpha, RefOperand) and isinstance(self.beta, RefOperand)):
            raise ValueError(f"{op.value} expects two tuple-reference operands")

    # ------------------------------------------------------------------
    @property
    def operands(self) -> tuple[Operand, ...]:
        """The non-empty operands, in (alpha, beta) order (every shape has
        an alpha)."""
        return (self.alpha,) if self.beta is None else (self.alpha, self.beta)

    @property
    def value_refs(self) -> tuple[int, ...]:
        """Reference numbers of tuples whose *results* this tuple consumes."""
        return tuple(o.ref for o in self.operands if isinstance(o, RefOperand))

    @property
    def variable(self) -> Optional[str]:
        """The memory variable touched by a Load/Store, else ``None``."""
        if self.op in (Opcode.LOAD, Opcode.STORE):
            assert isinstance(self.alpha, VarOperand)
            return self.alpha.name
        return None

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = ", ".join(str(o) for o in self.operands)
        if parts:
            return f"{self.ident}: {self.op.value} {parts}"
        return f"{self.ident}: {self.op.value}"


# ----------------------------------------------------------------------
# Convenience constructors (used heavily by tests and the front end)
# ----------------------------------------------------------------------
def const(ident: int, value: int) -> IRTuple:
    return IRTuple(ident, Opcode.CONST, ConstOperand(value))


def load(ident: int, var: str) -> IRTuple:
    return IRTuple(ident, Opcode.LOAD, VarOperand(var))


def store(ident: int, var: str, ref: int) -> IRTuple:
    return IRTuple(ident, Opcode.STORE, VarOperand(var), RefOperand(ref))


def copy(ident: int, ref: int) -> IRTuple:
    return IRTuple(ident, Opcode.COPY, RefOperand(ref))


def neg(ident: int, ref: int) -> IRTuple:
    return IRTuple(ident, Opcode.NEG, RefOperand(ref))


def add(ident: int, a: int, b: int) -> IRTuple:
    return IRTuple(ident, Opcode.ADD, RefOperand(a), RefOperand(b))


def sub(ident: int, a: int, b: int) -> IRTuple:
    return IRTuple(ident, Opcode.SUB, RefOperand(a), RefOperand(b))


def mul(ident: int, a: int, b: int) -> IRTuple:
    return IRTuple(ident, Opcode.MUL, RefOperand(a), RefOperand(b))


def div(ident: int, a: int, b: int) -> IRTuple:
    return IRTuple(ident, Opcode.DIV, RefOperand(a), RefOperand(b))
