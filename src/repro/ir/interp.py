"""Reference interpreter for tuple basic blocks.

The interpreter defines the *semantics* that every transformation in the
system must preserve: the optimizer, the schedulers, register allocation
and code generation are all checked (in the test suite) by comparing the
final memory state they induce with what this interpreter computes.

Execution is in schedule order: each tuple computes a value (except
``Store``), values flow through ``RefOperand`` references, ``Load`` reads
the memory environment and ``Store`` writes it.  A *legal* reschedule of a
block (one respecting the dependence DAG) never changes the outcome; the
property tests lean on this heavily.

Arithmetic is exact (``fractions.Fraction`` for division) so that
commutations performed by the optimizer cannot be confused with rounding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Union

from ..record import Record, setslot
from .block import BasicBlock
from .ops import Opcode
from .tuples import ConstOperand, IRTuple, RefOperand, VarOperand

if TYPE_CHECKING:
    # Typing only: ``fractions`` loads ``decimal``; a Div evaluates
    # through ``Opcode.evaluate``, which imports it on first use.
    from fractions import Fraction

Value = Union[int, "Fraction"]


class UndefinedVariableError(KeyError):
    """A Load read a variable with no value in the environment."""


class ExecutionResult(Record):
    """Outcome of interpreting a block."""

    __slots__ = ("memory", "tuple_values")

    def __init__(self, memory: Dict[str, Value], tuple_values: Dict[int, Value]):
        setslot(self, "memory", memory)
        setslot(self, "tuple_values", tuple_values)

    def __getitem__(self, var: str) -> Value:
        return self.memory[var]


def run_block(
    block: BasicBlock,
    memory: Optional[Mapping[str, Value]] = None,
    order=None,
) -> ExecutionResult:
    """Interpret ``block`` and return the final memory and tuple values.

    Parameters
    ----------
    block:
        The block to execute.
    memory:
        Initial variable environment.  Variables loaded before any store
        must be present here, otherwise :class:`UndefinedVariableError`.
    order:
        Optional explicit execution order (a permutation of reference
        numbers).  Defaults to the block's program order.  Callers are
        responsible for only passing dependence-legal orders; the
        interpreter itself checks that every consumed value exists at
        consumption time and raises ``KeyError`` otherwise, which is how
        illegal schedules surface in tests.
    """
    env: Dict[str, Value] = dict(memory or {})
    values: Dict[int, Value] = {}
    sequence = (
        block.tuples if order is None else tuple(block.by_ident(i) for i in order)
    )
    for t in sequence:
        _step(t, env, values)
    return ExecutionResult(env, values)


def _step(t: IRTuple, env: Dict[str, Value], values: Dict[int, Value]) -> None:
    op = t.op
    if op is Opcode.CONST:
        assert isinstance(t.alpha, ConstOperand)
        values[t.ident] = t.alpha.value
    elif op is Opcode.LOAD:
        assert isinstance(t.alpha, VarOperand)
        try:
            values[t.ident] = env[t.alpha.name]
        except KeyError:
            raise UndefinedVariableError(t.alpha.name) from None
    elif op is Opcode.STORE:
        assert isinstance(t.alpha, VarOperand) and isinstance(t.beta, RefOperand)
        env[t.alpha.name] = values[t.beta.ref]
    elif op in (Opcode.COPY, Opcode.NEG):
        assert isinstance(t.alpha, RefOperand)
        values[t.ident] = op.evaluate(values[t.alpha.ref])
    else:
        assert isinstance(t.alpha, RefOperand) and isinstance(t.beta, RefOperand)
        values[t.ident] = op.evaluate(values[t.alpha.ref], values[t.beta.ref])


def blocks_equivalent(
    a: BasicBlock,
    b: BasicBlock,
    memory: Mapping[str, Value],
    order_a=None,
    order_b=None,
) -> bool:
    """True when two blocks leave identical final memory from ``memory``.

    This is the observational-equivalence relation used to validate the
    optimizer (which deletes and renumbers tuples, so tuple values are not
    comparable — only memory is).  Values compare by number, so an
    ``int`` equals the ``Fraction`` of the same value.
    """
    ra = run_block(a, memory, order_a)
    rb = run_block(b, memory, order_b)
    return ra.memory == rb.memory
