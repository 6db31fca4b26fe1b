"""Traditional optimizations applied before scheduling (section 3.1).

The paper's front end performs "constant folding with value propagation,
common subexpression elimination, dead code elimination, and various
peephole optimizations".  Here they take two walks over the block:

* :func:`number_values`, one forward walk of local value numbering.
  Each value is keyed on its canonical ``(op, operands)``, with the
  operands of ``Add`` and ``Mul`` sorted, so a value already computed is
  reused (CSE; constants are pooled by value).  The walk folds
  constants, drops copies, forwards a load to the last value stored to
  or loaded from its variable, turns ``Neg(Neg x)`` into ``x``, and
  applies the peephole identities below before it looks a value up.
* :func:`remove_dead`, one backward liveness walk: a store that a later
  store to the same variable overwrites, with no live load in between,
  is dead, and so is a value no live tuple reads (DCE).

Peephole identities (all exact under the interpreter's arithmetic):

======================  =================
``x + 0``, ``0 + x``    ``x``
``x - 0``, ``x / 1``    ``x``
``x - x``               ``Const 0``
``x * 1``, ``1 * x``    ``x``
``x * 0``, ``0 * x``    ``Const 0``
``x * 2``, ``2 * x``    ``x + x`` (strength reduction)
======================  =================

A possible fault is never optimized away: a division by zero and a
division whose quotient is not an integer stay unfolded, ``x / x`` is
not rewritten, and an unused ``Div`` is kept.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .ir.block import BasicBlock, BlockBuilder
from .ir.ops import Opcode
from .ir.tuples import IRTuple, Operand, const_operand, ref_operand

__all__ = ["optimize_block"]


def optimize_block(block: BasicBlock) -> BasicBlock:
    """``block`` after the section-3.1 optimizations, renumbered 1..n."""
    return remove_dead(number_values(block))


def number_values(block: BasicBlock) -> BasicBlock:
    """The forward walk; it leaves dead tuples for :func:`remove_dead`."""
    out = BlockBuilder(block.name)
    sub: Dict[int, int] = {}  # old ref -> new ref
    table: Dict[Tuple, int] = {}  # canonical (op, alpha, beta) -> new ref
    const_of: Dict[int, int] = {}  # new ref -> its constant
    negated: Dict[int, int] = {}  # new ref of a Neg -> its operand
    holds: Dict[str, int] = {}  # variable -> new ref holding its value

    def value(op: Opcode, alpha: Operand, beta: Optional[Operand] = None) -> int:
        key = (op, alpha, beta)
        ref = table.get(key)
        if ref is None:
            ref = table[key] = out.emit(op, alpha, beta)
        return ref

    def constant(c: int) -> int:
        ref = value(Opcode.CONST, const_operand(c))
        const_of[ref] = c
        return ref

    def binary(op: Opcode, a: int, b: int) -> int:
        ca, cb = const_of.get(a), const_of.get(b)
        if ca is not None and cb is not None and not (op is Opcode.DIV and cb == 0):
            result = op.evaluate(ca, cb)
            if result == int(result):
                return constant(int(result))
        if op is Opcode.ADD:
            if ca == 0:
                return b
            if cb == 0:
                return a
        elif op is Opcode.SUB:
            if cb == 0:
                return a
            if a == b:
                return constant(0)
        elif op is Opcode.MUL:
            if ca == 1:
                return b
            if cb == 1:
                return a
            if ca == 0 or cb == 0:
                return constant(0)
            if ca == 2:
                return binary(Opcode.ADD, b, b)
            if cb == 2:
                return binary(Opcode.ADD, a, a)
        elif op is Opcode.DIV and cb == 1:
            return a
        if op.is_commutative and b < a:
            a, b = b, a
        return value(op, ref_operand(a), ref_operand(b))

    for t in block:
        op = t.op
        if op is Opcode.CONST:
            sub[t.ident] = constant(t.alpha.value)
        elif op is Opcode.LOAD:
            var = t.alpha.name
            if var not in holds:
                holds[var] = out.emit(op, t.alpha)
            sub[t.ident] = holds[var]
        elif op is Opcode.STORE:
            ref = holds[t.alpha.name] = sub[t.beta.ref]
            out.emit(op, t.alpha, ref_operand(ref))
        elif op is Opcode.COPY:
            sub[t.ident] = sub[t.alpha.ref]
        elif op is Opcode.NEG:
            a = sub[t.alpha.ref]
            if a in const_of:
                sub[t.ident] = constant(-const_of[a])
            elif a in negated:
                sub[t.ident] = negated[a]
            else:
                ref = sub[t.ident] = value(op, ref_operand(a))
                negated[ref] = a
        else:
            sub[t.ident] = binary(op, sub[t.alpha.ref], sub[t.beta.ref])
    return out.build()


def remove_dead(block: BasicBlock) -> BasicBlock:
    """The backward walk: drops dead stores and dead values, keeps every
    ``Div``, and renumbers what is left."""
    needed: Set[int] = set()
    overwritten: Set[str] = set()  # stored later, with no live load since
    kept: List[IRTuple] = []
    for t in reversed(block.tuples):
        if t.op is Opcode.STORE:
            if t.alpha.name in overwritten:
                continue
            overwritten.add(t.alpha.name)
        elif t.ident not in needed and t.op is not Opcode.DIV:
            continue
        elif t.op is Opcode.LOAD:
            overwritten.discard(t.alpha.name)
        needed.update(t.value_refs)
        kept.append(t)
    kept.reverse()
    return BasicBlock(kept, block.name).renumbered()
