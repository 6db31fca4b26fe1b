"""Pre-scheduling spill-code creation (section 3.1).

*"Since values are not allocated to particular registers, the concept is
simply that if there are more live values than registers in the target
machine, then all values beyond the number of registers will be
explicitly re-loaded.  In other words, we insure that when registers are
actually allocated later, there will be no need to introduce new spill
instructions, since these could invalidate the optimality of the
schedule."*

The pass walks the block in program order simulating a register file of
``num_registers`` values.  When a definition would exceed the budget it
evicts the in-register value whose next use is farthest away (Belady).
Evicted values are recovered at their next use by re-loading:

* a ``Const`` is rematerialized (a fresh ``Const`` tuple) — no memory
  traffic at all;
* a value produced by a ``Load`` of a variable that is never stored
  again in the block is evicted for free — later uses re-load the
  variable;
* any other value is first stored to a fresh compiler temporary
  (``.spill<N>``, a name the source language cannot produce) and later
  uses re-load from there.

After this pass the block's program-order register pressure is at most
``num_registers`` and semantics are preserved (both property-tested).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.block import BasicBlock, BlockBuilder
from ..ir.ops import Opcode
from ..ir.tuples import ConstOperand
from ..record import Record, setslot

#: Prefix of compiler-generated spill temporaries.  The front-end lexer
#: rejects ``.`` in identifiers, so these can never collide with source
#: variables.
SPILL_PREFIX = ".spill"

_INFINITY = float("inf")


class SpillReport(Record):
    """Outcome of spill-code creation."""

    __slots__ = ("block", "spill_stores", "reloads")

    def __init__(self, block: BasicBlock, spill_stores: int, reloads: int):
        setslot(self, "block", block)
        setslot(self, "spill_stores", spill_stores)  # Store tuples inserted
        setslot(self, "reloads", reloads)  # Load/Const tuples inserted to recover evicted values


def insert_spill_code(block: BasicBlock, num_registers: int) -> SpillReport:
    """Rewrite ``block`` so program-order pressure fits ``num_registers``.

    Requires ``num_registers >= 3`` (a binary operation and its result
    keep three values live simultaneously).
    """
    if num_registers < 3:
        raise ValueError("spill insertion needs at least 3 registers")

    n = len(block)
    # Use positions per original value, for Belady eviction decisions.
    uses: Dict[int, List[int]] = {t.ident: [] for t in block}
    # Position of the last Store to each variable (for free-home safety).
    last_store_pos: Dict[str, int] = {}
    for pos, t in enumerate(block):
        for ref in t.value_refs:
            uses[ref].append(pos)
        if t.op is Opcode.STORE:
            last_store_pos[t.variable] = pos

    builder = BlockBuilder(block.name)
    # Original value ident -> its current new ref, while "in a register".
    resident: Dict[int, int] = {}
    # Original value ident -> how to recover it after eviction.
    #   ("var", name)   re-load the variable
    #   ("const", c)    rematerialize the literal
    recover: Dict[int, tuple] = {}
    spill_stores = 0
    reloads = 0
    temp_counter = 0

    def next_use_after(ident: int, pos: int) -> float:
        for use in uses[ident]:
            if use > pos:
                return use
        return _INFINITY

    def free_home(ident: int) -> bool:
        """Can ``ident`` be recovered without storing it first?"""
        orig = block.by_ident(ident)
        if orig.op is Opcode.CONST:
            return True
        if orig.op is Opcode.LOAD:
            # Safe only if the variable is never stored after the load
            # itself — otherwise a re-load could observe the newer value.
            return last_store_pos.get(orig.variable, -1) < block.position_of(
                ident
            )
        return False

    def note_recovery(ident: int, new_ref: int, pos: int) -> None:
        nonlocal spill_stores, temp_counter
        if ident in recover:
            return  # already has a home from an earlier eviction
        orig = block.by_ident(ident)
        if orig.op is Opcode.CONST:
            assert isinstance(orig.alpha, ConstOperand)
            recover[ident] = ("const", orig.alpha.value)
        elif orig.op is Opcode.LOAD and free_home(ident):
            recover[ident] = ("var", orig.variable)
        else:
            temp_counter += 1
            temp = f"{SPILL_PREFIX}{temp_counter}"
            builder.emit_store(temp, new_ref)
            recover[ident] = ("var", temp)
            spill_stores += 1

    def evict_until(pos: int, budget: int, protected: Set[int]) -> None:
        while len(resident) >= budget:
            victims = [v for v in resident if v not in protected]
            if not victims:  # pragma: no cover - num_registers >= 3 guards
                raise RuntimeError("all resident values pinned by one tuple")
            victim = max(victims, key=lambda v: next_use_after(v, pos))
            new_ref = resident.pop(victim)
            if next_use_after(victim, pos) is not _INFINITY:
                note_recovery(victim, new_ref, pos)

    def materialize(ident: int, pos: int, protected: Set[int]) -> int:
        """New ref holding original value ``ident``, recovering if evicted."""
        nonlocal reloads
        if ident in resident:
            return resident[ident]
        evict_until(pos, num_registers, protected)
        kind, payload = recover[ident]
        if kind == "const":
            ref = builder.emit_const(payload)
        else:
            ref = builder.emit_load(payload)
        reloads += 1
        resident[ident] = ref
        return ref

    for pos, t in enumerate(block):
        op = t.op
        refs = t.value_refs
        protected = set(refs)
        new_refs = [materialize(r, pos, protected) for r in refs]
        # Operands seeing their last use release their slot now (an
        # instruction reads operands before writing its result).
        for r in refs:
            if next_use_after(r, pos) is _INFINITY:
                resident.pop(r, None)
        if op is Opcode.STORE:
            builder.emit_store(t.variable, new_refs[0])
            continue
        evict_until(pos, num_registers, protected)
        if op is Opcode.CONST:
            assert isinstance(t.alpha, ConstOperand)
            new_ident = builder.emit_const(t.alpha.value)
        elif op is Opcode.LOAD:
            new_ident = builder.emit_load(t.variable)
        elif op in (Opcode.COPY, Opcode.NEG):
            new_ident = builder.emit_unary(op, new_refs[0])
        else:
            new_ident = builder.emit_binary(op, new_refs[0], new_refs[1])
        if next_use_after(t.ident, pos) is not _INFINITY:
            resident[t.ident] = new_ident

    return SpillReport(builder.build(), spill_stores, reloads)
