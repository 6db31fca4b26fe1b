"""Post-scheduling register assignment (section 3.4).

The paper's central structural point: scheduling happens on tuple code
*without* register names, and only afterwards "are values assigned to
specific registers".  Because spill code was created up front, this stage
is a straightforward linear scan over the *scheduled* order:

* at each instruction, the registers of operands seeing their last use
  are released first (an instruction's destination may reuse an operand's
  register — the operand is read before the result is written);
* then the result value is assigned the lowest-numbered free register.

If the machine runs out of registers the allocator raises — it never
inserts spills, because doing so "could invalidate the optimality of the
schedule".  Run :func:`repro.regalloc.spill.insert_spill_code` before
scheduling instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..record import Record, setslot
from .liveness import live_ranges


class AllocationError(RuntimeError):
    """Not enough registers for a spill-free allocation of this order."""


class RegisterAllocation(Record):
    """Mapping of value-producing tuples to register numbers (0-based)."""

    __slots__ = ("order", "registers", "num_registers_used")

    def __init__(self, order: Tuple[int, ...], registers: Dict[int, int], num_registers_used: int):
        setslot(self, "order", order)
        setslot(self, "registers", registers)  # tuple ident -> register number
        setslot(self, "num_registers_used", num_registers_used)


def allocate_registers(
    block: BasicBlock,
    order: Optional[Sequence[int]] = None,
    num_registers: Optional[int] = None,
) -> RegisterAllocation:
    """Linear-scan register assignment over a scheduled order.

    Parameters
    ----------
    num_registers:
        Size of the register file; ``None`` means "as many as needed"
        (the paper's simulations "simply assumed that there were always
        enough registers").
    """
    if order is None:
        order = block.idents
    order = tuple(order)
    ranges = live_ranges(block, order)

    free: List[int] = []  # recycled register numbers (min-heap by sort)
    next_fresh = 0
    assigned: Dict[int, int] = {}
    highest = 0

    import heapq

    for pos, ident in enumerate(order):
        t = block.by_ident(ident)
        # Release operands whose last use is here (before defining).
        for ref in set(t.value_refs):
            r = ranges[ref]
            if r.end == pos and ref in assigned:
                heapq.heappush(free, assigned[ref])
        if not t.op.produces_value:
            continue
        if free:
            reg = heapq.heappop(free)
        else:
            reg = next_fresh
            next_fresh += 1
        if num_registers is not None and reg >= num_registers:
            raise AllocationError(
                f"order needs more than {num_registers} registers at "
                f"tuple {ident} (position {pos}); run the spill pre-pass "
                "before scheduling"
            )
        assigned[ident] = reg
        highest = max(highest, reg + 1)
        if ranges[ident].is_dead:
            # Unused result: the register is reusable immediately after
            # this instruction writes it.
            heapq.heappush(free, reg)

    return RegisterAllocation(order, assigned, highest)
