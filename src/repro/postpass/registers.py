"""Postpass scheduling — the prior art the paper argues against.

Sections 1 and 3.4: Gross-style schedulers are "postpass reorganizers"
working on register-allocated assembly, where "the register assignment
can impose unnecessary restrictions on the schedule, resulting in
unnecessary execution delays" — two independent computations become
serialized merely because the allocator happened to reuse a register
between them.  The paper's approach schedules the register-free tuple
form instead and allocates afterwards.

This module mechanizes the comparison:

* :func:`register_reuse_edges` — the artificial anti/output dependences
  a given register assignment adds to a block's true dependence DAG;
* :func:`postpass_dag` — the constrained DAG a postpass scheduler must
  respect (true dependences + reuse edges), given an allocation of the
  block's *program order* (what a pre-scheduling allocator produces);
* :func:`compare_prepass_postpass` — optimal NOPs of the paper's
  prepass pipeline vs an *equally optimal* search over the postpass DAG,
  for a register-file size K.  Any gap is purely the cost of scheduling
  after allocation — the paper's motivating delta, isolated from
  heuristic noise because both sides use the same optimal search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.dag import DependenceDAG, DependenceEdge
from ..machine.machine import MachineDescription
from ..regalloc.allocator import RegisterAllocation, allocate_registers
from ..sched.search import SearchOptions, SearchResult, schedule_block


def register_reuse_edges(
    block: BasicBlock,
    allocation: RegisterAllocation,
) -> List[DependenceEdge]:
    """The artificial dependences register reuse induces.

    For consecutive values ``v1`` then ``v2`` assigned to the same
    register (in the allocation's order):

    * **output**: ``v2`` must be defined after ``v1`` (same destination);
    * **anti**: every consumer of ``v1`` must issue before ``v2``
      overwrites the register it reads.

    Edges that parallel true dependences are deduplicated by the DAG.
    """
    consumers: Dict[int, List[int]] = {}
    for t in block:
        for ref in t.value_refs:
            consumers.setdefault(ref, []).append(t.ident)

    # Values per register, in definition (allocation order) sequence.
    per_register: Dict[int, List[int]] = {}
    for ident in allocation.order:
        if ident in allocation.registers:
            per_register.setdefault(
                allocation.registers[ident], []
            ).append(ident)

    position = block.position_of
    edges: List[DependenceEdge] = []
    for values in per_register.values():
        for v1, v2 in zip(values, values[1:]):
            if position(v1) < position(v2):
                edges.append(DependenceEdge(v1, v2, "output"))
            for user in consumers.get(v1, ()):
                if position(user) < position(v2):
                    edges.append(DependenceEdge(user, v2, "anti"))
    return edges


def postpass_dag(
    block: BasicBlock, num_registers: Optional[int] = None
) -> Tuple[DependenceDAG, RegisterAllocation]:
    """The DAG a postpass scheduler sees.

    Registers are assigned over the block's program order (the code a
    traditional compiler hands its postpass reorganizer), inducing reuse
    edges on top of the true dependences.
    """
    allocation = allocate_registers(block, None, num_registers)
    edges = register_reuse_edges(block, allocation)
    return DependenceDAG(block, extra_edges=edges), allocation


@dataclass(frozen=True)
class PrepassPostpassComparison:
    """Optimal prepass vs optimal postpass for one block."""

    prepass: SearchResult
    postpass: SearchResult
    num_registers: int
    reuse_edges: int  # artificial edges the allocation added

    @property
    def delay_penalty(self) -> int:
        """NOPs lost purely to scheduling after register allocation."""
        return self.postpass.final_nops - self.prepass.final_nops


def compare_prepass_postpass(
    block: BasicBlock,
    machine: MachineDescription,
    num_registers: Optional[int] = None,
    options: SearchOptions = SearchOptions(),
) -> PrepassPostpassComparison:
    """Schedule ``block`` both ways with the same optimal search.

    ``num_registers=None`` measures the tightest realistic allocation: a
    file of exactly ``max_live(program order)`` registers, i.e. the most
    reuse-happy allocator that still avoids spills.

    The prepass side uses the paper's structure: schedule the true DAG,
    constrained only by the same register budget (``max_live``) so the
    comparison is register-fair; allocation happens after.
    """
    true_dag = DependenceDAG(block)
    constrained_dag, allocation = postpass_dag(block, num_registers)
    budget = allocation.num_registers_used
    fair = (
        options._replace(max_live=max(3, budget))
        if len(block) > 0
        else options
    )
    prepass = schedule_block(true_dag, machine, fair)
    postpass = schedule_block(constrained_dag, machine, options)
    extra = len(constrained_dag.edges) - len(true_dag.edges)
    return PrepassPostpassComparison(
        prepass=prepass,
        postpass=postpass,
        num_registers=budget,
        reuse_edges=extra,
    )
