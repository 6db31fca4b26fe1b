"""Exhaustive scheduling baselines (section 2.3).

Two reference searches frame the pruning results of Table 1:

* :func:`exhaustive_search_size` — the unpruned search considers all
  ``n!`` permutations; the count alone is reported (the paper computes
  "just under 5 years" for n = 15 rather than running it, and so do we).
* :func:`legal_only_search` — "the most obvious pruning": enumerate only
  dependence-legal schedules (topological orders of the DAG) and evaluate
  Ω on each.  This is Table 1's middle column and, for small blocks, the
  ground-truth optimum the optimal search is tested against.
* :func:`count_legal_orders` / :func:`iter_legal_orders` — how many legal
  schedules that column would evaluate, and the schedules themselves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..ir.dag import COUNT_CAPPED, DependenceDAG
from ..machine.machine import MachineDescription
from .nop_insertion import (
    IncrementalTimingState,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
)

#: Table 1 reports legal-schedule counts above ten million as ">9,999,000".
LEGAL_COUNT_CAP = 10_000_000


def exhaustive_search_size(n: int) -> int:
    """Number of Ω calls an unpruned exhaustive search would make: n!."""
    return math.factorial(n)


@dataclass(frozen=True)
class LegalSearchResult:
    """Outcome of enumerating all dependence-legal schedules."""

    best: ScheduleTiming
    omega_calls: int  # complete schedules evaluated
    exhausted: bool  # False when the enumeration cap was hit

    @property
    def optimal_nops(self) -> int:
        return self.best.total_nops


def legal_only_search(
    dag: DependenceDAG,
    machine: MachineDescription,
    assignment: Optional[PipelineAssignment] = None,
    limit: Optional[int] = None,
) -> LegalSearchResult:
    """Evaluate Ω on every legal schedule; return the best.

    ``limit`` caps the number of schedules evaluated (a curtail point for
    this baseline); with the default ``None`` the enumeration runs to
    completion, which is only sensible for small or dependence-dense
    blocks.  The enumeration shares prefix work via the incremental
    timing state, but unlike the optimal search it applies *no* pruning:
    every legal schedule is completed and counted.
    """
    resolver = SigmaResolver(dag, machine, assignment)
    state = IncrementalTimingState(dag, resolver)
    n = len(dag)
    best: Optional[ScheduleTiming] = None
    calls = 0
    exhausted = True

    indegree = {i: len(dag.rho(i)) for i in dag.idents}
    ready = [i for i in dag.idents if indegree[i] == 0]

    def rec() -> bool:
        """Returns False when the limit was hit and recursion must unwind."""
        nonlocal best, calls, exhausted
        if len(state) == n:
            calls += 1
            if best is None or state.total_nops < best.total_nops:
                best = state.snapshot()
            if limit is not None and calls >= limit:
                exhausted = False
                return False
            return True
        for ident in list(ready):
            ready.remove(ident)
            state.push(ident)
            opened = []
            for succ in dag.successors(ident):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
                    opened.append(succ)
            keep_going = rec()
            for succ in opened:
                ready.remove(succ)
            for succ in dag.successors(ident):
                indegree[succ] += 1
            state.pop()
            ready.append(ident)
            if not keep_going:
                return False
        return True

    if n == 0:
        return LegalSearchResult(ScheduleTiming((), (), ()), 0, True)
    rec()
    assert best is not None
    return LegalSearchResult(best, calls, exhausted)


def iter_legal_orders(
    dag: DependenceDAG, limit: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """Yield every topological order of ``dag`` (up to ``limit``).

    Orders are produced in lexicographic order of program-order
    positions.  This realizes the "pruning illegal" baseline of
    section 2.3: an exhaustive search restricted to legal schedules.
    """
    n = len(dag)
    position_of = dag.block.position_of
    produced = 0
    indegree = {i: len(dag.rho(i)) for i in dag.idents}
    ready = [i for i in dag.idents if indegree[i] == 0]
    prefix: List[int] = []

    def rec() -> Iterator[Tuple[int, ...]]:
        nonlocal produced
        if len(prefix) == n:
            produced += 1
            yield tuple(prefix)
            return
        # Iterate over a snapshot: the ready list mutates during recursion.
        for ident in sorted(ready, key=position_of):
            if limit is not None and produced >= limit:
                return
            ready.remove(ident)
            prefix.append(ident)
            opened = []
            for s in dag.successors(ident):
                indegree[s] -= 1
                if indegree[s] == 0:
                    ready.append(s)
                    opened.append(s)
            yield from rec()
            for s in opened:
                ready.remove(s)
            for s in dag.successors(ident):
                indegree[s] += 1
            prefix.pop()
            ready.append(ident)

    yield from rec()


def count_legal_orders(dag: DependenceDAG, cap: int = LEGAL_COUNT_CAP) -> int:
    """Count topological orders of ``dag``.

    Returns :data:`repro.ir.dag.COUNT_CAPPED` when the count exceeds
    ``cap`` — Table 1 of the paper reports such entries as
    ``>9,999,000``.

    Uses memoization over *downsets* (the set of already-scheduled
    tuples), which collapses the n! permutations into a number of
    states bounded by the DAG's antichain structure.
    """
    idents = dag.idents
    n = len(idents)
    if n == 0:
        return 1
    bit = {ident: 1 << k for k, ident in enumerate(idents)}
    pred_masks = {
        ident: sum(bit[p] for p in dag.rho(ident)) for ident in idents
    }
    memo: Dict[int, int] = {}
    full = (1 << n) - 1

    def count(scheduled: int) -> int:
        if scheduled == full:
            return 1
        hit = memo.get(scheduled)
        if hit is not None:
            return hit
        total = 0
        for ident in idents:
            b = bit[ident]
            if scheduled & b:
                continue
            if pred_masks[ident] & ~scheduled:
                continue
            total += count(scheduled | b)
            if total > cap:
                memo[scheduled] = total
                return total
        memo[scheduled] = total
        return total

    # Deep DAGs recurse one level per instruction; keep Python's
    # default limit out of the way for blocks of a few hundred tuples.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n * 10 + 1000))
    try:
        total = count(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return COUNT_CAPPED if total > cap else total
