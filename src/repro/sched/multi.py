"""Multi-pipeline selection — the extension of paper footnote 3.

The general machine model of section 4.1 lets one operation class map to
*several* pipelines (Table 3: ``Add -> {3, 4}``), but "the algorithm
presented in section 4.2 does not support this feature" — it needs every
instruction pinned to one pipeline.  This module supplies both halves of
that story:

* :func:`round_robin_assignment` and
  :func:`repro.machine.machine.first_pipeline_assignment` — static
  pinning policies that produce a :data:`PipelineAssignment` for the
  core scheduler (the paper's implicit behaviour, and the baseline);
* :func:`schedule_block_multi` — a branch-and-bound that searches over
  instruction order *and* pipeline choice simultaneously, with the same
  alpha-beta bound and curtail point.  Pipeline choices are explored
  cheapest-first (least immediate NOPs), and symmetric choices among
  identical same-function pipelines with equal availability are collapsed
  (choosing either of two idle identical adders yields isomorphic
  subtrees), which keeps the branching factor near the deterministic
  case's in practice.

Note on the engine switch: :func:`schedule_block_multi` runs its own
joint order-and-assignment search and never calls ``schedule_block``,
so ``SearchOptions.engine`` does not apply here.  The flattened array
core (:mod:`repro.sched.core`) accelerates the fixed-assignment search
only; multi-pipeline selection always uses this recursive search.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import (
    UNPIPELINED_LATENCY,
    MachineDescription,
    first_pipeline_assignment,
)
from ..telemetry import Telemetry, prune_counts
from .list_scheduler import list_schedule
from .search import SearchOptions, _Curtailed


# ----------------------------------------------------------------------
# Static assignment policies (baselines usable with the core scheduler)
# ----------------------------------------------------------------------
def round_robin_assignment(
    dag: DependenceDAG, machine: MachineDescription
) -> Dict[int, Optional[int]]:
    """Distribute same-class operations across their viable pipelines in
    program order (a natural static load-balancing baseline)."""
    counters: Dict[Tuple[int, ...], int] = {}
    out: Dict[int, Optional[int]] = {}
    for t in dag.block:
        pids = tuple(sorted(machine.pipelines_for(t.op)))
        if not pids:
            out[t.ident] = None
            continue
        k = counters.get(pids, 0)
        out[t.ident] = pids[k % len(pids)]
        counters[pids] = k + 1
    return out


# ----------------------------------------------------------------------
# Joint order + assignment search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MultiScheduleResult:
    """Outcome of the selection-aware search."""

    order: Tuple[int, ...]
    etas: Tuple[int, ...]
    assignment: Dict[int, Optional[int]]
    total_nops: int
    omega_calls: int
    completed: bool
    elapsed_seconds: float
    timed_out: bool = False
    #: Prune events by kind (see ``repro.telemetry.PRUNE_KINDS``).
    prune_counts: Mapping[str, int] = field(default_factory=dict)

    @property
    def issue_span_cycles(self) -> int:
        return len(self.order) + self.total_nops


class _MultiState:
    """Incremental timing where each push also fixes a pipeline choice."""

    def __init__(self, dag: DependenceDAG, machine: MachineDescription):
        self.dag = dag
        self.machine = machine
        self._pipes = {p.ident: p for p in machine.pipelines}
        self.order: List[int] = []
        self.etas: List[int] = []
        self.issue: Dict[int, int] = {}
        self.chosen: Dict[int, Optional[int]] = {}
        self.pipe_last: Dict[int, int] = {}
        self._undo: List[Optional[Tuple[int, Optional[int]]]] = []
        self.total_nops = 0

    def latency_of(self, ident: int) -> int:
        pid = self.chosen[ident]
        return UNPIPELINED_LATENCY if pid is None else self._pipes[pid].latency

    def peek_eta(self, ident: int, pid: Optional[int]) -> int:
        if not self.order:
            return 0
        base = self.issue[self.order[-1]] + 1
        earliest = base
        if pid is not None:
            last = self.pipe_last.get(pid)
            if last is not None:
                bound = last + self._pipes[pid].enqueue_time
                if bound > earliest:
                    earliest = bound
        for delta in self.dag.rho(ident):
            bound = self.issue[delta] + self.latency_of(delta)
            if bound > earliest:
                earliest = bound
        return earliest - base

    def push(self, ident: int, pid: Optional[int]) -> int:
        eta = self.peek_eta(ident, pid)
        issue = self.issue[self.order[-1]] + 1 + eta if self.order else 0
        self.order.append(ident)
        self.etas.append(eta)
        self.issue[ident] = issue
        self.chosen[ident] = pid
        self.total_nops += eta
        if pid is None:
            self._undo.append(None)
        else:
            self._undo.append((pid, self.pipe_last.get(pid)))
            self.pipe_last[pid] = issue
        return eta

    def pop(self) -> None:
        ident = self.order.pop()
        self.total_nops -= self.etas.pop()
        del self.issue[ident]
        del self.chosen[ident]
        saved = self._undo.pop()
        if saved is not None:
            pid, previous = saved
            if previous is None:
                del self.pipe_last[pid]
            else:
                self.pipe_last[pid] = previous

    def __len__(self) -> int:
        return len(self.order)


def schedule_block_multi(
    dag: DependenceDAG,
    machine: MachineDescription,
    options: SearchOptions = SearchOptions(),
    seed: Optional[Sequence[int]] = None,
    extra_incumbents: Optional[
        Sequence[Tuple[Sequence[int], Dict[int, Optional[int]]]]
    ] = None,
    telemetry: Optional[Telemetry] = None,
) -> MultiScheduleResult:
    """Optimal joint (order, pipeline assignment) search.

    Semantics mirror :func:`repro.sched.search.schedule_block`; the
    incumbent is seeded by pushing the list schedule with greedy
    (cheapest-now) pipeline choices plus the two static pinning policies,
    then the search branches over both the next instruction and its
    pipeline.  ``extra_incumbents`` — (order, assignment) pairs, e.g.
    schedules already found by the pinned core scheduler — are priced
    too (n Ω calls each), which guarantees the result never loses to
    them even when the joint search is curtailed.
    """
    start = time.perf_counter()
    n = len(dag)
    if seed is None:
        seed = list_schedule(dag)
    seed = tuple(seed)
    if sorted(seed) != sorted(dag.idents):
        raise ValueError("seed must be a permutation of the block's tuples")

    choices: Dict[int, Tuple[Optional[int], ...]] = {}
    for t in dag.block:
        pids = tuple(sorted(machine.pipelines_for(t.op)))
        choices[t.ident] = pids if pids else (None,)

    state = _MultiState(dag, machine)

    def price_seed(pick) -> Tuple[int, Tuple[int, ...], Tuple[int, ...], Dict[int, Optional[int]]]:
        """Push the seed under a pipeline-choice policy, snapshot, unwind."""
        for ident in seed:
            state.push(ident, pick(ident))
        snap = (
            state.total_nops,
            tuple(state.order),
            tuple(state.etas),
            dict(state.chosen),
        )
        for _ in range(n):
            state.pop()
        return snap

    # Seed incumbents (n omega calls each): greedy cheapest-now choices,
    # plus the two static pinning policies — the joint search must never
    # return anything worse than the best pinned schedule.
    incumbents = [
        price_seed(lambda i: min(choices[i], key=lambda p: state.peek_eta(i, p)))
    ]
    rr = round_robin_assignment(dag, machine)
    incumbents.append(price_seed(lambda i: rr[i]))
    first = first_pipeline_assignment(dag, machine)
    incumbents.append(price_seed(lambda i: first[i]))
    omega_calls = 3 * n
    for extra_order, extra_assignment in extra_incumbents or ():
        extra_order = tuple(extra_order)
        if sorted(extra_order) != sorted(dag.idents):
            raise ValueError("extra incumbent must cover the whole block")
        for ident in extra_order:
            state.push(ident, extra_assignment.get(ident))
        incumbents.append(
            (
                state.total_nops,
                tuple(state.order),
                tuple(state.etas),
                dict(state.chosen),
            )
        )
        for _ in range(n):
            state.pop()
        omega_calls += n
    best_nops, best_order, best_etas, best_assignment = min(
        incumbents, key=lambda snap: snap[0]
    )

    def _done(result: MultiScheduleResult) -> MultiScheduleResult:
        if telemetry is not None:
            telemetry.record_search(result)
        return result

    if n <= 1:
        return _done(
            MultiScheduleResult(
                best_order, best_etas, best_assignment, best_nops,
                omega_calls, True, time.perf_counter() - start,
                prune_counts=prune_counts(),
            )
        )

    seed_pos = {ident: pos for pos, ident in enumerate(seed)}
    successors = {i: tuple(dag.successors(i)) for i in dag.idents}
    # Admissible chain bound under *any* assignment: weight every tuple
    # by the smallest latency among its viable pipelines.
    min_latency: Dict[int, int] = {}
    for t in dag.block:
        pids = machine.pipelines_for(t.op)
        min_latency[t.ident] = (
            min(machine.pipeline(p).latency for p in pids)
            if pids
            else UNPIPELINED_LATENCY
        )
    chain_below: Dict[int, int] = {}
    for t in reversed(dag.block.tuples):
        succ = successors[t.ident]
        chain_below[t.ident] = (
            0
            if not succ
            else max(min_latency[t.ident] + chain_below[s] for s in succ)
        )
    indegree = {i: len(dag.rho(i)) for i in dag.idents}
    ready: List[int] = [i for i in dag.idents if indegree[i] == 0]
    trivial = {
        i: (choices[i] == (None,) and indegree[i] == 0) for i in dag.idents
    }
    pipes_by_ident = {p.ident: p for p in machine.pipelines}
    # Two pipelines are true twins only when the *same* operation classes
    # can use them — otherwise collapsing a choice could hide a schedule
    # where the other pipe stays free for a different op class.
    usable_by = {
        p.ident: frozenset(
            op for op, pids in machine.op_map.items() if p.ident in pids
        )
        for p in machine.pipelines
    }

    curtail = options.curtail
    alpha_beta = options.alpha_beta
    equivalence = options.equivalence_prune
    deadline = None if options.time_limit is None else start + options.time_limit
    completed = True
    n_legality = n_bounds = n_equivalence = n_alpha_beta = 0
    n_curtail = n_timeout = 0
    timed_out = False

    def pipeline_choices(ident: int) -> List[Optional[int]]:
        """Viable pipelines, cheapest-first, symmetric idle twins collapsed."""
        opts = choices[ident]
        if len(opts) == 1:
            return list(opts)
        seen_signature = set()
        ranked = sorted(opts, key=lambda p: state.peek_eta(ident, p))
        out: List[Optional[int]] = []
        for pid in ranked:
            pipe = pipes_by_ident[pid]
            signature = (
                usable_by[pid],
                pipe.latency,
                pipe.enqueue_time,
                state.pipe_last.get(pid),
            )
            if signature in seen_signature:
                continue  # identical pipe with identical availability
            seen_signature.add(signature)
            out.append(pid)
        return out

    def candidates() -> List[int]:
        nonlocal n_equivalence
        picked = sorted(ready, key=seed_pos.__getitem__)
        if equivalence and len(picked) > 1:
            filtered: List[int] = []
            seen_trivial = False
            for ident in picked:
                if trivial[ident]:
                    if seen_trivial:
                        n_equivalence += 1
                        continue
                    seen_trivial = True
                filtered.append(ident)
            return filtered
        return picked

    def rec(remaining: int) -> None:
        nonlocal best_nops, best_order, best_etas, best_assignment, omega_calls
        nonlocal n_legality, n_bounds, n_alpha_beta, n_curtail, n_timeout
        nonlocal timed_out
        cands = candidates()
        n_legality += remaining - len(ready)
        if state.order and alpha_beta:
            # Admissible lower bound on NOPs any completion must add: the
            # cheapest-pipeline critical chain below each ready candidate
            # against the remaining issue slots.
            lb = 0
            for i in cands:
                eta = min(state.peek_eta(i, p) for p in choices[i])
                gap = 1 + eta + chain_below[i] - remaining
                if gap > lb:
                    lb = gap
            if state.total_nops + lb >= best_nops:
                n_bounds += 1
                return
        for ident in cands:
            for pid in pipeline_choices(ident):
                if omega_calls >= curtail:
                    n_curtail += 1
                    raise _Curtailed
                if deadline is not None and time.perf_counter() > deadline:
                    n_timeout += 1
                    timed_out = True
                    raise _Curtailed
                omega_calls += 1
                state.push(ident, pid)
                try:
                    if len(state) == n:
                        if state.total_nops < best_nops:
                            best_nops = state.total_nops
                            best_order = tuple(state.order)
                            best_etas = tuple(state.etas)
                            best_assignment = dict(state.chosen)
                    elif alpha_beta and state.total_nops >= best_nops:
                        n_alpha_beta += 1
                    else:
                        ready.remove(ident)
                        opened = []
                        for succ in successors[ident]:
                            indegree[succ] -= 1
                            if indegree[succ] == 0:
                                ready.append(succ)
                                opened.append(succ)
                        try:
                            rec(remaining - 1)
                        finally:
                            for succ in opened:
                                ready.remove(succ)
                            for succ in successors[ident]:
                                indegree[succ] += 1
                            ready.append(ident)
                finally:
                    state.pop()

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n * 10 + 1000))
    try:
        rec(n)
    except _Curtailed:
        completed = False
    finally:
        sys.setrecursionlimit(old_limit)

    return _done(
        MultiScheduleResult(
            order=best_order,
            etas=best_etas,
            assignment=best_assignment,
            total_nops=best_nops,
            omega_calls=omega_calls,
            completed=completed,
            elapsed_seconds=time.perf_counter() - start,
            timed_out=timed_out,
            prune_counts=prune_counts(
                legality=n_legality,
                bounds=n_bounds,
                equivalence=n_equivalence,
                alpha_beta=n_alpha_beta,
                curtail=n_curtail,
                timeout=n_timeout,
            ),
        )
    )
