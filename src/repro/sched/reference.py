"""The reference engine: section 4.2.3's pruned search as a readable
recursion (``engine="reference"``).

The same search as the flattened engine in :mod:`repro.sched.core` —
seed pricing, heuristic incumbents, candidate order, prune decisions,
Ω accounting and memo policy all match decision for decision, so every
``SearchResult`` field except ``elapsed_seconds`` is bit-for-bit equal
— written with dicts, an :class:`IncrementalTimingState` and recursion
so each step reads like the paper.  It is kept as the differential
oracle and for ablation; :func:`repro.sched.search.schedule_block`
imports this module only when the reference engine is asked for.

The same recursion also runs footnote 3's joint search
(:func:`repro.sched.multi.schedule_block_multi`): a
:class:`RelaxedResolver` leaves open the pipeline of every tuple with
several viable ones, and each candidate is then tried on each of its
pipelines, cheapest-first, with identical idle twins collapsed.  The
bounds see an open tuple through an admissible relaxation — its
smallest viable latency and no pipeline of its own — while a scheduled
one counts with the latency of the pipeline it was given.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..prunes import prune_counts
from .bounds import downstream_chains, pipe_edf_lateness, root_bound, unit_edf_lateness
from .core import _Flat
from .heuristics import greedy_schedule, gross_schedule
from .nop_insertion import (
    IncrementalTimingState,
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
    compute_timing,
)
from .search import SearchOptions, SearchResult, _Curtailed


class _Proven(Exception):
    """Internal unwind signal: an improvement met the root lower bound."""


class RelaxedResolver(SigmaResolver):
    """Sigma with the pipeline of every multi-pipeline tuple left open.

    ``choices`` maps each such tuple to its viable pipelines, sorted.
    Its sigma is ``None`` and its latency the smallest viable one, so
    the chain, capacity, release-deadline and root bounds see an open
    tuple as an unpipelined one that is never slower than any choice:
    an admissible relaxation of every assignment.
    """

    def __init__(self, dag: DependenceDAG, machine: MachineDescription):
        self.choices: Dict[int, Tuple[int, ...]] = {
            t.ident: tuple(sorted(machine.pipelines_for(t.op)))
            for t in dag.block
            if len(machine.pipelines_for(t.op)) > 1
        }
        super().__init__(
            dag, machine, {i: pids[0] for i, pids in self.choices.items()}
        )
        for ident, pids in self.choices.items():
            self._sigma[ident] = None
            self._latency[ident] = min(machine.pipeline(p).latency for p in pids)
            self._enqueue[ident] = 0


def pipes_of(state: IncrementalTimingState) -> Dict[int, Optional[int]]:
    """The pipeline each tuple of ``state``'s prefix runs on."""
    return {
        ident: None if saved is None else saved[0]
        for ident, saved in zip(state._order, state._pipe_saved)
    }


def run_reference_search(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    options: SearchOptions,
    initial: InitialConditions,
    seed: Tuple[int, ...],
    fits_budget,
    start: float,
    assignment: Optional[PipelineAssignment],
    priced: Optional[Tuple[ScheduleTiming, Dict[int, Optional[int]], int]] = None,
) -> SearchResult:
    """Everything ``schedule_block`` does after seed validation, as the
    readable recursion; returns a complete ``SearchResult`` (telemetry
    is recorded by the caller).

    The joint pipeline search (:func:`repro.sched.multi.schedule_block_multi`)
    passes a :class:`RelaxedResolver` and, in place of step [1],
    ``priced``: its best incumbent, that incumbent's pipelines and the Ω
    calls their pricing took.  The pipelines are updated in place to
    those of the returned best.
    """
    n = len(dag)
    budget = options.max_live
    choices = resolver.choices if isinstance(resolver, RelaxedResolver) else {}
    improvements = 0
    if priced is not None:
        best, chosen, omega_calls = priced
        seed_timing = best
    else:
        # Step [1]: price the seed schedule (n omega calls), plus the
        # heuristic incumbents when enabled.
        seed_timing = compute_timing(dag, seed, machine, assignment, initial=initial)
        omega_calls = n
        best = seed_timing
        chosen = {}
        if options.heuristic_seeds and n > 1:
            for heuristic in (gross_schedule, greedy_schedule):
                candidate = heuristic(dag, machine, assignment, initial)
                omega_calls += n
                if candidate.total_nops < best.total_nops and fits_budget(
                    candidate.order
                ):
                    best = candidate
                    improvements += 1

    if n <= 1:
        return SearchResult(
            best,
            seed_timing,
            omega_calls,
            True,
            time.perf_counter() - start,
            0,
            prune_counts=prune_counts(),
        )

    # ------------------------------------------------------------------
    # Static structure shared by the bounds and the DFS.
    # ------------------------------------------------------------------
    idents = dag.idents
    successors: Dict[int, Tuple[int, ...]] = {
        i: tuple(dag.successors(i)) for i in idents
    }
    # Latency-weighted downstream chain: any consumer chain below z forces
    # the last issue to trail z's issue by at least chain_below[z].
    chain_below: Dict[int, int] = {}
    for t in reversed(dag.block.tuples):
        succ = successors[t.ident]
        chain_below[t.ident] = (
            0
            if not succ
            else max(resolver.latency(t.ident) + chain_below[s] for s in succ)
        )
    enqueue_of = {p.ident: p.enqueue_time for p in machine.pipelines}
    # Two pipelines are twins when the same operation classes can use
    # them and they time alike; twins idle since the same cycle give
    # isomorphic subtrees, so only the first is tried.
    twin_class = {
        p.ident: (
            frozenset(op for op, pids in machine.op_map.items() if p.ident in pids),
            p.latency,
            p.enqueue_time,
        )
        for p in machine.pipelines
    }
    pipe_users: Dict[int, int] = {}
    for i in idents:
        pid = resolver.sigma(i)
        if pid is not None:
            pipe_users[pid] = pipe_users.get(pid, 0) + 1
    max_latency = max(
        (p.latency for p in machine.pipelines), default=1
    )

    # ------------------------------------------------------------------
    # Root lower bound: can the incumbent already be proven optimal?  If
    # not, the DFS stops at the first improvement that meets it.
    # ------------------------------------------------------------------
    stop_at = -1
    if options.lower_bound_prune:
        # root_lower_bound's computation, on this search's resolver.
        flat = _Flat(dag, machine, resolver, initial)
        stop_at = root_bound(flat, downstream_chains(flat))
        if best.total_nops <= stop_at:
            return SearchResult(
                best,
                seed_timing,
                omega_calls,
                True,
                time.perf_counter() - start,
                improvements,
                proved_by_bound=True,
                prune_counts=prune_counts(bounds=1),
            )

    # ------------------------------------------------------------------
    # DFS state.
    # ------------------------------------------------------------------
    seed_pos = {ident: pos for pos, ident in enumerate(seed)}
    state = IncrementalTimingState(dag, resolver, initial)
    indegree = {i: len(dag.rho(i)) for i in idents}
    ready: List[int] = [i for i in idents if indegree[i] == 0]
    # Carry-in release bounds (footnote 1, and earlier §5.3 windows)
    # decay with time, so the dominance key must carry their residuals
    # (see interface_key).
    var_bounds = state._var_bound
    # Sound 5c refinement: interchangeable candidates use no pipeline
    # (an open tuple uses one), have no predecessors, no carry-in
    # release, and identical successor sets.
    trivial: Dict[int, Optional[FrozenSet[int]]] = {
        i: (
            frozenset(successors[i])
            if resolver.sigma(i) is None
            and i not in choices
            and indegree[i] == 0
            and i not in var_bounds
            else None
        )
        for i in idents
    }
    bit = {ident: 1 << k for k, ident in enumerate(idents)}
    memo: Dict[tuple, int] = {}

    # Register-pressure tracking (only when a budget is set): mirrors the
    # linear-scan allocator — operands free at their last use, before the
    # destination register is claimed.
    live_count = 0  # values defined, with consumers still unscheduled
    if budget is not None:
        block_by_ident = dag.block.by_ident
        operand_sets: Dict[int, tuple] = {
            i: tuple(set(block_by_ident(i).value_refs)) for i in idents
        }
        consumers_left: Dict[int, int] = {i: 0 for i in idents}
        for i in idents:
            for r in operand_sets[i]:
                consumers_left[r] += 1
        produces: Dict[int, bool] = {
            i: block_by_ident(i).op.produces_value for i in idents
        }

    def pressure_peak(ident: int) -> int:
        """Register pressure at the instant ``ident`` would execute next."""
        freed = sum(1 for r in operand_sets[ident] if consumers_left[r] == 1)
        return live_count - freed + (1 if produces[ident] else 0)

    curtail = options.curtail
    alpha_beta = options.alpha_beta
    equivalence = options.equivalence_prune
    lower_bounds = options.lower_bound_prune
    dominance = options.dominance_prune
    cheapest_first = options.cheapest_first
    max_memo = options.max_memo_entries
    deadline = (
        None if options.time_limit is None else start + options.time_limit
    )

    best_nops = best.total_nops
    best_timing = best
    peek = state.peek_eta
    issue_of = state._issue
    avail = state._avail
    pipe_last = state._pipe_last

    # Prune-event counters (plain locals in the hot loop; flushed into
    # the SearchResult / telemetry registry once, at the end).
    n_legality = n_bounds = n_equivalence = n_alpha_beta = 0
    n_dominance = n_curtail = n_timeout = n_memo_evicted = 0
    timed_out = False

    def interface_key(mask: int) -> tuple:
        """Timing-relevant state, relative to the last issue time.

        Two prefixes with equal keys admit identical completions at
        identical future cost (see module docstring); only recently
        issued producers can still constrain the future, so the scan is
        bounded by the machine's maximum latency.
        """
        tl = issue_of[state._order[-1]]
        pipes = tuple(
            sorted(
                (pid, last - tl)
                for pid, last in pipe_last.items()
                if last - tl + enqueue_of[pid] > 1
            )
        )
        dangling: List[Tuple[int, int]] = []
        for ident in state._order[-(max_latency + 1) :]:
            slack = avail[ident] - (tl + 1)
            if slack <= 0:
                continue
            for s in successors[ident]:
                if not (mask & bit[s]):
                    dangling.append((ident, slack))
                    break
        dangling.sort()
        residual_vars: Tuple[Tuple[int, int], ...] = ()
        if var_bounds:
            residual_vars = tuple(
                sorted(
                    (ident, bound - (tl + 1))
                    for ident, bound in var_bounds.items()
                    if not (mask & bit[ident]) and bound > tl + 1
                )
            )
        return (mask, pipes, tuple(dangling), residual_vars)

    def deadline_lateness(remaining: int, mask: int) -> int:
        """The release-deadline bound (module docstring) at this node.

        With no NOPs to spare the last instruction issues at
        ``tl + remaining``; each unscheduled instruction must issue
        between its release and that time less its downstream chain.
        """
        tl = issue_of[state._order[-1]]
        t_last = tl + remaining
        release: Dict[int, int] = {}
        tasks: List[Tuple[int, int]] = []
        pipe_tasks: Dict[int, List[Tuple[int, int]]] = {}
        for t in dag.block.tuples:  # program order is topological
            i = t.ident
            if mask & bit[i]:
                continue
            ready_at = [tl + 1]
            pid = resolver.sigma(i)
            if pid is not None and pid in pipe_last:
                ready_at.append(pipe_last[pid] + enqueue_of[pid])
            if i in var_bounds:
                ready_at.append(var_bounds[i])
            for d in dag.rho(i):
                when = release[d] + resolver.latency(d) if d in release else avail[d]
                ready_at.append(when)
            release[i] = r = max(ready_at)
            due = t_last - chain_below[i]
            tasks.append((r, due))
            if pid is not None and enqueue_of[pid] > 1:
                pipe_tasks.setdefault(pid, []).append((r, due))
        worst = max(r - due for r, due in tasks)
        worst = max(worst, unit_edf_lateness(tasks))
        for pid, users in pipe_tasks.items():
            worst = max(worst, pipe_edf_lateness(users, enqueue_of[pid]))
        return worst

    def cheapest(ident: int) -> int:
        """``ident``'s NOPs on its cheapest pipeline choice."""
        if ident in choices:
            return min(peek(ident, p) for p in choices[ident])
        return peek(ident)

    def pipes_for(ident: int) -> Sequence[Optional[int]]:
        """The pipelines to try ``ident`` on: ``None`` (its sigma) unless
        open; an open tuple's cheapest-first, twins collapsed."""
        if ident not in choices:
            return (None,)
        seen = set()
        out = []
        for pid in sorted(choices[ident], key=lambda p: peek(ident, p)):
            signature = (twin_class[pid], pipe_last.get(pid))
            if signature not in seen:
                seen.add(signature)
                out.append(pid)
        return out

    def rec(remaining: int, mask: int) -> None:
        nonlocal best_nops, best_timing, improvements, omega_calls, live_count
        nonlocal n_legality, n_bounds, n_equivalence, n_alpha_beta
        nonlocal n_dominance, n_curtail, n_timeout, n_memo_evicted, timed_out
        eta = {i: cheapest(i) for i in ready}
        if cheapest_first:
            cands = sorted(ready, key=lambda i: (eta[i], seed_pos[i]))
        else:
            cands = sorted(ready, key=seed_pos.__getitem__)
        # Steps [5a]/[5b]: unscheduled instructions whose rho set is not
        # yet contained in Phi are not candidates at this node.
        n_legality += remaining - len(cands)

        if state._order:
            mu = state.total_nops
            if lower_bounds:
                lb = 0
                for i in cands:
                    gap = 1 + eta[i] + chain_below[i] - remaining
                    if gap > lb:
                        lb = gap
                tl = issue_of[state._order[-1]]
                for pid, k in pipe_users.items():
                    if k:
                        last = pipe_last.get(pid)
                        base = (
                            last + enqueue_of[pid] if last is not None else tl + 1
                        )
                        gap = (base + (k - 1) * enqueue_of[pid]) - (tl + remaining)
                        if gap > lb:
                            lb = gap
                if mu + lb < best_nops:
                    lb = deadline_lateness(remaining, mask)
                if mu + lb >= best_nops:
                    n_bounds += 1
                    return
            if dominance:
                key = interface_key(mask)
                prev = memo.get(key)
                if prev is not None:
                    if mu >= prev:
                        n_dominance += 1
                        return
                    memo[key] = mu  # tighter prefix: overwrite in place
                elif max_memo > 0:
                    if len(memo) >= max_memo:
                        # FIFO eviction (dict insertion order): bounded
                        # memory, graceful degradation — dominance only
                        # ever prunes, so optimality is unaffected.
                        memo.pop(next(iter(memo)))
                        n_memo_evicted += 1
                    memo[key] = mu

        if equivalence and len(cands) > 1:
            seen: set = set()
            filtered: List[int] = []
            for i in cands:
                sig = trivial[i]
                if sig is not None:
                    if sig in seen:
                        # Provably interchangeable with an earlier
                        # candidate at this node.
                        n_equivalence += 1
                        continue
                    seen.add(sig)
                filtered.append(i)
            cands = filtered

        for ident in cands:
            if budget is not None and pressure_peak(ident) > budget:
                continue  # would not be allocatable: treat as illegal
            pinned = resolver.sigma(ident)  # None when open
            for pipe in pipes_for(ident):
                # Step [4]: curtail-point truncation.
                if omega_calls >= curtail:
                    n_curtail += 1
                    raise _Curtailed
                if deadline is not None and time.perf_counter() > deadline:
                    n_timeout += 1
                    timed_out = True
                    raise _Curtailed
                omega_calls += 1
                state.push(ident, pipe)
                if pinned is not None:
                    pipe_users[pinned] -= 1
                if budget is not None:
                    for r in operand_sets[ident]:
                        consumers_left[r] -= 1
                        if consumers_left[r] == 0:
                            live_count -= 1
                    if produces[ident] and consumers_left[ident] > 0:
                        live_count += 1
                try:
                    if remaining == 1:
                        # Step [3]: complete schedule; adopt if strictly better.
                        if state.total_nops < best_nops:
                            best_nops = state.total_nops
                            best_timing = state.snapshot()
                            chosen.update(pipes_of(state))
                            improvements += 1
                            if best_nops <= stop_at:
                                raise _Proven
                    elif alpha_beta and state.total_nops >= best_nops:
                        # Step [6]: mu never decreases as a schedule grows,
                        # so this prefix cannot beat the incumbent.
                        n_alpha_beta += 1
                    else:
                        # Step [6]: extend only prefixes that can still win.
                        ready.remove(ident)
                        opened = []
                        for succ in successors[ident]:
                            indegree[succ] -= 1
                            if indegree[succ] == 0:
                                ready.append(succ)
                                opened.append(succ)
                        try:
                            rec(remaining - 1, mask | bit[ident])
                        finally:
                            for succ in opened:
                                ready.remove(succ)
                            for succ in successors[ident]:
                                indegree[succ] += 1
                            ready.append(ident)
                finally:
                    if budget is not None:
                        if produces[ident] and consumers_left[ident] > 0:
                            live_count -= 1
                        for r in operand_sets[ident]:
                            if consumers_left[r] == 0:
                                live_count += 1
                            consumers_left[r] += 1
                    if pinned is not None:
                        pipe_users[pinned] += 1
                    state.pop()

    completed = True
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n * 10 + 1000))
    try:
        rec(n, 0)
    except _Curtailed:
        completed = False
    except _Proven:
        pass
    finally:
        sys.setrecursionlimit(old_limit)

    return SearchResult(
        best=best_timing,
        initial=seed_timing,
        omega_calls=omega_calls,
        completed=completed,
        elapsed_seconds=time.perf_counter() - start,
        improvements=improvements,
        timed_out=timed_out,
        memo_evicted=n_memo_evicted,
        prune_counts=prune_counts(
            legality=n_legality,
            bounds=n_bounds,
            equivalence=n_equivalence,
            alpha_beta=n_alpha_beta,
            curtail=n_curtail,
            timeout=n_timeout,
            dominance=n_dominance,
        ),
    )
