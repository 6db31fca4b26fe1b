"""The pruned DFS of ``schedule_block`` on the packed arrays of ``_Flat``.

:func:`repro.sched.core.run_fast_search` runs the shared preamble (seed
pricing, heuristic incumbents, root lower bound) and imports this module
only when the root bound leaves the block open, so a first call whose
block closes at the root never compiles it.  The search is the
reference ``rec()`` of :mod:`repro.sched.reference`, flattened:

* the ready set is a single int mask, iterated lowest-bit-first;
* the recursive ``rec()`` becomes an explicit stack of candidate frames
  with in-place do/undo of the timing state (order/etas/issue arrays, a
  per-pipeline last-issue list with an undo stack);
* the dominance memo is keyed on small int tuples built from the same
  quantities.

Do/undo invariants
------------------
Every push of instruction ``k`` appends to ``order``/``etas``, writes
``issue[k]``, adds to the running NOP total and saves the clobbered
per-pipeline last-issue on a stack; the matching undo pops them in
reverse.  A node's candidate list (and each candidate's η) is computed
once, at node entry: between two sibling candidates the state is fully
restored, so the cached η equals what the reference recomputes at push
time.  Candidate sort keys include the unique seed position, so the
sorted order never depends on ready-list mutation order.

Bit-for-bit equality
--------------------
All five prunes (legality, equivalence, α-β, lower bounds, dominance),
the curtail/time-limit semantics, the register-pressure budget, the
carry-in conditions and the Ω-call accounting follow the reference
control flow exactly, in the same order; dense relabeling is a bijection
on instructions and pipelines, so every memo/equivalence key equality
class — hence every prune decision and count — is preserved.  The
differential tests in ``tests/test_hot_core.py`` and the
``repro verify`` oracle hold the engines to byte-identical
``SearchResult`` contents (everything except wall time).  The C kernel
(:func:`repro.native.bindings.native_dfs`) mirrors this function.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..prunes import prune_counts
from .bounds import deadline_lateness
from .core import FastOutcome
from .nop_insertion import ScheduleTiming

if TYPE_CHECKING:
    from ..ir.dag import DependenceDAG
    from .core import _Flat


def run_fast_dfs(
    flat: _Flat,
    dag: DependenceDAG,
    options,
    seed: Tuple[int, ...],
    best: ScheduleTiming,
    omega_calls: int,
    improvements: int,
    start: float,
    chain: List[int],
    users: List[int],
    max_latency: int,
    stop_at: int,
) -> FastOutcome:
    """The pruned DFS of ``schedule_block``, on packed arrays.

    Called by :func:`repro.sched.core.run_fast_search` after the
    preamble (seed pricing, heuristic incumbents, root lower bound);
    mirrors the reference ``rec()`` decision-for-decision.
    ``chain``/``users`` are the dense latency-chain and
    pending-pipeline-user tables (``users`` is mutated in place as
    instructions are pushed/popped).  The search ends,
    complete, at the first improvement with at most ``stop_at`` NOPs
    (the root lower bound; ``-1`` never stops it).
    """
    n = flat.n
    idents = flat.idents
    index_of = flat.index_of
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    succs = flat.succs
    succ_mask = flat.succ_mask
    pipe_enq = flat.pipe_enq
    pipe_last = list(flat.pipe_last)  # mutated in place by do/undo
    var_bound = flat.var_bound
    has_vb = flat.has_vb
    vb_items = flat.vb_items
    seed_at = [0] * n
    for pos, ident in enumerate(seed):
        seed_at[index_of[ident]] = pos

    used_pipes = tuple(p for p in range(flat.P) if users[p])
    full = (1 << n) - 1

    budget = options.max_live
    if budget is not None:
        block_by_ident = dag.block.by_ident
        operands = [
            tuple(index_of[r] for r in set(block_by_ident(i).value_refs))
            for i in idents
        ]
        consumers_left = [0] * n
        for k in range(n):
            for r in operands[k]:
                consumers_left[r] += 1
        produces = [
            1 if block_by_ident(i).op.produces_value else 0 for i in idents
        ]
    live_count = 0

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

    # Mutable search state (do/undo in place).
    order: List[int] = []
    etas: List[int] = []
    issue = [0] * n
    # Clobbered per-pipeline last-issue values, as two parallel stacks
    # (pipe index or -1, previous value) — cheaper than a tuple per push.
    saved_p: List[int] = []
    saved_v: List[Optional[int]] = []
    total_nops = 0
    last_iss = -1  # issue time of order[-1]; -1 when empty (base = 0)
    indeg = [len(preds[k]) for k in range(n)]
    ready_mask = 0
    for k in range(n):
        if indeg[k] == 0:
            ready_mask |= 1 << k
    mask = 0
    memo: Dict[tuple, int] = {}

    # Sound 5c signature: no pipeline, no predecessors, no carry-in
    # release -> successor-set mask (-1 marks "not trivially
    # interchangeable"; masks are >= 0).
    trivial = [
        succ_mask[k]
        if sig[k] < 0 and indeg[k] == 0 and var_bound[k] is None
        else -1
        for k in range(n)
    ]

    best_nops = best.total_nops
    best_timing = best
    completed = True
    timed_out = False
    n_legality = n_bounds = n_equivalence = n_alpha_beta = 0
    n_dominance = n_curtail = n_timeout = n_memo_evicted = 0
    by_seed = itemgetter(1)
    P = flat.P
    # Equivalence filtering only ever fires when some instruction is
    # trivially interchangeable; skipping the scan otherwise changes
    # nothing (no candidate has a signature, so nothing is filtered).
    any_trivial = equivalence and any(t >= 0 for t in trivial)
    perf_counter = time.perf_counter

    # One flat loop, everything in function locals.  `pending` >= 0
    # means "expand a node with that many remaining instructions"
    # (the body of the reference rec() before its candidate loop);
    # -1 means "advance the active frame's candidate iteration".  The
    # active frame lives in (cands, idx) locals; `frames` holds the
    # suspended ancestors.
    frames: List[tuple] = []
    cands: list = []
    idx = 0
    at_root = True
    pending = n
    while True:
        if pending >= 0:
            # ---- node entry: candidates + η, then node-level prunes —
            # legality, lower bounds, dominance, equivalence, in
            # reference order ----
            remaining = pending
            pending = -1
            if at_root:
                at_root = False
            else:
                frames.append((cands, idx))
            base = last_iss + 1
            cands = []
            lb = 0
            rm = ready_mask
            while rm:
                low = rm & -rm
                rm -= low
                k = low.bit_length() - 1
                e = base
                p = sig[k]
                if p >= 0:
                    pl = pipe_last[p]
                    if pl is not None:
                        v = pl + enq[k]
                        if v > e:
                            e = v
                if has_vb:
                    v = var_bound[k]
                    if v is not None and v > e:
                        e = v
                for d in preds[k]:
                    v = issue[d] + lat[d]
                    if v > e:
                        e = v
                eta = e - base
                cands.append((eta, seed_at[k], k))
                if lower_bounds:
                    # Chain part of the lower bound, folded into the
                    # build loop (max over the same candidate set).
                    gap = 1 + eta + chain[k] - remaining
                    if gap > lb:
                        lb = gap
            # Steps [5a]/[5b]: not-yet-ready instructions are excluded.
            n_legality += remaining - len(cands)
            if cheapest_first:
                cands.sort()
            else:
                cands.sort(key=by_seed)
            idx = 0

            pruned = False
            if order:
                mu = total_nops
                if lower_bounds:
                    tl = base - 1
                    for p in used_pipes:
                        ku = users[p]
                        if ku:
                            pl = pipe_last[p]
                            pe = pipe_enq[p]
                            first = tl + 1 if pl is None else pl + pe
                            gap = (first + (ku - 1) * pe) - (tl + remaining)
                            if gap > lb:
                                lb = gap
                    # The release-deadline bound only where the cheap
                    # gaps leave the node open.
                    if mu + lb < best_nops:
                        lb = deadline_lateness(
                            flat, chain, full & ~mask, tl, remaining,
                            issue, pipe_last, best_nops - 1 - mu,
                        )
                    if mu + lb >= best_nops:
                        n_bounds += 1
                        pruned = True
                if not pruned and dominance:
                    tl = base - 1
                    pipes = []
                    for p in range(P):
                        pl = pipe_last[p]
                        if pl is not None and pl - tl + pipe_enq[p] > 1:
                            pipes.append((p, pl - tl))
                    dangling = []
                    for k in order[-(max_latency + 1):]:
                        slack = issue[k] + lat[k] - (tl + 1)
                        if slack > 0 and succ_mask[k] & ~mask:
                            dangling.append((k, slack))
                    dangling.sort()
                    residual_vars: tuple = ()
                    if has_vb:
                        residual_vars = tuple(
                            sorted(
                                (k, b - (tl + 1))
                                for k, b in vb_items
                                if not (mask >> k) & 1 and b > tl + 1
                            )
                        )
                    key = (mask, tuple(pipes), tuple(dangling), residual_vars)
                    prev = memo.get(key)
                    if prev is not None:
                        if mu >= prev:
                            n_dominance += 1
                            pruned = True
                        else:
                            memo[key] = mu
                    elif max_memo > 0:
                        if len(memo) >= max_memo:
                            memo.pop(next(iter(memo)))
                            n_memo_evicted += 1
                        memo[key] = mu

            if pruned:
                cands = ()
            elif any_trivial and len(cands) > 1:
                seen = set()
                filtered = []
                for c in cands:
                    s = trivial[c[2]]
                    if s >= 0:
                        if s in seen:
                            n_equivalence += 1
                            continue
                        seen.add(s)
                    filtered.append(c)
                cands = filtered

        if idx == len(cands):
            if not frames:
                break
            # Close the candidate that opened this frame, then undo it,
            # and resume the suspended parent frame.
            k = order[-1]
            for s in succs[k]:
                if indeg[s] == 0:
                    ready_mask &= ~(1 << s)
                indeg[s] += 1
            ready_mask |= 1 << k
            mask ^= 1 << k
            if budget is not None:
                if produces[k] and consumers_left[k] > 0:
                    live_count -= 1
                for r in operands[k]:
                    if consumers_left[r] == 0:
                        live_count += 1
                    consumers_left[r] += 1
            p = sig[k]
            if p >= 0:
                users[p] += 1
            order.pop()
            e2 = etas.pop()
            total_nops -= e2
            last_iss = issue[k] - e2 - 1
            sp = saved_p.pop()
            sv = saved_v.pop()
            if sp >= 0:
                pipe_last[sp] = sv
            cands, idx = frames.pop()
            continue
        eta, _, k = cands[idx]
        idx += 1
        if budget is not None:
            freed = 0
            for r in operands[k]:
                if consumers_left[r] == 1:
                    freed += 1
            if live_count - freed + produces[k] > budget:
                continue  # would not be allocatable: treat as illegal
        # Step [4]: curtail-point truncation.
        if omega_calls >= curtail:
            n_curtail += 1
            completed = False
            break
        if deadline is not None and perf_counter() > deadline:
            n_timeout += 1
            timed_out = True
            completed = False
            break
        omega_calls += 1
        # Push k (η cached from node entry; state identical since then;
        # last_iss = -1 on an empty order makes iss = eta, as Ω defines).
        iss = last_iss + 1 + eta
        order.append(k)
        etas.append(eta)
        issue[k] = iss
        total_nops += eta
        last_iss = iss
        p = sig[k]
        if p < 0:
            saved_p.append(-1)
            saved_v.append(None)
        else:
            saved_p.append(p)
            saved_v.append(pipe_last[p])
            pipe_last[p] = iss
            users[p] -= 1
        if budget is not None:
            for r in operands[k]:
                c = consumers_left[r] = consumers_left[r] - 1
                if c == 0:
                    live_count -= 1
            if produces[k] and consumers_left[k] > 0:
                live_count += 1
        depth = len(order)
        done = False
        if depth == n:
            # Step [3]: complete schedule; adopt if strictly better.
            if total_nops < best_nops:
                best_nops = total_nops
                best_timing = ScheduleTiming(
                    tuple(idents[q] for q in order),
                    tuple(etas),
                    tuple(issue[q] for q in order),
                )
                improvements += 1
                if best_nops <= stop_at:
                    break  # meets the root bound: nothing can beat it
            done = True
        elif alpha_beta and total_nops >= best_nops:
            # Step [6]: mu never decreases as a schedule grows.
            n_alpha_beta += 1
            done = True
        if done:
            if budget is not None:
                if produces[k] and consumers_left[k] > 0:
                    live_count -= 1
                for r in operands[k]:
                    if consumers_left[r] == 0:
                        live_count += 1
                    consumers_left[r] += 1
            if p >= 0:
                users[p] += 1
            order.pop()
            etas.pop()
            total_nops -= eta
            last_iss = iss - eta - 1
            sp = saved_p.pop()
            sv = saved_v.pop()
            if sp >= 0:
                pipe_last[sp] = sv
        else:
            ready_mask &= ~(1 << k)
            mask |= 1 << k
            for s in succs[k]:
                d = indeg[s] = indeg[s] - 1
                if d == 0:
                    ready_mask |= 1 << s
            pending = n - depth

    counts = prune_counts(legality=n_legality, bounds=n_bounds, equivalence=n_equivalence,
                          alpha_beta=n_alpha_beta, curtail=n_curtail, timeout=n_timeout,
                          dominance=n_dominance)
    return FastOutcome(best_timing, omega_calls, improvements, completed, timed_out,
                       n_memo_evicted, counts)
