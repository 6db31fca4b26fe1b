"""Block splitting for very large basic blocks (section 5.3).

The paper: *"For very large basic blocks, it might be useful to split the
basic blocks into smaller sections (containing, say, twenty instructions
or less each) and find solutions which are locally optimal.  A good
heuristic for the split might be to simply partition the list schedule."*

That is exactly what this module does.  The list schedule is a topological
order, so each consecutive window of it has all external predecessors in
earlier windows; each window is then scheduled by a bounded
branch-and-bound *continuing from* the committed pipeline/issue state of
the previous windows, so cross-window latencies and enqueue conflicts are
accounted for precisely — only the *ordering freedom* is restricted to
within a window.

The result is a valid schedule of the whole block whose NOP count is an
upper bound on the optimum; the benchmark harness measures the gap and
the (dramatic) search-cost reduction on 40-80-instruction blocks.

Three engines run the same windowed search, bit for bit: the recursive
reference formulation (:func:`_schedule_window`), its flattened twin on
the packed arrays of :mod:`repro.sched.core` (:func:`run_fast_split`),
and the C kernel (:func:`run_native_split`).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..telemetry import Telemetry, prune_counts
from .core import _Flat, resolve_engine, warn_native_fallback
from .list_scheduler import list_schedule
from .nop_insertion import (
    IncrementalTimingState,
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
)
from .search import _Curtailed, check_engine

#: The paper's suggested window size.
DEFAULT_WINDOW = 20


@dataclass(frozen=True)
class SplitScheduleResult:
    """Outcome of windowed locally-optimal scheduling."""

    timing: ScheduleTiming
    windows: Tuple[Tuple[int, ...], ...]
    omega_calls: int
    all_windows_completed: bool
    elapsed_seconds: float
    #: Prune events summed over all windows (``repro.telemetry.PRUNE_KINDS``).
    prune_counts: Mapping[str, int] = field(default_factory=dict)

    @property
    def total_nops(self) -> int:
        return self.timing.total_nops

    @property
    def window_sizes(self) -> Tuple[int, ...]:
        return tuple(len(w) for w in self.windows)


def schedule_block_split(
    dag: DependenceDAG,
    machine: MachineDescription,
    window: int = DEFAULT_WINDOW,
    curtail_per_window: int = 10_000,
    assignment: Optional[PipelineAssignment] = None,
    seed: Optional[Sequence[int]] = None,
    initial_conditions: Optional[InitialConditions] = None,
    telemetry: Optional[Telemetry] = None,
    engine: str = "fast",
) -> SplitScheduleResult:
    """Schedule a block window-by-window, each window locally optimal.

    Parameters
    ----------
    window:
        Maximum instructions re-ordered jointly (paper suggests ~20).
    curtail_per_window:
        Curtail point applied to each window's search independently.
    engine:
        ``"fast"`` runs the windows on the flattened arrays of
        :mod:`repro.sched.core` (:func:`run_fast_split`); ``"native"``
        runs the windows on the compiled C kernel in :mod:`repro.native`
        (degrading to ``"fast"`` with a one-line notice when no C
        compiler is available); ``"reference"`` runs the recursive
        formulation below.  Results are bit-for-bit identical
        (everything except ``elapsed_seconds``).
    """
    if window < 1:
        raise ValueError("window must be at least 1 instruction")
    check_engine(engine)
    start = time.perf_counter()
    if seed is None:
        seed = list_schedule(dag)
    seed = tuple(seed)
    if sorted(seed) != sorted(dag.idents):
        raise ValueError("seed must be a permutation of the block's tuples")

    resolver = SigmaResolver(dag, machine, assignment)

    if engine != "reference":
        engine = resolve_engine(engine, telemetry=telemetry)
        run_split = run_native_split if engine == "native" else run_fast_split

        timing, windows, omega_calls, all_completed, totals = run_split(
            dag, machine, resolver, seed, window,
            curtail_per_window, initial_conditions,
        )
        result = SplitScheduleResult(
            timing=timing,
            windows=windows,
            omega_calls=omega_calls,
            all_windows_completed=all_completed,
            elapsed_seconds=time.perf_counter() - start,
            prune_counts=totals,
        )
        if telemetry is not None:
            telemetry.record_search(result)
        return result
    state = IncrementalTimingState(dag, resolver, initial_conditions)
    successors = {i: tuple(dag.successors(i)) for i in dag.idents}
    omega_calls = 0
    all_completed = True
    windows: List[Tuple[int, ...]] = []
    totals = prune_counts()

    for w_start in range(0, len(seed), window):
        members = seed[w_start : w_start + window]
        windows.append(members)
        best_order, window_calls, window_complete, window_counts = (
            _schedule_window(
                dag, state, resolver, members, successors, curtail_per_window
            )
        )
        omega_calls += window_calls
        all_completed = all_completed and window_complete
        for kind, count in window_counts.items():
            totals[kind] += count
        # Commit the window's best order onto the shared state.
        for ident in best_order:
            state.push(ident)

    result = SplitScheduleResult(
        timing=state.snapshot(),
        windows=tuple(windows),
        omega_calls=omega_calls,
        all_windows_completed=all_completed,
        elapsed_seconds=time.perf_counter() - start,
        prune_counts=totals,
    )
    if telemetry is not None:
        telemetry.record_search(result)
    return result


def _schedule_window(
    dag: DependenceDAG,
    state: IncrementalTimingState,
    resolver: SigmaResolver,
    members: Tuple[int, ...],
    successors: Dict[int, Tuple[int, ...]],
    curtail: int,
) -> Tuple[Tuple[int, ...], int, bool, Dict[str, int]]:
    """Branch-and-bound over orderings of ``members`` on top of ``state``.

    Returns (best order, omega calls, completed flag, prune counts).
    ``state`` is left exactly as it was on entry (all pushes undone).
    """
    member_set = set(members)
    n = len(members)
    seed_pos = {ident: pos for pos, ident in enumerate(members)}
    # Indegree counting only dependences *within* the window; external
    # predecessors are in earlier windows (seed is topological).
    indegree = {
        i: sum(1 for p in dag.rho(i) if p in member_set) for i in members
    }
    ready = [i for i in members if indegree[i] == 0]
    base_nops = state.total_nops
    base_len = len(state.order)

    def price(order: Tuple[int, ...]) -> int:
        for ident in order:
            state.push(ident)
        nops = state.total_nops - base_nops
        for _ in order:
            state.pop()
        return nops

    def greedy_order() -> Tuple[int, ...]:
        """Pipeline-aware greedy over the window, on top of the carry-in
        state — a much tighter incumbent than the raw seed slice."""
        local_indeg = dict(indegree)
        local_ready = list(ready)
        out: List[int] = []
        while local_ready:
            pick = min(
                local_ready,
                key=lambda i: (state.peek_eta(i), seed_pos[i]),
            )
            local_ready.remove(pick)
            state.push(pick)
            out.append(pick)
            for succ in successors[pick]:
                if succ in member_set:
                    local_indeg[succ] -= 1
                    if local_indeg[succ] == 0:
                        local_ready.append(succ)
        for _ in out:
            state.pop()
        return tuple(out)

    # Incumbents: the seed slice and the greedy order (n omega calls each).
    best_order = members
    best_nops = price(members)
    candidate = greedy_order()
    candidate_nops = price(candidate)
    omega_calls = 2 * n
    if candidate_nops < best_nops:
        best_order, best_nops = candidate, candidate_nops

    # Window-local chain bound: latency chains *within* the window (a
    # chain escaping the window costs later windows, not this one).
    chain_in_window: Dict[int, int] = {}
    for ident in reversed(members):
        inner = [s for s in successors[ident] if s in member_set]
        chain_in_window[ident] = (
            0
            if not inner
            else max(
                resolver.latency(ident) + chain_in_window[s] for s in inner
            )
        )
    completed = True
    n_legality = n_bounds = n_alpha_beta = n_curtail = 0

    def rec(remaining: int) -> None:
        nonlocal best_order, best_nops, omega_calls
        nonlocal n_legality, n_bounds, n_alpha_beta, n_curtail
        cands = sorted(ready, key=lambda i: (state.peek_eta(i), seed_pos[i]))
        n_legality += remaining - len(cands)
        if len(state.order) > base_len:
            window_nops = state.total_nops - base_nops
            lb = 0
            for i in cands:
                gap = 1 + state.peek_eta(i) + chain_in_window[i] - remaining
                if gap > lb:
                    lb = gap
            if window_nops + lb >= best_nops:
                n_bounds += 1
                return
        for ident in cands:
            if omega_calls >= curtail:
                n_curtail += 1
                raise _Curtailed
            omega_calls += 1
            state.push(ident)
            try:
                window_nops = state.total_nops - base_nops
                if remaining == 1:
                    if window_nops < best_nops:
                        best_nops = window_nops
                        best_order = state.order[-n:]
                elif window_nops >= best_nops:
                    n_alpha_beta += 1
                else:
                    ready.remove(ident)
                    opened = []
                    for succ in successors[ident]:
                        if succ in member_set:
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
                            if succ in member_set:
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

    return best_order, omega_calls, completed, prune_counts(
        legality=n_legality,
        bounds=n_bounds,
        alpha_beta=n_alpha_beta,
        curtail=n_curtail,
    )


# ----------------------------------------------------------------------
# The flattened and compiled windowed searches
# ----------------------------------------------------------------------
def run_fast_split(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    seed: Tuple[int, ...],
    window: int,
    curtail_per_window: int,
    initial: Optional[InitialConditions],
) -> Tuple[ScheduleTiming, Tuple[Tuple[int, ...], ...], int, bool, Dict[str, int]]:
    """The windowed search of ``schedule_block_split``, on packed arrays.

    Returns ``(timing, windows, omega_calls, all_completed, totals)``;
    the caller wraps them into a ``SplitScheduleResult``.  The flat
    timing state is carried across windows exactly like the shared
    ``IncrementalTimingState`` in the reference, so cross-window
    latencies and enqueue conflicts are priced identically.
    """
    flat = _Flat(dag, machine, resolver, initial)
    n = flat.n
    idents = flat.idents
    index_of = flat.index_of
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    pred_mask = flat.pred_mask
    succs = flat.succs
    pipe_last = flat.pipe_last
    var_bound = flat.var_bound
    has_vb = flat.has_vb

    order: List[int] = []
    etas: List[int] = []
    issue = [0] * n
    pipe_saved: List[Optional[Tuple[int, Optional[int]]]] = []
    total_nops = 0

    def fpeek(k: int) -> int:
        base = issue[order[-1]] + 1 if order else 0
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
        return e - base

    def fpush(k: int, eta: Optional[int] = None) -> None:
        nonlocal total_nops
        if eta is None:
            eta = fpeek(k)
        iss = issue[order[-1]] + 1 + eta if order else eta
        order.append(k)
        etas.append(eta)
        issue[k] = iss
        total_nops += eta
        p = sig[k]
        if p < 0:
            pipe_saved.append(None)
        else:
            pipe_saved.append((p, pipe_last[p]))
            pipe_last[p] = iss

    def fpop() -> None:
        nonlocal total_nops
        order.pop()
        total_nops -= etas.pop()
        saved = pipe_saved.pop()
        if saved is not None:
            pipe_last[saved[0]] = saved[1]

    def window_search(members: List[int], curtail: int):
        """One window's branch-and-bound, mirroring ``_schedule_window``."""
        wn = len(members)
        member_mask = 0
        for k in members:
            member_mask |= 1 << k
        wseed = {k: pos for pos, k in enumerate(members)}
        windeg = {
            k: (pred_mask[k] & member_mask).bit_count() for k in members
        }
        ready0 = [k for k in members if windeg[k] == 0]
        base_nops = total_nops
        entry_len = len(order)

        def price(seq) -> int:
            for k in seq:
                fpush(k)
            nops = total_nops - base_nops
            for _ in seq:
                fpop()
            return nops

        def greedy_order() -> Tuple[int, ...]:
            local_indeg = dict(windeg)
            local_ready = list(ready0)
            out: List[int] = []
            while local_ready:
                pick = min(
                    local_ready, key=lambda k: (fpeek(k), wseed[k])
                )
                local_ready.remove(pick)
                fpush(pick)
                out.append(pick)
                for s in succs[pick]:
                    if (member_mask >> s) & 1:
                        local_indeg[s] -= 1
                        if local_indeg[s] == 0:
                            local_ready.append(s)
            for _ in out:
                fpop()
            return tuple(out)

        best_order = tuple(members)
        best_nops = price(best_order)
        candidate = greedy_order()
        candidate_nops = price(candidate)
        wcalls = 2 * wn
        if candidate_nops < best_nops:
            best_order, best_nops = candidate, candidate_nops

        chain_w: Dict[int, int] = {}
        for k in reversed(members):
            inner = [s for s in succs[k] if (member_mask >> s) & 1]
            chain_w[k] = (
                0 if not inner else max(lat[k] + chain_w[s] for s in inner)
            )
        wcomplete = True
        n_legality = n_bounds = n_alpha_beta = n_curtail = 0

        ready_mask = 0
        for k in ready0:
            ready_mask |= 1 << k

        def wexpand(remaining: int) -> list:
            nonlocal n_legality, n_bounds
            base = issue[order[-1]] + 1 if order else 0
            cands = []
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
                cands.append((e - base, wseed[k], k))
            n_legality += remaining - len(cands)
            cands.sort()
            if len(order) > entry_len:
                window_nops = total_nops - base_nops
                lb = 0
                for eta, _, k in cands:
                    gap = 1 + eta + chain_w[k] - remaining
                    if gap > lb:
                        lb = gap
                if window_nops + lb >= best_nops:
                    n_bounds += 1
                    return [(), 0]
            return [cands, 0]

        frames = [wexpand(wn)]
        while frames:
            frame = frames[-1]
            cands = frame[0]
            idx = frame[1]
            if idx == len(cands):
                frames.pop()
                if not frames:
                    break
                k = order[-1]
                for s in succs[k]:
                    if (member_mask >> s) & 1:
                        if windeg[s] == 0:
                            ready_mask &= ~(1 << s)
                        windeg[s] += 1
                ready_mask |= 1 << k
                fpop()
                continue
            frame[1] = idx + 1
            eta, _, k = cands[idx]
            if wcalls >= curtail:
                n_curtail += 1
                wcomplete = False
                # Unwind the partial window (the reference's _Curtailed
                # propagates through per-push finally blocks): the shared
                # flat state must be back at window entry before commit.
                while len(order) > entry_len:
                    fpop()
                break
            wcalls += 1
            fpush(k, eta)
            window_nops = total_nops - base_nops
            depth = len(order) - entry_len
            done = False
            if depth == wn:
                if window_nops < best_nops:
                    best_nops = window_nops
                    best_order = tuple(order[-wn:])
                done = True
            elif window_nops >= best_nops:
                n_alpha_beta += 1
                done = True
            if done:
                fpop()
            else:
                ready_mask &= ~(1 << k)
                for s in succs[k]:
                    if (member_mask >> s) & 1:
                        d = windeg[s] = windeg[s] - 1
                        if d == 0:
                            ready_mask |= 1 << s
                frames.append(wexpand(wn - depth))

        return best_order, wcalls, wcomplete, prune_counts(
            legality=n_legality,
            bounds=n_bounds,
            alpha_beta=n_alpha_beta,
            curtail=n_curtail,
        )

    dense_seed = [index_of[i] for i in seed]
    omega_calls = 0
    all_completed = True
    windows: List[Tuple[int, ...]] = []
    totals = prune_counts()
    for w_start in range(0, len(dense_seed), window):
        members = dense_seed[w_start:w_start + window]
        windows.append(tuple(seed[w_start:w_start + window]))
        best_order, wcalls, wcomplete, wcounts = window_search(
            members, curtail_per_window
        )
        omega_calls += wcalls
        all_completed = all_completed and wcomplete
        for kind, count in wcounts.items():
            totals[kind] += count
        for k in best_order:
            fpush(k)

    timing = ScheduleTiming(
        tuple(idents[k] for k in order),
        tuple(etas),
        tuple(issue[k] for k in order),
    )
    return timing, tuple(windows), omega_calls, all_completed, totals


def run_native_split(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    seed: Tuple[int, ...],
    window: int,
    curtail_per_window: int,
    initial: Optional[InitialConditions],
) -> Tuple[ScheduleTiming, Tuple[Tuple[int, ...], ...], int, bool, Dict[str, int]]:
    """``run_fast_split`` compiled to C (``engine="native"``).

    Same contract and bit-for-bit identical returns; the flat timing
    state is carried across windows inside the kernel exactly like the
    Python splitter carries its own.  Degrades to
    :func:`run_fast_split` after a one-line notice when the C kernel is
    unavailable; empty blocks short-circuit to the Python splitter
    (nothing to schedule, nothing to accelerate).
    """
    from ..native import bindings as _nb

    if len(dag) == 0 or not _nb.native_available():
        if len(dag) > 0:
            warn_native_fallback(_nb.unavailable_reason())
        return run_fast_split(
            dag, machine, resolver, seed, window, curtail_per_window, initial
        )
    flat = _Flat(dag, machine, resolver, initial)
    timing, omega_calls, all_completed, totals = _nb.native_split(
        flat, seed, window, curtail_per_window
    )
    windows = tuple(
        tuple(seed[w_start:w_start + window])
        for w_start in range(0, len(seed), window)
    )
    return timing, windows, omega_calls, all_completed, totals
