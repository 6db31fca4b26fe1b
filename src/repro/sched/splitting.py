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
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..telemetry import Telemetry, prune_counts
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
        ``"fast"`` runs the windows on the flattened array engine in
        :mod:`repro.sched.core`; ``"native"`` runs the windows on
        the compiled C kernel in :mod:`repro.native` (degrading to
        ``"fast"`` with a one-line notice when no C compiler is
        available); ``"reference"`` runs the recursive formulation
        below.  Results are bit-for-bit identical (everything except
        ``elapsed_seconds``).
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
        from .core import resolve_engine, run_fast_split, run_native_split

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
