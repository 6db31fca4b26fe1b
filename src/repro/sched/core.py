"""Flattened hot core of the branch-and-bound searches.

The recursive reference formulation in :mod:`repro.sched.reference` is
written for readability: immutable records, per-node dict/set churn,
``IncrementalTimingState`` method calls, recursion.  This module runs
the *same* search on a flattened representation: the DAG and machine
are lowered once per block into packed integer arrays (:class:`_Flat`)
— predecessor/successor sets as bitmask ints, latency/enqueue/pipeline
tables as flat lists indexed by dense instruction index (position in
``dag.idents``, so masks are bit-for-bit the ones the reference engine
keys its memo on).

:func:`run_fast_search` prices the seed and the heuristic incumbents on
that lowering and tries the root lower bound.  Only a block the bound
leaves open reaches a DFS: the Python one in :mod:`repro.sched.dfs`
(loaded there, so a block closed at the root never compiles it) or the
C kernel the native engine passes in.  Both mirror the reference
decision for decision; :mod:`repro.sched.dfs` states the invariants.
"""

from __future__ import annotations

import sys
import time
from typing import List, Mapping, Optional, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..prunes import prune_counts
from ..record import Record, setslot
from .bounds import downstream_chains, root_bound
from .nop_insertion import (
    InitialConditions,
    ScheduleTiming,
    SigmaResolver,
)

__all__ = [
    "FastOutcome",
    "run_fast_search",
    "resolve_engine",
]

_removed_engine_warned = False


def resolve_engine(engine: str, telemetry=None) -> str:
    """Map a requested engine onto one that can run in this process.

    The removed ``"vector"`` engine always runs ``"fast"``, and
    ``"native"`` degrades to ``"fast"`` when the C kernel cannot be
    compiled/loaded; everything else passes through.  Each substitution
    prints a one-line stderr notice once per process (population runs
    normalize the engine in the *parent*, so ``--workers N`` still warns
    exactly once total) and bumps the ``search.engine_fallbacks``
    counter when a telemetry registry is attached.  Safe to call in
    worker processes — all engines are bit-for-bit identical in every
    recorded field, so the substitution never changes results, only
    wall time.
    """
    global _removed_engine_warned
    if engine == "vector":
        if not _removed_engine_warned:
            _removed_engine_warned = True
            print(
                "repro: engine 'vector' was removed; running 'fast'",
                file=sys.stderr,
            )
        if telemetry is not None:
            telemetry.count("search.engine_fallbacks")
        return "fast"
    if engine == "native":
        from ..native.bindings import (
            native_available,
            unavailable_reason,
            warn_native_fallback,
        )

        if not native_available():
            warn_native_fallback(unavailable_reason())
            if telemetry is not None:
                telemetry.count("search.engine_fallbacks")
            return "fast"
    return engine


class FastOutcome(Record):
    """What the fast DFS hands back to ``schedule_block``."""

    __slots__ = ("best", "omega_calls", "improvements", "completed", "timed_out",
                 "memo_evicted", "prune_counts")

    def __init__(self, best: ScheduleTiming, omega_calls: int, improvements: int, completed: bool,
                 timed_out: bool, memo_evicted: int, prune_counts: Mapping[str, int]):
        setslot(self, "best", best)
        setslot(self, "omega_calls", omega_calls)
        setslot(self, "improvements", improvements)
        setslot(self, "completed", completed)
        setslot(self, "timed_out", timed_out)
        setslot(self, "memo_evicted", memo_evicted)
        setslot(self, "prune_counts", prune_counts)


class _Flat:
    """Packed-array lowering of one (dag, machine, carry-in) triple.

    Dense instruction index = position in ``dag.idents``; dense pipeline
    index = rank of the pipeline ident in sorted order.  Both maps are
    bijections, so keys built from dense indices partition exactly like
    keys built from the original identifiers.
    """

    __slots__ = (
        "n", "idents", "index_of", "lat", "enq", "sig",
        "preds", "pred_mask", "succs", "succ_mask",
        "P", "pipe_enq", "pipe_last", "var_bound", "has_vb", "vb_items",
    )

    def __init__(
        self,
        dag: DependenceDAG,
        machine: MachineDescription,
        resolver: SigmaResolver,
        initial: Optional[InitialConditions],
    ) -> None:
        idents = dag.idents
        n = len(idents)
        index_of = {ident: k for k, ident in enumerate(idents)}
        self.n = n
        self.idents = idents
        self.index_of = index_of
        self.lat = [resolver.latency(i) for i in idents]
        self.enq = [resolver.enqueue_time(i) for i in idents]

        pipe_ids = sorted(p.ident for p in machine.pipelines)
        pidx = {pid: k for k, pid in enumerate(pipe_ids)}
        self.P = len(pipe_ids)
        self.pipe_enq = [
            machine.pipeline(pid).enqueue_time for pid in pipe_ids
        ]
        self.sig = [
            -1 if resolver.sigma(i) is None else pidx[resolver.sigma(i)]
            for i in idents
        ]

        self.preds = [
            tuple(index_of[p] for p in dag.rho(i)) for i in idents
        ]
        self.pred_mask = [
            sum(1 << p for p in ps) for ps in self.preds
        ]
        self.succs = [
            tuple(index_of[s] for s in dag.successors(i)) for i in idents
        ]
        self.succ_mask = [
            sum(1 << s for s in ss) for ss in self.succs
        ]

        # Carry-in conditions, exactly as IncrementalTimingState seeds
        # them: a pipeline busy until cycle c is a phantom enqueue at
        # c - enqueue_time (may be negative, hence the None sentinel),
        # and variable- and tuple-ready cycles become per-instruction
        # issue bounds.
        self.pipe_last: List[Optional[int]] = [None] * self.P
        self.var_bound: List[Optional[int]] = [None] * n
        if initial is not None and not initial.is_trivial:
            for pid, free_at in initial.pipe_free.items():
                enqueue = machine.pipeline(pid).enqueue_time
                self.pipe_last[pidx[pid]] = free_at - enqueue
            for ident, bound in initial.release_bounds(dag).items():
                self.var_bound[index_of[ident]] = bound
        self.vb_items = tuple(
            (k, b) for k, b in enumerate(self.var_bound) if b is not None
        )
        self.has_vb = bool(self.vb_items)


def _flat_timing(flat: _Flat, dense_order: List[int]) -> ScheduleTiming:
    """Price a complete schedule on the flat arrays (Ω over the order).

    Equivalent to ``compute_timing`` / pushing the order through a fresh
    ``IncrementalTimingState`` — same η recurrence, same carry-ins.
    """
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    var_bound = flat.var_bound
    has_vb = flat.has_vb
    idents = flat.idents
    pipe_last = list(flat.pipe_last)
    issue = [0] * flat.n
    etas: List[int] = []
    issues: List[int] = []
    prev = -1  # issue time of the previous instruction; base = prev + 1
    for k in dense_order:
        base = prev + 1
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
        issue[k] = e
        etas.append(e - base)
        issues.append(e)
        if p >= 0:
            pipe_last[p] = e
        prev = e
    return ScheduleTiming(
        tuple(idents[k] for k in dense_order),
        tuple(etas),
        tuple(issues),
    )


def _flat_greedy(
    flat: _Flat, tiebreak: List[Tuple[int, ...]]
) -> ScheduleTiming:
    """The Gross/Abraham greedy of ``repro.sched.heuristics``, flattened.

    ``tiebreak[k]`` is the tie-break key suffix for dense index ``k``;
    each step picks the ready instruction minimizing ``(η, *tiebreak)``
    exactly as ``_greedy`` does.  Tie-break suffixes end in the unique
    program position, so the minimum is unique and the emitted order —
    hence the timing — is identical to the reference heuristic's.
    """
    n = flat.n
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    succs = flat.succs
    var_bound = flat.var_bound
    has_vb = flat.has_vb
    idents = flat.idents
    pipe_last = list(flat.pipe_last)
    issue = [0] * n
    etas: List[int] = []
    issues: List[int] = []
    out: List[int] = []
    indeg = [len(preds[k]) for k in range(n)]
    ready = [k for k in range(n) if indeg[k] == 0]
    prev = -1
    while ready:
        base = prev + 1
        best_k = -1
        best_e = 0
        best_key = None
        for k in ready:
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
            key = (e - base, *tiebreak[k])
            if best_key is None or key < best_key:
                best_k, best_e, best_key = k, e, key
        ready.remove(best_k)
        out.append(best_k)
        issue[best_k] = best_e
        etas.append(best_e - base)
        issues.append(best_e)
        p = sig[best_k]
        if p >= 0:
            pipe_last[p] = best_e
        prev = best_e
        for s in succs[best_k]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return ScheduleTiming(
        tuple(idents[k] for k in out),
        tuple(etas),
        tuple(issues),
    )


def run_fast_search(
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: SigmaResolver,
    options,
    initial: Optional[InitialConditions],
    seed: Tuple[int, ...],
    fits_budget,
    start: float,
    dfs=None,
):
    """Everything ``schedule_block`` does after seed validation, flattened.

    Seed pricing (step [1]), the heuristic incumbents, the root lower
    bound and the DFS all run on one ``_Flat`` lowering of the block, so
    the fast path pays a single lowering where the reference path builds
    a resolver + incremental state per pricing pass.  Mirrors the
    reference control flow in ``repro.sched.reference`` decision for
    decision; returns a complete ``SearchResult`` (telemetry is recorded
    by the caller).

    ``dfs`` swaps the core loop implementation: ``None`` runs the
    Python :func:`repro.sched.dfs.run_fast_dfs`, imported only here,
    past the root-bound exit; the native engine passes
    ``repro.native.bindings.native_dfs`` (same signature, same
    bit-for-bit outcome) so the whole preamble stays shared.
    """
    from .search import SearchResult

    perf_counter = time.perf_counter
    n = len(dag)
    if not dag.is_legal_order(seed):
        raise ValueError("order is not a legal (dependence-respecting) schedule")
    flat = _Flat(dag, machine, resolver, initial)
    index_of = flat.index_of

    # Step [1]: price the seed schedule (n omega calls), plus the
    # heuristic incumbents when enabled.
    seed_timing = _flat_timing(flat, [index_of[i] for i in seed])
    omega_calls = n
    best = seed_timing
    improvements = 0
    if options.heuristic_seeds and n > 1:
        idents = flat.idents
        heights = dag.heights
        descendants = dag.descendants
        position = dag.block.position_of
        gross_keys = [
            (-heights[i], -len(descendants[i]), position(i)) for i in idents
        ]
        greedy_keys = [(position(i),) for i in idents]
        for tiebreak in (gross_keys, greedy_keys):
            candidate = _flat_greedy(flat, tiebreak)
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
            perf_counter() - start,
            0,
            prune_counts=prune_counts(),
        )

    # Root lower bound: can the incumbent already be proven optimal?  If
    # not, the bound is exact and the DFS stops at the first improvement
    # that meets it.
    chain = downstream_chains(flat)
    best_nops = best.total_nops
    stop_at = -1
    if options.lower_bound_prune:
        stop_at = root_bound(flat, chain, best_nops - 1)
    if best_nops <= stop_at:
        return SearchResult(
            best,
            seed_timing,
            omega_calls,
            True,
            perf_counter() - start,
            improvements,
            proved_by_bound=True,
            prune_counts=prune_counts(bounds=1),
        )

    sig = flat.sig
    users = [0] * flat.P
    for k in range(n):
        if sig[k] >= 0:
            users[sig[k]] += 1
    max_latency = max((p.latency for p in machine.pipelines), default=1)

    if dfs is None:
        # Past the root bound only: a block that closes there never
        # compiles the DFS.
        from .dfs import run_fast_dfs as dfs

    out = dfs(
        flat, dag, options, seed, best, omega_calls, improvements,
        start, chain, users, max_latency, stop_at,
    )
    return SearchResult(
        best=out.best,
        initial=seed_timing,
        omega_calls=out.omega_calls,
        completed=out.completed,
        elapsed_seconds=perf_counter() - start,
        improvements=out.improvements,
        timed_out=out.timed_out,
        memo_evicted=out.memo_evicted,
        prune_counts=out.prune_counts,
    )
