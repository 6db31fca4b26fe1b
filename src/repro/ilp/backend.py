"""The ``backend="ilp"`` entry: certified NOP-minimization via ILP.

:func:`run_ilp_search` is the ILP twin of ``sched.core.run_fast_search``:
it lowers the block to the packed ``_Flat`` tables, copies them into the
encoder's own :class:`~repro.ilp.encoder.ModelTables`, prices the seed
and heuristic incumbents, builds one
:class:`~repro.ilp.encoder.TimeIndexedModel` at the incumbent's horizon
and runs LP-based branch and bound to either *prove the incumbent
optimal* or *beat it*.  The answer comes back as an
:class:`IlpSearchResult` — a ``SearchResult`` whose ``best`` timing was
re-derived entirely from the encoder's tables, plus the ILP-specific
certificates: the root LP relaxation (a dual lower bound in NOPs,
comparable to the search's chain/users/root combinatorial bounds) and
the certified ``lower_bound`` that remains valid even when a node or
pivot budget curtails the run (``completed=False``), so a curtailed
block carries a replayable optimality gap instead of a shrug.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Tuple

from ..prunes import prune_counts
from ..record import setslot
from ..sched.search import SearchResult
from .bnb import IlpOptions, branch_and_bound
from .encoder import ModelTables, TimeIndexedModel


class IlpSearchResult(SearchResult):
    """``SearchResult`` plus the ILP backend's certificates.

    ``completed=True`` means branch and bound exhausted the tree:
    ``best`` is provably optimal and ``lower_bound == final_nops``.
    Otherwise a budget ran out and ``lower_bound`` is the certified
    dual bound active at curtailment — ``final_nops - lower_bound`` is
    a true optimality gap.
    """

    __slots__ = ("lp_relaxation", "lower_bound", "nodes", "lp_pivots")

    def __init__(self, best, initial, omega_calls, completed, elapsed_seconds, improvements,
                 proved_by_bound=False, timed_out=False, memo_evicted=0, prune_counts=None,
                 lp_relaxation: float = 0.0, lower_bound: int = 0, nodes: int = 0,
                 lp_pivots: int = 0):
        super().__init__(best, initial, omega_calls, completed, elapsed_seconds, improvements,
                         proved_by_bound, timed_out, memo_evicted, prune_counts)
        #: Root LP optimum in NOPs (makespan relaxation minus ``n - 1``).
        setslot(self, "lp_relaxation", lp_relaxation)
        #: Certified lower bound on the optimal NOP count.
        setslot(self, "lower_bound", lower_bound)
        #: Branch-and-bound nodes solved (including the root).
        setslot(self, "nodes", nodes)
        #: Simplex pivots across all node LPs.
        setslot(self, "lp_pivots", lp_pivots)

    @property
    def optimality_gap(self) -> int:
        return self.final_nops - self.lower_bound


def run_ilp_search(
    dag,
    machine,
    resolver,
    options,
    ilp_options: Optional[IlpOptions],
    initial,
    seed: Tuple[int, ...],
    assignment,
    start: float,
) -> IlpSearchResult:
    """Everything ``schedule_block(backend="ilp")`` does after validation.

    Mirrors ``run_fast_search``'s contract: ``seed`` is already
    validated, ``start`` anchors ``elapsed_seconds``, and the caller
    records telemetry.  ``options`` contributes the seeding policy
    (``heuristic_seeds``) and ``time_limit``; the ILP budgets come from
    ``ilp_options``.
    """
    from ..sched.core import _Flat
    from ..sched.heuristics import greedy_schedule, gross_schedule

    if ilp_options is None:
        ilp_options = IlpOptions()
    if options.time_limit is not None:
        limit = options.time_limit
        if ilp_options.time_limit is not None:
            limit = min(limit, ilp_options.time_limit)
        ilp_options = replace(ilp_options, time_limit=limit)

    n = len(dag)
    flat = _Flat(dag, machine, resolver, initial)
    tables = ModelTables(flat)
    index_of = flat.index_of

    omega_calls = 0
    improvements = 0

    def price_idents(order_idents):
        nonlocal omega_calls
        omega_calls += n
        return tables.timing_of([index_of[i] for i in order_idents])

    seed_timing = price_idents(seed)
    best = seed_timing
    if options.heuristic_seeds and n > 1:
        for heuristic in (gross_schedule, greedy_schedule):
            candidate = price_idents(
                heuristic(dag, machine, assignment, initial).order
            )
            if candidate.total_nops < best.total_nops:
                best = candidate
                improvements += 1

    if n <= 1:
        return IlpSearchResult(
            best,
            seed_timing,
            omega_calls,
            True,
            time.perf_counter() - start,
            improvements,
            prune_counts=prune_counts(),
            lp_relaxation=float(best.total_nops),
            lower_bound=best.total_nops,
            nodes=0,
            lp_pivots=0,
        )

    horizon = best.issue_times[-1]
    model = TimeIndexedModel(tables, horizon)

    def price(dense_order: List[int]) -> int:
        nonlocal omega_calls, improvements, best
        omega_calls += n
        timing = tables.timing_of(dense_order)
        if timing.total_nops < best.total_nops:
            best = timing
            improvements += 1
        return timing.issue_times[-1]

    outcome = branch_and_bound(model, horizon, price, ilp_options, start)

    final_nops = best.total_nops
    if outcome.completed:
        lower_bound = final_nops
    else:
        lower_bound = max(0, outcome.best_bound - (n - 1))
    if outcome.lp_relaxation is not None:
        lp_relaxation = max(0.0, outcome.lp_relaxation - (n - 1))
    else:
        lp_relaxation = float(max(0, model.z_lower - (n - 1)))

    kinds = {}
    if outcome.pruned_by_bound:
        kinds["bounds"] = outcome.pruned_by_bound
    if outcome.timed_out:
        kinds["timeout"] = 1
    elif not outcome.completed:
        kinds["curtail"] = 1
    return IlpSearchResult(
        best,
        seed_timing,
        omega_calls,
        outcome.completed,
        time.perf_counter() - start,
        improvements,
        proved_by_bound=outcome.proved_at_root,
        timed_out=outcome.timed_out,
        prune_counts=prune_counts(**kinds),
        lp_relaxation=lp_relaxation,
        lower_bound=lower_bound,
        nodes=outcome.nodes,
        lp_pivots=outcome.pivots,
    )
