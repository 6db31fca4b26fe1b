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
* :func:`schedule_block_multi` — the optimal search over instruction
  order *and* pipeline choice together.  It prices its incumbents and
  hands them to the block search's recursion
  (:func:`repro.sched.reference.run_reference_search`), which branches on
  (tuple, pipeline) candidates: pipelines cheapest-first (least
  immediate NOPs), with identical same-function pipelines of equal
  availability collapsed (choosing either of two idle identical adders
  yields isomorphic subtrees).  The block search's prunes — root bound,
  release-deadline bound, dominance memo, the ``max_live`` register
  budget and the time limit — apply unchanged; an unscheduled tuple
  with several pipelines enters the bounds with its smallest viable
  latency and no pipeline of its own.

Note on the engine switch: the joint search always runs the reference
recursion, whatever ``SearchOptions.engine`` says.  The flattened array
core (:mod:`repro.sched.core`) and the C kernel accelerate the
fixed-assignment search only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription, first_pipeline_assignment
from ..telemetry import Telemetry
from .list_scheduler import list_schedule, program_order
from .nop_insertion import IncrementalTimingState, InitialConditions
from .reference import RelaxedResolver, pipes_of, run_reference_search
from .search import SearchOptions


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
    #: Prune events by kind (see ``repro.prunes.PRUNE_KINDS``).
    prune_counts: Mapping[str, int] = field(default_factory=dict)

    @property
    def issue_span_cycles(self) -> int:
        return len(self.order) + self.total_nops


def schedule_block_multi(
    dag: DependenceDAG,
    machine: MachineDescription,
    options: SearchOptions = SearchOptions(),
    seed: Optional[Sequence[int]] = None,
    extra_incumbents: Optional[
        Sequence[Tuple[Sequence[int], Mapping[int, Optional[int]]]]
    ] = None,
    telemetry: Optional[Telemetry] = None,
    initial_conditions: Optional[InitialConditions] = None,
) -> MultiScheduleResult:
    """Optimal joint (order, pipeline assignment) search.

    Semantics mirror :func:`repro.sched.search.schedule_block` with the
    reference engine, whatever ``options.engine`` says.  The incumbent
    is the cheapest of the seed order priced under greedy (cheapest-now)
    pipeline choices and under the two static pinning policies, and of
    ``extra_incumbents`` — (order, assignment) pairs, e.g. schedules
    already found by the pinned core scheduler — each priced at n Ω
    calls, which guarantees the result never loses to them even when
    the joint search is curtailed.  Under ``options.max_live`` only
    incumbents within the register budget count, and a default seed
    that exceeds it falls back to program order, as in
    ``schedule_block``.  ``initial_conditions`` (the carry-in state of
    preceding blocks) apply to the incumbents and the search alike.
    """
    start = time.perf_counter()
    n = len(dag)
    budget = options.max_live

    def fits_budget(order: Sequence[int]) -> bool:
        if budget is None:
            return True
        from ..regalloc.liveness import max_live as pressure_of

        return pressure_of(dag.block, order) <= budget

    if seed is None:
        seed = list_schedule(dag)
        if not fits_budget(seed):
            seed = program_order(dag)
    seed = tuple(seed)
    if sorted(seed) != sorted(dag.idents):
        raise ValueError("seed must be a permutation of the block's tuples")
    if not fits_budget(seed):
        raise ValueError(
            f"seed schedule needs more than max_live={budget} registers; "
            "run the spill pre-pass (repro.regalloc.insert_spill_code) first"
        )

    resolver = RelaxedResolver(dag, machine)
    initial = initial_conditions or InitialConditions()

    def price(order: Sequence[int], assignment=None) -> tuple:
        """Push ``order`` with each open tuple on its ``assignment``
        pipeline (``None``: the cheapest now); the timing and the
        assignment it ran on."""
        state = IncrementalTimingState(dag, resolver, initial)
        for ident in order:
            pipes = resolver.choices.get(ident)
            if pipes is None:
                state.push(ident)
                continue
            if assignment is None:
                pid = min(pipes, key=lambda p: state.peek_eta(ident, p))
            else:
                pid = assignment.get(ident)
                if pid not in pipes:
                    raise ValueError(
                        f"pipeline {pid} cannot execute tuple {ident} "
                        f"(viable: {list(pipes)})"
                    )
            state.push(ident, pid)
        return state.snapshot(), pipes_of(state)

    # Incumbents (n Ω calls each): the seed under greedy cheapest-now
    # choices and under the two static pinning policies, plus the extra
    # ones — the joint search must never return anything worse than the
    # best pinned schedule.
    incumbents = [
        price(seed),
        price(seed, round_robin_assignment(dag, machine)),
        price(seed, first_pipeline_assignment(dag, machine)),
    ]
    for extra_order, extra_assignment in extra_incumbents or ():
        if sorted(extra_order) != sorted(dag.idents):
            raise ValueError("extra incumbent must cover the whole block")
        incumbents.append(price(extra_order, extra_assignment))
    best, chosen = min(
        (inc for inc in incumbents if fits_budget(inc[0].order)),
        key=lambda inc: inc[0].total_nops,
    )

    result = run_reference_search(
        dag, machine, resolver, options, initial, seed, fits_budget, start,
        assignment=None, priced=(best, chosen, n * len(incumbents)),
    )
    multi = MultiScheduleResult(
        order=result.best.order,
        etas=result.best.etas,
        assignment=chosen,
        total_nops=result.final_nops,
        omega_calls=result.omega_calls,
        completed=result.completed,
        elapsed_seconds=result.elapsed_seconds,
        timed_out=result.timed_out,
        prune_counts=result.prune_counts,
    )
    if telemetry is not None:
        telemetry.record_search(multi)
    return multi
