"""Block splitting for very large basic blocks (section 5.3).

The paper: *"For very large basic blocks, it might be useful to split the
basic blocks into smaller sections (containing, say, twenty instructions
or less each) and find solutions which are locally optimal.  A good
heuristic for the split might be to simply partition the list schedule."*

That is exactly what this module does.  The list schedule is a topological
order, so each consecutive window of it has all external predecessors in
earlier windows.  Each window is one call of the block search
(:func:`repro.sched.search.schedule_block`) over the window's sub-DAG
(:func:`window_dag`), seeded with the window's slice of the list
schedule.  The committed windows enter as carry-in conditions relative
to the next issue slot: pipelines still busy as ``pipe_free``, and each
member's earliest issue — its producers in earlier windows plus their
latency, and the block's own carry-in — as ``tuple_ready``.
Cross-window latencies and enqueue conflicts are thus priced exactly;
only the *ordering freedom* is restricted to within a window.

The result is a valid schedule of the whole block whose NOP count is an
upper bound on the optimum.  Every engine runs the windows, and the
results agree bit for bit as the block search's do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..prunes import prune_counts
from .list_scheduler import list_schedule
from .nop_insertion import (
    IncrementalTimingState,
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
)
from .search import SearchOptions, check_engine, schedule_block

if TYPE_CHECKING:
    from ..telemetry import Telemetry

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
    #: Prune events summed over all windows (``repro.prunes.PRUNE_KINDS``).
    prune_counts: Mapping[str, int] = field(default_factory=dict)

    @property
    def total_nops(self) -> int:
        return self.timing.total_nops


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
        One of :data:`repro.sched.search.ENGINES`; every window's search
        runs on it.  Results are bit-for-bit identical across engines
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
    if engine != "reference":
        from .core import resolve_engine

        # Once per split, so a fallback is counted once, not per window.
        engine = resolve_engine(engine, telemetry=telemetry)
    options = SearchOptions(curtail=curtail_per_window, engine=engine)

    # The committed windows, priced on the whole block.
    prefix = IncrementalTimingState(
        dag, SigmaResolver(dag, machine, assignment), initial_conditions
    )
    windows: List[Tuple[int, ...]] = []
    omega_calls = 0
    all_completed = True
    totals = prune_counts()
    for w_start in range(0, len(seed), window):
        members = seed[w_start : w_start + window]
        windows.append(members)
        result = schedule_block(
            window_dag(dag, members),
            machine,
            options,
            assignment=assignment,
            seed=members,
            initial_conditions=_carry_in(prefix, members),
        )
        omega_calls += result.omega_calls
        all_completed = all_completed and result.completed
        for kind, count in result.prune_counts.items():
            totals[kind] += count
        for ident in result.best.order:
            prefix.push(ident)

    result = SplitScheduleResult(
        timing=prefix.snapshot(),
        windows=tuple(windows),
        omega_calls=omega_calls,
        all_windows_completed=all_completed,
        elapsed_seconds=time.perf_counter() - start,
        prune_counts=totals,
    )
    if telemetry is not None:
        telemetry.record_search(result)
    return result


def _carry_in(
    prefix: IncrementalTimingState, members: Sequence[int]
) -> InitialConditions:
    """What the committed ``prefix`` leaves for the window ``members``.

    Cycle 0 is the slot after the prefix's last issue.  A pipeline still
    busy then carries ``pipe_free``; a member's own carry-in bound and
    its scheduled producers' issue plus latency carry ``tuple_ready``.
    """
    issue = prefix._issue
    origin = issue[prefix._order[-1]] + 1 if prefix._order else 0
    resolver = prefix.resolver
    pipe_free = {}
    for pid, last in prefix._pipe_last.items():
        free = last + resolver.machine.pipeline(pid).enqueue_time - origin
        if free > 0:
            pipe_free[pid] = free
    tuple_ready = {}
    for ident in members:
        ready = prefix._var_bound.get(ident, 0)
        for delta in prefix.dag.rho(ident):
            if delta in issue:
                ready = max(ready, issue[delta] + resolver.latency(delta))
        if ready > origin:
            tuple_ready[ident] = ready - origin
    return InitialConditions(pipe_free=pipe_free, tuple_ready=tuple_ready)


def window_dag(dag: DependenceDAG, members: Sequence[int]) -> DependenceDAG:
    """The sub-DAG over ``members``: their tuples in program order and
    the parent's dependences among them.

    The sub-block skips :class:`~repro.ir.block.BasicBlock` validation:
    operands may still name producers in earlier windows, which the
    window's search sees only through ``tuple_ready``.
    """
    keep = frozenset(members)
    sub = object.__new__(DependenceDAG)
    sub.block = BasicBlock.unchecked(
        (t for t in dag.block if t.ident in keep), dag.block.name
    )
    sub._preds = {i: dag.rho(i) & keep for i in sub.idents}
    sub._succs = {i: dag.successors(i) & keep for i in sub.idents}
    sub._edges = [
        e for e in dag.edges if e.producer in keep and e.consumer in keep
    ]
    sub._extra = ()
    return sub
