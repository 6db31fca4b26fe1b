"""Modulo software pipelining over the multi-pipeline model.

The paper schedules straight-line blocks; this module extends the same
latency/enqueue machine tables to the repo's first loop-level workload.
A :class:`~repro.ir.loop.LoopBlock` (body tuples + derived loop-carried
dependences) is scheduled as a *modulo schedule*: every body tuple ``z``
gets a non-negative **offset**, and instance ``(z, iteration i)`` issues
at cycle ``i * II + offset(z)`` for one global **initiation interval**
``II``.  A schedule is feasible at ``II`` when

* **single issue** — offsets are pairwise distinct modulo ``II`` (the
  machine issues one instruction or NOP per tick, so a steady-state
  window of ``II`` cycles holds each body tuple exactly once);
* **dependences** — for every dependence ``z -> w`` with iteration
  distance ``d`` (0 for intra-iteration edges),
  ``offset(w) + d*II >= offset(z) + latency(z)`` — the same uniform
  producer-latency rule the block scheduler's Ω applies (section 4.2.2
  step [6]), now with ``d*II`` of cross-iteration slack;
* **enqueue windows modulo II** — for every pipeline, the cyclic windows
  ``[offset mod II, offset mod II + enqueue)`` of its users are pairwise
  disjoint (the modulo reservation table).

The minimum initiation interval **MII** is the classic two-sided bound
(:func:`min_initiation_interval`): the resource bound *ResMII* from
per-pipeline enqueue pressure (and the single-issue bound ``n``), and
the recurrence bound *RecMII* from distance-weighted dependence cycles.

:func:`schedule_loop` then searches candidate IIs upward from MII.  The
existing block engines are reused twice: ``schedule_block`` on the
acyclic body provides the priority order that seeds the modulo placement
search, and the *steady-state fixpoint* of that order (iterating the
block Ω under its own ``carry_out`` conditions until the window
stabilizes — i.e. software pipelining with whole iterations as stages)
prices the always-feasible incumbent.  The plain list-schedule order is
priced the same way, which makes ``result.ii <= result.list_ii`` hold by
construction.  Every emitted schedule is re-checked against the three
feasibility rules above before it is returned; the *independent*
re-derivation lives in ``repro.verify.certificate.check_steady_state``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..ir.dag import DependenceDAG
from ..ir.loop import LoopBlock, LoopCarriedDep
from ..machine.machine import MachineDescription
from ..telemetry import Telemetry
from .list_scheduler import list_schedule
from .nop_insertion import (
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
    compute_timing,
)
from .search import ScheduleRequest, SearchOptions, schedule_block

#: Placement attempts the modulo search may spend in one
#: :func:`schedule_loop` call, shared by every candidate II it tries.
DEFAULT_PLACEMENT_BUDGET = 50_000

#: Fixpoint rounds before the steady-state iteration gives up and falls
#: back to bump-validation of its last window.
_MAX_FIXPOINT_ROUNDS = 32


# ----------------------------------------------------------------------
# The dependence graph with iteration distances
# ----------------------------------------------------------------------
#: One dependence as the modulo scheduler sees it:
#: (producer, consumer, producer latency, iteration distance).
_Edge = Tuple[int, int, int, int]


def _distance_edges(
    dag: DependenceDAG,
    carried: Sequence[LoopCarriedDep],
    resolver: SigmaResolver,
) -> List[_Edge]:
    edges: List[_Edge] = []
    for e in dag.edges:
        edges.append((e.producer, e.consumer, resolver.latency(e.producer), 0))
    for dep in carried:
        edges.append(
            (dep.producer, dep.consumer, resolver.latency(dep.producer),
             dep.distance)
        )
    return edges


@dataclass(frozen=True)
class MiiReport:
    """The two-sided minimum-II bound and its components."""

    res_mii: int  #: resource bound: max(n, per-pipeline enqueue pressure)
    rec_mii: int  #: recurrence bound: max cycle ceil(latencies/distances)

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii, 1)

    def __str__(self) -> str:
        return f"MII {self.mii} (res {self.res_mii}, rec {self.rec_mii})"


#: "No path" in a longest-path matrix.
_NO_PATH = float("-inf")


def _longest_paths(
    idents: Sequence[int], edges: Sequence[_Edge], ii: int
) -> Optional[List[List[float]]]:
    """All-pairs longest paths at weight ``lat - II*dist`` (Floyd–Warshall).

    Entry ``[i][j]`` bounds ``offset(idents[j]) - offset(idents[i])``
    from below in any modulo schedule at ``ii``; a finite diagonal entry
    means the tuple lies on a dependence cycle.  Returns ``None`` as soon
    as a diagonal entry turns positive: a positive cycle refutes ``ii``.
    """
    index = {z: k for k, z in enumerate(idents)}
    n = len(idents)
    dist = [[_NO_PATH] * n for _ in range(n)]
    for producer, consumer, lat, d in edges:
        w = lat - ii * d
        u, v = index[producer], index[consumer]
        if w > dist[u][v]:
            dist[u][v] = w
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik == _NO_PATH:
                continue
            row_i = dist[i]
            for j in range(n):
                via = d_ik + row_k[j]
                if via > row_i[j]:
                    row_i[j] = via
            if row_i[i] > 0:
                return None
    return dist


def min_initiation_interval(
    loop: LoopBlock,
    machine: MachineDescription,
    assignment: Optional[PipelineAssignment] = None,
) -> MiiReport:
    """MII = max(ResMII, RecMII) for ``loop`` on ``machine``.

    *ResMII* is the larger of the body size ``n`` (single issue: a
    steady-state window holds every body tuple once) and, per pipeline,
    ``users * enqueue_time`` (the cyclic enqueue windows must tile into
    ``II`` slots).  *RecMII* is the smallest ``II`` for which no
    dependence cycle has positive weight ``sum(latencies) -
    II * sum(distances)`` — found by binary search with a
    Floyd–Warshall positive-cycle test.  Every cycle contains a carried
    edge (the body DAG is acyclic), so the search space is bounded by
    the total latency mass.
    """
    dag = DependenceDAG(loop.body)
    assignment = _pin_assignment(dag, machine, assignment)
    resolver = SigmaResolver(dag, machine, assignment)
    n = len(loop.body)
    if n == 0:
        return MiiReport(res_mii=0, rec_mii=0)

    res = n
    pressure: Dict[int, int] = {}
    for z in dag.idents:
        pid = resolver.sigma(z)
        if pid is not None:
            pressure[pid] = pressure.get(pid, 0) + 1
    for pid, users in pressure.items():
        res = max(res, users * machine.pipeline(pid).enqueue_time)

    edges = _distance_edges(dag, loop.carried, resolver)
    lo, hi = 1, max(1, sum(lat for _, _, lat, _ in edges))
    if _longest_paths(dag.idents, edges, hi) is not None:
        while lo < hi:
            mid = (lo + hi) // 2
            if _longest_paths(dag.idents, edges, mid) is None:
                lo = mid + 1
            else:
                hi = mid
        rec = lo
    else:  # pragma: no cover - total latency always bounds every cycle
        rec = hi + 1
    return MiiReport(res_mii=res, rec_mii=rec)


def _pin_assignment(
    dag: DependenceDAG,
    machine: MachineDescription,
    assignment: Optional[PipelineAssignment],
) -> Optional[PipelineAssignment]:
    """Loops need a fixed sigma; pin non-deterministic machines to the
    first viable pipeline per tuple (the multi-pipeline extension's
    baseline policy) unless the caller already chose."""
    if assignment is not None or machine.is_deterministic:
        return assignment
    from .multi import first_pipeline_assignment

    return first_pipeline_assignment(dag, machine)


# ----------------------------------------------------------------------
# Feasibility of a complete offset table (the scheduler-side check; the
# independent certificate re-derives this in repro.verify.certificate)
# ----------------------------------------------------------------------
def modulo_feasible(
    loop: LoopBlock,
    machine: MachineDescription,
    offsets: Mapping[int, int],
    ii: int,
    assignment: Optional[PipelineAssignment] = None,
    dag: Optional[DependenceDAG] = None,
) -> bool:
    """Do ``offsets`` at ``ii`` satisfy all three modulo-schedule rules?"""
    if ii < 1:
        return False
    dag = dag or DependenceDAG(loop.body)
    assignment = _pin_assignment(dag, machine, assignment)
    resolver = SigmaResolver(dag, machine, assignment)
    idents = dag.idents
    if set(offsets) != set(idents):
        return False
    if any(offsets[z] < 0 for z in idents):
        return False
    slots = {z: offsets[z] % ii for z in idents}
    if len(set(slots.values())) != len(idents):
        return False
    for producer, consumer, lat, d in _distance_edges(
        dag, loop.carried, resolver
    ):
        if offsets[consumer] + d * ii < offsets[producer] + lat:
            return False
    by_pipe: Dict[int, List[int]] = {}
    for z in idents:
        pid = resolver.sigma(z)
        if pid is not None:
            by_pipe.setdefault(pid, []).append(slots[z])
    for pid, starts in by_pipe.items():
        enqueue = machine.pipeline(pid).enqueue_time
        starts.sort()
        if len(starts) == 1:
            if ii < enqueue:
                return False
            continue
        for a, b in zip(starts, starts[1:]):
            if b - a < enqueue:
                return False
        if starts[0] + ii - starts[-1] < enqueue:
            return False
    return True


# ----------------------------------------------------------------------
# Steady-state fixpoint of a fixed body order (the list-II pricer and
# the always-feasible incumbent)
# ----------------------------------------------------------------------
def steady_state_offsets(
    loop: LoopBlock,
    machine: MachineDescription,
    order: Sequence[int],
    assignment: Optional[PipelineAssignment] = None,
    dag: Optional[DependenceDAG] = None,
) -> Tuple[int, Dict[int, int]]:
    """Price a fixed body order as a modulo schedule: ``(II, offsets)``.

    Iterates the block Ω over ``order`` under its own
    :func:`~repro.sched.interblock.carry_out` conditions — iteration
    ``i+1`` scheduled as if it began the cycle after iteration ``i``'s
    last issue — until the window stabilizes.  The fixpoint's issue
    times are valid offsets at ``II = window span``: they are distinct
    in ``[0, II)``, contiguity covers the intra-iteration constraints,
    and the carry conditions cover the carried ones.  The result is
    defensively re-checked with :func:`modulo_feasible` and ``II``
    bumped upward if ever needed (fixed offsets only get *more*
    feasible as ``II`` grows).
    """
    from .interblock import carry_out

    dag = dag or DependenceDAG(loop.body)
    assignment = _pin_assignment(dag, machine, assignment)
    resolver = SigmaResolver(dag, machine, assignment)
    conditions = InitialConditions()
    timing = None
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        timing = compute_timing(
            dag, order, machine, assignment=assignment,
            check_legality=False, initial=conditions,
        )
        next_conditions = carry_out(timing, dag, machine, resolver)
        if next_conditions == conditions:
            break
        conditions = next_conditions
    offsets = {z: t for z, t in zip(timing.order, timing.issue_times)}
    ii = timing.issue_span_cycles
    while not modulo_feasible(
        loop, machine, offsets, ii, assignment=assignment, dag=dag
    ):  # pragma: no cover - the fixpoint window is feasible by construction
        ii += 1
    return ii, offsets


# ----------------------------------------------------------------------
# The modulo placement search for one candidate II
# ----------------------------------------------------------------------
class _BudgetExhausted(Exception):
    """Internal unwind: the call's shared placement budget ran out."""


def _find_kernel(
    priority: Sequence[int],
    ii: int,
    resolver: SigmaResolver,
    edges: Sequence[_Edge],
    budget: int,
    counter: List[int],
) -> Optional[Dict[int, int]]:
    """Complete modulo placement at a fixed ``ii`` — or its refutation.

    An offset decomposes as ``stage * ii + slot``, and the two halves
    separate cleanly: the single-issue and enqueue-window rules see only
    the slots, while for fixed slots the dependence rules become pure
    difference constraints on the stages —

        stage(w) >= stage(z) + ceil((lat(z) - d*ii + slot(z) - slot(w)) / ii)

    which have a solution iff the constraint graph has no positive
    cycle.  The search branches only where a slot choice can matter:

    * **closure** — the all-pairs longest paths ``L`` at weight
      ``lat - d*ii`` (:func:`_longest_paths`) refute ``ii`` outright on a
      positive cycle;
    * **constrained tuples** — those sharing a dependence cycle with
      another tuple, or sharing a pipeline whose enqueue windows
      (``enqueue >= 2``) can collide — are enumerated slot by slot in
      ``priority`` order (the block search's optimal order), the first
      one at slot 0 only (rotating every offset by a constant preserves
      feasibility).  Each placement is checked against an incremental
      longest-path matrix over the placed tuples at the closure weights
      ``ceil((L[y][z] + slot(y) - slot(z)) / ii)``, which also sees
      paths through tuples not yet placed, and then narrows the slot
      domain of every unplaced constrained tuple to the slots still
      compatible with it (forward checking): a placement that empties
      a domain is abandoned before its subtree is entered;
    * **free tuples** — every other one — take the leftover slots at
      the leaf.  No stage cycle passes through a free tuple (its
      self-recurrence, if any, is slot-independent and already on
      ``L``'s diagonal) and its enqueue window cannot collide, so any
      leftover slot is as good as any other; there are enough of them,
      and room for every sole user's window, because ``ii >= MII``.

    Stages are solved exactly (Bellman–Ford longest path over the direct
    edges) at the leaf.  ``None`` means *no* modulo schedule exists at
    ``ii`` — a refutation ``schedule_loop`` turns into an optimality
    proof.  Every slot tried from a constrained tuple's domain costs one
    placement on ``counter``, which ``schedule_loop`` shares across all its
    candidate IIs; past ``budget`` placements :class:`_BudgetExhausted`
    leaves the candidate undecided.
    """
    order = list(priority)
    longest = _longest_paths(order, edges, ii)
    if longest is None:
        return None
    n = len(order)
    users: Dict[int, int] = {}
    for z in order:
        pid = resolver.sigma(z)
        if pid is not None:
            users[pid] = users.get(pid, 0) + 1

    def pipe(z: int) -> Optional[int]:
        """``z``'s pipeline when its enqueue windows can collide."""
        pid = resolver.sigma(z)
        if pid is None or resolver.enqueue_time(z) < 2 or users[pid] < 2:
            return None
        return pid

    picked = [
        i for i in range(n)
        if pipe(order[i]) is not None or any(
            longest[i][j] != _NO_PATH and longest[j][i] != _NO_PATH
            for j in range(n) if j != i
        )
    ]
    chosen = [order[i] for i in picked]
    free = [z for z in order if z not in chosen]
    closure = [[longest[i][j] for j in picked] for i in picked]
    pipes = [pipe(z) for z in chosen]
    enqueue = [resolver.enqueue_time(z) for z in chosen]
    slot_of = [0] * len(chosen)
    #: paths[k]: longest paths among chosen[:k] at the closure weights
    #: (diagonal 0: the empty path), one matrix per search depth.
    paths: List[List[List[float]]] = [[]]

    def compatible(a: int, sa: int, b: int, sb: int) -> bool:
        """Can ``chosen[a]`` at slot ``sa`` and ``chosen[b]`` at slot
        ``sb`` share a kernel?  Distinct slots, disjoint cyclic enqueue
        windows (each arc shorter than ``ii``, so they meet iff one holds
        the other's start), and no positive stage 2-cycle."""
        if sa == sb:
            return False
        if pipes[a] is not None and pipes[a] == pipes[b] and (
            (sb - sa) % ii < enqueue[a] or (sa - sb) % ii < enqueue[b]
        ):
            return False
        ab, ba = closure[a][b], closure[b][a]
        return (
            ab == _NO_PATH
            or ba == _NO_PATH
            or -((sb - sa - ab) // ii) - ((sa - sb - ba) // ii) <= 0
        )

    def leaf() -> Optional[Dict[int, int]]:
        slots = dict(zip(chosen, slot_of))
        taken = set(slot_of)
        slots.update(zip(free, (s for s in range(ii) if s not in taken)))
        stage = {z: 0 for z in order}
        active = [
            (p, c, -((slots[c] - slots[p] - lat + d * ii) // ii))
            for p, c, lat, d in edges
        ]
        for _ in range(n + 1):
            changed = False
            for p, c, need in active:
                if stage[p] + need > stage[c]:
                    stage[c] = stage[p] + need
                    changed = True
            if not changed:
                lift = -min(stage.values())
                return {z: (stage[z] + lift) * ii + slots[z] for z in order}
        return None  # pragma: no cover - the closure check rules this out

    def place(k: int, domains: List[Set[int]]) -> Optional[Dict[int, int]]:
        """Place ``chosen[k:]``; ``domains[j]`` holds the slots still
        compatible with every placed tuple for ``chosen[k + j]``."""
        if k == len(chosen):
            return leaf()
        prior = paths[k]
        to_k = [row[k] for row in closure[:k]]
        from_k = closure[k][:k]
        for s in sorted(domains[0]):
            counter[0] += 1
            if counter[0] > budget:
                raise _BudgetExhausted
            # Closure stage bounds between chosen[k] at s and each placed
            # tuple a: stage(k) - stage(a) >= ceil((L[a][k] + slot(a) - s)/ii).
            into = [
                _NO_PATH if w == _NO_PATH else -((s - slot_of[a] - w) // ii)
                for a, w in enumerate(to_k)
            ]
            out = [
                _NO_PATH if w == _NO_PATH else -((slot_of[a] - s - w) // ii)
                for a, w in enumerate(from_k)
            ]
            reach_in = [max(map(add, row, into)) for row in prior]
            reach_out = [max(map(add, out, col)) for col in zip(*prior)]
            if any(o + i > 0 for o, i in zip(reach_out, into)):
                continue  # a positive stage cycle through chosen[k]
            rest = [
                {t for t in dom if compatible(k, s, j, t)}
                for j, dom in enumerate(domains[1:], k + 1)
            ]
            if not all(rest):
                continue  # an unplaced tuple has no slot left
            slot_of[k] = s
            paths.append(
                [
                    [max(p, r_in + r_out) for p, r_out in zip(row, reach_out)]
                    + [r_in]
                    for row, r_in in zip(prior, reach_in)
                ]
                + [reach_out + [0]]
            )
            found = place(k + 1, rest)
            if found is not None:
                return found
            paths.pop()
        return None

    # Rotation symmetry: the first constrained tuple sits at slot 0.
    return place(0, [{0}] + [set(range(ii))] * (len(chosen) - 1))


# ----------------------------------------------------------------------
# The result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModuloScheduleResult:
    """Outcome of one modulo-scheduling run (``ScheduleOutcome``
    protocol: ``schedule`` / ``objective`` / ``provenance`` /
    ``elapsed_seconds`` / ``completed``)."""

    loop: LoopBlock
    ii: int  #: the achieved initiation interval (the objective)
    mii: int  #: max(res_mii, rec_mii) — the lower bound searched from
    res_mii: int
    rec_mii: int
    #: ident -> issue offset; instance ``(z, i)`` issues at
    #: ``i * ii + offsets[z]``.
    offsets: Mapping[int, int]
    #: II of the steady-state pipelined *list* schedule (the baseline
    #: the searched kernel must never lose to).
    list_ii: int
    #: Provably optimal: either ``ii == mii`` (met the lower bound) or
    #: every candidate II below ``ii`` was *completely refuted* by the
    #: placement search (which decomposes offsets into slots plus exact
    #: stage feasibility, so a ``None`` answer is a proof, not a miss).
    completed: bool
    #: True when the modulo placement search found the kernel; False
    #: when the steady-state incumbent already matched the best known II.
    searched: bool
    placements: int  #: placement attempts across all candidate IIs
    omega_calls: int  #: Ω calls spent by the seeding block search
    elapsed_seconds: float
    assignment: Optional[Mapping[int, Optional[int]]] = None

    #: Backend provenance (``ScheduleOutcome`` protocol).
    provenance = "modulo"

    def __post_init__(self) -> None:
        object.__setattr__(self, "offsets", dict(self.offsets))

    # ------------------------------------------------------------------
    @property
    def objective(self) -> int:
        """The minimized integer — the initiation interval."""
        return self.ii

    @property
    def stage_count(self) -> int:
        """Stages (iterations simultaneously in flight in steady state)."""
        if not self.offsets:
            return 0
        return max(off // self.ii for off in self.offsets.values()) + 1

    @property
    def kernel(self) -> Tuple[Optional[int], ...]:
        """The II-cycle steady-state window: slot -> ident (None = NOP)."""
        slots: List[Optional[int]] = [None] * self.ii
        for z, off in self.offsets.items():
            slots[off % self.ii] = z
        return tuple(slots)

    @property
    def schedule(self) -> ScheduleTiming:
        """The kernel window as a :class:`ScheduleTiming`
        (``ScheduleOutcome`` protocol): body tuples in slot order with
        the window's NOP gaps as etas."""
        pairs = sorted(
            (off % self.ii, z) for z, off in self.offsets.items()
        )
        order = tuple(z for _, z in pairs)
        issue_times = tuple(slot for slot, _ in pairs)
        etas = []
        previous = -1
        for slot in issue_times:
            etas.append(slot - previous - 1)
            previous = slot
        return ScheduleTiming(order, tuple(etas), issue_times)

    # ------------------------------------------------------------------
    def stream(self, trip_count: int) -> List[Tuple[int, int, int]]:
        """The flat issue stream for ``trip_count`` iterations:
        ``(cycle, iteration, ident)`` sorted by cycle.  Well defined for
        any trip count — offsets distinct modulo II mean no two
        instances ever share a cycle."""
        if trip_count < 0:
            raise ValueError("trip_count must be non-negative")
        entries = [
            (i * self.ii + off, i, z)
            for i in range(trip_count)
            for z, off in self.offsets.items()
        ]
        entries.sort()
        return entries

    def prologue(self, trip_count: int) -> List[Tuple[int, int, int]]:
        """Stream entries before the first full kernel window (the
        pipeline fill: cycles ``< (stage_count - 1) * II``)."""
        fill = (self.stage_count - 1) * self.ii
        return [e for e in self.stream(trip_count) if e[0] < fill]

    def epilogue(self, trip_count: int) -> List[Tuple[int, int, int]]:
        """Stream entries after the last full kernel window (the
        pipeline drain: cycles ``>= trip_count * II``)."""
        return [
            e for e in self.stream(trip_count)
            if e[0] >= trip_count * self.ii
        ]

    @property
    def kernel_text(self) -> str:
        """Human-readable kernel listing (one line per window slot)."""
        by_ident = self.loop.body.by_ident
        lines = []
        for slot, ident in enumerate(self.kernel):
            if ident is None:
                lines.append(f"    {slot:>3}: nop")
            else:
                stage = self.offsets[ident] // self.ii
                suffix = f"  ; stage {stage}" if stage else ""
                lines.append(f"    {slot:>3}: {by_ident(ident)}{suffix}")
        return "\n".join(lines)

    def __str__(self) -> str:
        status = "optimal" if self.completed else "best-known"
        return (
            f"ModuloScheduleResult(II={self.ii} [{status}], MII={self.mii} "
            f"(res {self.res_mii}, rec {self.rec_mii}), "
            f"stages={self.stage_count}, list II={self.list_ii})"
        )


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------
def schedule_loop(
    loop: Union[LoopBlock, ScheduleRequest],
    machine: Optional[MachineDescription] = None,
    options: SearchOptions = SearchOptions(),
    assignment: Optional[PipelineAssignment] = None,
    telemetry: Optional[Telemetry] = None,
    engine: Optional[str] = None,
    backend: str = "search",
    ilp_options=None,
    placement_budget: int = DEFAULT_PLACEMENT_BUDGET,
) -> ModuloScheduleResult:
    """Find a minimum-II modulo schedule of ``loop`` for ``machine``.

    Accepts either a :class:`~repro.ir.loop.LoopBlock` with the legacy
    keyword arguments or a complete
    :class:`~repro.sched.search.ScheduleRequest` carrying one (the
    unified request API; only ``telemetry`` / ``placement_budget`` may
    be combined with a request).

    The procedure:

    1. compute MII (:func:`min_initiation_interval`);
    2. price two always-feasible incumbents by steady-state fixpoint
       (:func:`steady_state_offsets`): the list-schedule order (whose II
       becomes ``list_ii``) and the ``schedule_block``-optimal body
       order — ``engine``/``backend``/``options`` select and configure
       the underlying block engine exactly as for straight-line code;
    3. for each candidate ``II`` from MII up to the incumbent, run the
       complete modulo placement search (:func:`_find_kernel`) seeded
       with the optimal body order; the first feasible ``II`` wins, and
       every smaller candidate is either feasible or *refuted*.

    ``completed=True`` iff the achieved II equals MII or every smaller
    candidate was refuted within the placement budget — both are
    optimality proofs.  ``ii <= list_ii`` holds by construction.
    """
    start = time.perf_counter()
    if isinstance(loop, ScheduleRequest):
        request = loop
        overridden = [
            name
            for name, value, default in (
                ("machine", machine, None),
                ("options", options, SearchOptions()),
                ("assignment", assignment, None),
                ("engine", engine, None),
                ("backend", backend, "search"),
                ("ilp_options", ilp_options, None),
            )
            if value != default
        ]
        if overridden:
            raise ValueError(
                "pass either a ScheduleRequest or the legacy keyword "
                f"arguments, not both (also given: {', '.join(overridden)})"
            )
        if not request.is_loop:
            raise TypeError(
                "this request's problem is not a LoopBlock; use "
                "schedule_block for straight-line problems"
            )
        machine = request.machine
        options = request.options
        assignment = request.assignment
        engine = request.engine
        backend = request.backend
        ilp_options = request.ilp_options
        loop = request.loop
    if machine is None:
        raise TypeError(
            "machine is required unless a ScheduleRequest is passed"
        )
    if len(loop.body) == 0:
        raise ValueError("cannot modulo-schedule an empty loop body")

    dag = DependenceDAG(loop.body)
    assignment = _pin_assignment(dag, machine, assignment)
    resolver = SigmaResolver(dag, machine, assignment)
    report = min_initiation_interval(loop, machine, assignment)
    mii = report.mii

    # Incumbents: the steady-state pipelined list schedule, and the
    # steady-state of the block-optimal body order (engine reuse).
    list_order = list_schedule(dag)
    list_ii, list_offsets = steady_state_offsets(
        loop, machine, list_order, assignment=assignment, dag=dag
    )
    block_result = schedule_block(
        dag,
        machine,
        options,
        assignment=assignment,
        telemetry=telemetry,
        engine=engine,
        backend=backend,
        ilp_options=ilp_options,
    )
    priority = block_result.best.order
    opt_ii, opt_offsets = steady_state_offsets(
        loop, machine, priority, assignment=assignment, dag=dag
    )
    if opt_ii <= list_ii:
        incumbent_ii, incumbent_offsets = opt_ii, opt_offsets
    else:
        incumbent_ii, incumbent_offsets = list_ii, list_offsets

    edges = _distance_edges(dag, loop.carried, resolver)
    counter = [0]  # placements, shared by every candidate II below
    searched = False
    refuted = 0  # candidates proven infeasible
    exhausted = False
    ii, offsets = incumbent_ii, incumbent_offsets
    for candidate in range(mii, incumbent_ii):
        try:
            found = _find_kernel(
                priority, candidate, resolver, edges,
                placement_budget, counter,
            )
        except _BudgetExhausted:
            exhausted = True
            break
        if found is not None:
            ii, offsets, searched = candidate, found, True
            break
        refuted += 1

    if not modulo_feasible(
        loop, machine, offsets, ii, assignment=assignment, dag=dag
    ):  # pragma: no cover - both sources are feasible by construction
        raise AssertionError(
            f"modulo scheduler produced an infeasible kernel at II={ii}"
        )

    result = ModuloScheduleResult(
        loop=loop,
        ii=ii,
        mii=mii,
        res_mii=report.res_mii,
        rec_mii=report.rec_mii,
        offsets=offsets,
        list_ii=list_ii,
        completed=ii == mii or not exhausted,
        searched=searched,
        placements=counter[0],
        omega_calls=block_result.omega_calls,
        elapsed_seconds=time.perf_counter() - start,
        assignment=dict(assignment) if assignment is not None else None,
    )
    if telemetry is not None:
        telemetry.add_time("time.schedule_loop", result.elapsed_seconds)
        telemetry.count("loop.placements", result.placements)
        telemetry.count("loop.refuted", refuted)
        telemetry.count("loop.budget_exhausted", int(exhausted))
        telemetry.count("loop.proven", int(result.completed))
    return result
