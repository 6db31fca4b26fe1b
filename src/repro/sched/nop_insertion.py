"""NOP insertion — the paper's Ω procedure (section 4.2.2).

Given a machine description and a (partial) schedule, compute ``eta(i)``,
the minimum number of NOPs which must be inserted immediately before the
i-th instruction so that no pipeline conflict (enqueue-time violation) or
dependence (latency violation) remains.

Timing model
------------
Instructions issue one per clock tick, plus their leading NOPs.  With
``eta(k)`` NOPs before the k-th instruction, issue times are::

    t(0) = eta(0)              (0 on an idle machine; carry-in conditions
                                from a preceding block can delay it)
    t(i) = t(i-1) + 1 + eta(i)

The paper's ``tau(j)`` — "the execution time between the start of the
j-th instruction and the i-th instruction" — is then::

    tau(j) = t(i) - t(j) = (i - j) + eta(i) + sum(eta(j+1..i-1))

(The scan of the paper typesets the ``i - j`` term lossily; our form
reduces to the printed ``eta(i) + 1`` at the adjacent case ``j = i-1``
and is validated against the cycle-accurate simulator.)

Constraints on the issue time of instruction ``zeta`` at position ``i``:

* **conflict** (steps [2]-[3]): if ``sigma(zeta)`` is a pipeline ``p``,
  then ``t(i) >= t(j) + enqueue_time(p)`` for the nearest earlier
  instruction ``j`` with ``sigma(j) == p``;
* **dependence** (steps [4]-[6]): for every ``delta`` in ``rho(zeta)``,
  ``t(i) >= t(delta) + latency(sigma(delta))``, where unpipelined
  producers have effective latency 1.

Two implementations are provided and property-tested equal:

* :func:`repro.verify.brute.sequential_etas` — the paper's literal
  formulation, which adds NOP deficits one constraint at a time,
  re-evaluating ``tau`` as ``eta(i)`` grows (an oracle, kept with the
  other brute-force ones);
* the closed form used everywhere else — since each step tops ``eta(i)``
  up to exactly satisfy one constraint and all constraints relax together
  as ``eta(i)`` grows, the result is simply the maximum single-constraint
  deficit.

:class:`IncrementalTimingState` exposes the closed form as an O(preds)
push/pop interface for the branch-and-bound search.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import UNPIPELINED_LATENCY, MachineDescription
from ..record import Record, setslot

#: Optional per-tuple pipeline assignment (for the multi-pipeline
#: extension): maps tuple reference numbers to pipeline identifiers.
PipelineAssignment = Mapping[int, Optional[int]]


class InitialConditions(Record):
    """Carry-in state from preceding blocks (paper footnote 1).

    Cycle 0 is the block's first issue slot.

    Parameters
    ----------
    pipe_free:
        Earliest cycle at which each pipeline accepts a new enqueue
        (pipelines absent are free immediately).  Captures operations
        issued near the end of the previous block that keep their
        pipeline busy across the boundary.
    variable_ready:
        Earliest cycle at which each named variable may be touched
        (loaded *or* stored).  Captures stores still completing in a
        slow memory system when the block begins.
    tuple_ready:
        Earliest issue cycle of single tuples, by reference number: a
        §5.3 window's members whose producers sit in earlier windows.
    """

    __slots__ = ("pipe_free", "variable_ready", "tuple_ready")

    def __init__(self, pipe_free: Mapping[int, int] = None,
                 variable_ready: Mapping[str, int] = None, tuple_ready: Mapping[int, int] = None):
        for label, table in zip(self.__slots__, (pipe_free, variable_ready, tuple_ready)):
            table = dict(table or {})
            if any(v < 0 for v in table.values()):
                raise ValueError(f"{label} cycles must be non-negative")
            setslot(self, label, table)

    @property
    def is_trivial(self) -> bool:
        return not self.pipe_free and not self.variable_ready and not self.tuple_ready

    def release_bounds(self, dag: DependenceDAG) -> Dict[int, int]:
        """Each tuple's carry-in earliest issue cycle, by ``max`` over
        both tables (tuples with neither are absent)."""
        bounds = {i: c for i, c in self.tuple_ready.items() if i in dag.block}
        if self.variable_ready:
            for t in dag.block:
                ready = self.variable_ready.get(t.variable)
                if ready is not None and ready > bounds.get(t.ident, -1):
                    bounds[t.ident] = ready
        return bounds

    def __str__(self) -> str:
        return (
            f"InitialConditions(pipe_free={self.pipe_free}, "
            f"variable_ready={self.variable_ready}, tuple_ready={self.tuple_ready})"
        )


class SigmaResolver:
    """Resolves Definition 3 — the pipeline used by each instruction.

    For deterministic machines this is a pure function of the opcode; the
    multi-pipeline extension passes an explicit per-tuple ``assignment``.
    Resolution is precomputed per tuple so the search's inner loop does
    dictionary lookups only.
    """

    def __init__(
        self,
        dag: DependenceDAG,
        machine: MachineDescription,
        assignment: Optional[PipelineAssignment] = None,
    ):
        self.dag = dag
        self.machine = machine
        self._sigma: Dict[int, Optional[int]] = {}
        self._latency: Dict[int, int] = {}
        self._enqueue: Dict[int, int] = {}
        for t in dag.block:
            if assignment is not None and t.ident in assignment:
                pid = assignment[t.ident]
                if pid is not None and pid not in {
                    p.ident for p in machine.pipelines
                }:
                    raise ValueError(
                        f"assignment maps tuple {t.ident} to unknown pipeline {pid}"
                    )
                if pid is not None:
                    viable = machine.pipelines_for(t.op)
                    if pid not in viable:
                        raise ValueError(
                            f"pipeline {pid} cannot execute {t.op.value} "
                            f"(viable: {sorted(viable)})"
                        )
            else:
                pid = machine.sigma(t.op)
            self._sigma[t.ident] = pid
            if pid is None:
                self._latency[t.ident] = UNPIPELINED_LATENCY
                self._enqueue[t.ident] = 0
            else:
                pipe = machine.pipeline(pid)
                self._latency[t.ident] = pipe.latency
                self._enqueue[t.ident] = pipe.enqueue_time

    def sigma(self, ident: int) -> Optional[int]:
        return self._sigma[ident]

    def latency(self, ident: int) -> int:
        """Result latency of the tuple numbered ``ident``."""
        return self._latency[ident]

    def enqueue_time(self, ident: int) -> int:
        return self._enqueue[ident]


class ScheduleTiming(Record):
    """Complete timing of one schedule: the output of Ω over a full order."""

    __slots__ = ("order", "etas", "issue_times")

    def __init__(self, order: Tuple[int, ...], etas: Tuple[int, ...],
                 issue_times: Tuple[int, ...]):
        setslot(self, "order", order)
        setslot(self, "etas", etas)
        setslot(self, "issue_times", issue_times)

    @property
    def total_nops(self) -> int:
        """mu(Pi) — Definition 5."""
        return sum(self.etas)

    @property
    def issue_span_cycles(self) -> int:
        """Cycles from the first issue to the last issue, inclusive:
        ``len(order) + total_nops``."""
        return len(self.order) + self.total_nops

    def __len__(self) -> int:
        return len(self.order)


def carry_out(
    timing: ScheduleTiming,
    dag: DependenceDAG,
    machine: MachineDescription,
    resolver: Optional[SigmaResolver] = None,
) -> InitialConditions:
    """The initial conditions a scheduled block leaves for its successor.

    The successor's cycle 0 is the slot after this block's last issue.
    A pipeline whose final enqueue happened within ``enqueue_time`` of
    the block's end is still busy for the difference; a variable whose
    final store completes after the block's end is not yet readable.
    """
    if not timing.order:
        return InitialConditions()
    resolver = resolver or SigmaResolver(dag, machine)
    origin = timing.issue_times[-1] + 1
    last_issue: Dict[int, int] = {}
    variable_ready: Dict[str, int] = {}
    for ident, issued in zip(timing.order, timing.issue_times):
        pid = resolver.sigma(ident)
        if pid is not None:
            last_issue[pid] = issued
        t = dag.block.by_ident(ident)
        ready = issued + resolver.latency(ident) - origin
        if t.op.writes_memory and ready > 0:
            variable_ready[t.variable] = max(variable_ready.get(t.variable, 0), ready)
    pipe_free = {pid: free for pid, issued in last_issue.items()
                 if (free := issued + machine.pipeline(pid).enqueue_time - origin) > 0}
    return InitialConditions(pipe_free=pipe_free, variable_ready=variable_ready)


class IncrementalTimingState:
    """Push/pop NOP computation over a growing schedule prefix (Φ).

    The branch-and-bound search extends and retracts partial schedules
    millions of times; this class keeps the per-pipeline last-issue times
    and per-tuple issue times so that each extension costs
    ``O(|rho(zeta)|)``.
    """

    __slots__ = (
        "resolver",
        "dag",
        "_order",
        "_etas",
        "_issue",
        "_avail",
        "_pipe_last",
        "_pipe_saved",
        "_total_nops",
        "_var_bound",
    )

    def __init__(
        self,
        dag: DependenceDAG,
        resolver: SigmaResolver,
        initial: Optional[InitialConditions] = None,
    ):
        self.dag = dag
        self.resolver = resolver
        self._order: List[int] = []
        self._etas: List[int] = []
        self._issue: Dict[int, int] = {}
        self._avail: Dict[int, int] = {}  # result-ready cycle per tuple
        self._pipe_last: Dict[int, int] = {}
        # Stack of (pipe, previous last-issue or None) for undo.
        self._pipe_saved: List[Optional[Tuple[int, Optional[int]]]] = []
        self._total_nops = 0
        # Per-tuple earliest issue cycle from the carry-in conditions.
        self._var_bound: Dict[int, int] = {}
        if initial is not None and not initial.is_trivial:
            # A pipeline busy until cycle c behaves exactly like a
            # phantom enqueue at c - enqueue_time: seed _pipe_last so the
            # ordinary conflict rule enforces the carry-in.
            for pid, free_at in initial.pipe_free.items():
                enqueue = resolver.machine.pipeline(pid).enqueue_time
                self._pipe_last[pid] = free_at - enqueue
            self._var_bound = initial.release_bounds(dag)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    @property
    def order(self) -> Tuple[int, ...]:
        return tuple(self._order)

    @property
    def etas(self) -> Tuple[int, ...]:
        return tuple(self._etas)

    @property
    def total_nops(self) -> int:
        """mu(Φ) — NOPs committed by the current prefix."""
        return self._total_nops

    # ------------------------------------------------------------------
    def peek_eta(self, ident: int, pipe: Optional[int] = None) -> int:
        """The NOPs that scheduling ``ident`` next would require.

        This is the Ω evaluation: one call per candidate considered.
        Assumes legality (all of ``rho(ident)`` already scheduled).
        ``pipe`` overrides sigma for a tuple whose pipeline is left open.
        """
        resolver = self.resolver
        # Issue time with eta == 0: the slot after the previous issue,
        # or cycle 0 at the start of the block.
        base = self._issue[self._order[-1]] + 1 if self._order else 0
        earliest = base
        # Conflict: nearest earlier enqueue into the same pipeline
        # (including the phantom carry-in enqueue, when present).
        pid = resolver.sigma(ident) if pipe is None else pipe
        if pid is not None:
            last = self._pipe_last.get(pid)
            if last is not None:
                bound = last + resolver.machine.pipeline(pid).enqueue_time
                if bound > earliest:
                    earliest = bound
        # Carry-in memory readiness.
        if self._var_bound:
            bound = self._var_bound.get(ident)
            if bound is not None and bound > earliest:
                earliest = bound
        # Dependences: producer issue + producer latency.
        for delta in self.dag.rho(ident):
            bound = self._avail[delta]
            if bound > earliest:
                earliest = bound
        return earliest - base

    def push(self, ident: int, pipe: Optional[int] = None) -> int:
        """Schedule ``ident`` next (on ``pipe``, as for :meth:`peek_eta`);
        returns its eta."""
        eta = self.peek_eta(ident, pipe)
        if self._order:
            issue = self._issue[self._order[-1]] + 1 + eta
        else:
            issue = eta  # carry-in conditions can delay the first issue
        self._order.append(ident)
        self._etas.append(eta)
        self._issue[ident] = issue
        self._total_nops += eta
        if pipe is None:
            pid, latency = self.resolver.sigma(ident), self.resolver.latency(ident)
        else:
            pid, latency = pipe, self.resolver.machine.pipeline(pipe).latency
        self._avail[ident] = issue + latency
        if pid is None:
            self._pipe_saved.append(None)
        else:
            self._pipe_saved.append((pid, self._pipe_last.get(pid)))
            self._pipe_last[pid] = issue
        return eta

    def pop(self) -> int:
        """Undo the most recent :meth:`push`; returns the retracted ident."""
        ident = self._order.pop()
        eta = self._etas.pop()
        self._total_nops -= eta
        del self._issue[ident]
        del self._avail[ident]
        saved = self._pipe_saved.pop()
        if saved is not None:
            pid, previous = saved
            if previous is None:
                del self._pipe_last[pid]
            else:
                self._pipe_last[pid] = previous
        return ident

    def snapshot(self) -> ScheduleTiming:
        """Freeze the current (complete or partial) timing."""
        return ScheduleTiming(
            tuple(self._order),
            tuple(self._etas),
            tuple(self._issue[i] for i in self._order),
        )


# ----------------------------------------------------------------------
# Whole-schedule entry points
# ----------------------------------------------------------------------
def compute_timing(
    dag: DependenceDAG,
    order: Sequence[int],
    machine: MachineDescription,
    assignment: Optional[PipelineAssignment] = None,
    check_legality: bool = True,
    initial: Optional[InitialConditions] = None,
) -> ScheduleTiming:
    """Run Ω over a complete schedule and return its timing.

    Raises ``ValueError`` when ``order`` violates the dependence DAG
    (unless ``check_legality=False``, for callers that already know).
    ``initial`` supplies carry-in conditions from preceding blocks
    (footnote 1); by default the machine starts idle.
    """
    if check_legality and not dag.is_legal_order(order):
        raise ValueError("order is not a legal (dependence-respecting) schedule")
    resolver = SigmaResolver(dag, machine, assignment)
    state = IncrementalTimingState(dag, resolver, initial)
    for ident in order:
        state.push(ident)
    return state.snapshot()


def total_nops(
    dag: DependenceDAG,
    order: Sequence[int],
    machine: MachineDescription,
    assignment: Optional[PipelineAssignment] = None,
) -> int:
    """mu(Pi) for a complete schedule — convenience wrapper."""
    return compute_timing(dag, order, machine, assignment).total_nops
