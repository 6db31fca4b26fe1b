"""Brute-force oracles — ground truth by complete enumeration.

Two exhaustive searches that the schedulers are held to on small
inputs: :func:`brute_force_optimum` enumerates every dependence-legal
order of a block (the definitive minimum NOP count), and
:func:`brute_force_min_ii` enumerates every kernel slot assignment of a
tiny loop body (the definitive minimum initiation interval).  Both are
exponential and run only in the verify oracle and the tests.

Like :mod:`repro.verify.certificate`, whose dependence, σ and loop-bound
rules they reuse, they import nothing from ``repro.sched``.

:func:`sequential_etas` is the paper's Ω (section 4.2.2) step by step:
the oracle for the closed form that every scheduler times with.  It
runs on the scheduler's own σ resolver, imported when it is called.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..machine.machine import MachineDescription
from .certificate import _NO_PIPE_DELAY, derive_dependences, resolve_sigma
from .steady_state import _loop_dependences, loop_ii_lower_bound

if TYPE_CHECKING:
    from ..ir.dag import DependenceDAG
    from ..sched.nop_insertion import InitialConditions


# ----------------------------------------------------------------------
# Independent brute-force optimum
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BruteForceResult:
    """Ground-truth optimum from enumerating legal orders independently."""

    best_nops: int
    best_order: Tuple[int, ...]
    best_etas: Tuple[int, ...]
    orders_seen: int
    exhausted: bool  # False when ``limit`` stopped the enumeration


def brute_force_optimum(
    block: BasicBlock,
    machine: MachineDescription,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
    limit: Optional[int] = None,
) -> BruteForceResult:
    """Minimum NOP count over every dependence-legal order of ``block``.

    Shares no code with the schedulers: dependences, σ and timing all
    come from :mod:`repro.verify.certificate`.  ``limit`` caps the
    number of complete orders examined (``exhausted=False`` when hit);
    intended for small blocks, where the result is the definitive
    optimum the searches must match.
    """
    n = len(block)
    if n == 0:
        return BruteForceResult(0, (), (), 1, True)
    sigma, sigma_violations = resolve_sigma(block, machine, assignment)
    if sigma_violations:
        raise ValueError(
            "cannot enumerate schedules: " + "; ".join(map(str, sigma_violations))
        )
    preds = derive_dependences(block)
    succs: Dict[int, List[int]] = {i: [] for i in block.idents}
    for ident, ps in preds.items():
        for p in ps:
            succs[p].append(ident)
    enqueue = {p.ident: p.enqueue_time for p in machine.pipelines}
    latency = {
        i: (_NO_PIPE_DELAY if sigma[i] is None else machine.pipeline(sigma[i]).latency)
        for i in block.idents
    }

    indegree = {i: len(preds[i]) for i in block.idents}
    ready = [i for i in block.idents if indegree[i] == 0]
    order: List[int] = []
    etas: List[int] = []
    issue: Dict[int, int] = {}
    last_on_pipe: Dict[int, int] = {}
    best: Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = None
    seen = 0
    exhausted = True

    def rec(nops: int, clock: int) -> bool:
        nonlocal best, seen, exhausted
        if len(order) == n:
            seen += 1
            if best is None or nops < best[0]:
                best = (nops, tuple(order), tuple(etas))
            if limit is not None and seen >= limit:
                exhausted = False
                return False
            return True
        for ident in list(ready):
            earliest = clock
            pid = sigma[ident]
            if pid is not None and pid in last_on_pipe:
                earliest = max(earliest, last_on_pipe[pid] + enqueue[pid])
            for p in preds[ident]:
                earliest = max(earliest, issue[p] + latency[p])
            eta = earliest - clock
            order.append(ident)
            etas.append(eta)
            issue[ident] = earliest
            saved_pipe = last_on_pipe.get(pid) if pid is not None else None
            if pid is not None:
                last_on_pipe[pid] = earliest
            ready.remove(ident)
            opened = []
            for s in succs[ident]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    ready.append(s)
                    opened.append(s)
            keep_going = rec(nops + eta, earliest + 1)
            for s in opened:
                ready.remove(s)
            for s in succs[ident]:
                indegree[s] += 1
            ready.append(ident)
            if pid is not None:
                if saved_pipe is None:
                    del last_on_pipe[pid]
                else:
                    last_on_pipe[pid] = saved_pipe
            del issue[ident]
            etas.pop()
            order.pop()
            if not keep_going:
                return False
        return True

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n * 10 + 1000))
    try:
        rec(0, 0)
    finally:
        sys.setrecursionlimit(old_limit)
    assert best is not None
    return BruteForceResult(best[0], best[1], best[2], seen, exhausted)


# ----------------------------------------------------------------------
# Independent brute-force minimum II (tiny loops)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BruteForceIIResult:
    """Ground-truth minimum II from complete slot/stage enumeration."""

    min_ii: int
    offsets: Mapping[str, int]  # a witness schedule at ``min_ii``
    candidates_tried: int  # II values examined
    assignments_tried: int  # complete slot assignments tested


def brute_force_min_ii(
    body: BasicBlock,
    machine: MachineDescription,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
    max_ii: Optional[int] = None,
) -> BruteForceIIResult:
    """The definitive minimum initiation interval of a tiny loop body.

    For each candidate ``II`` from the certificate's
    :func:`~repro.verify.certificate.loop_ii_lower_bound` upward,
    enumerates *every* assignment of kernel slots (distinct modulo
    ``II``, pipeline windows disjoint), then decides stage feasibility
    exactly: a slot assignment extends to offsets iff the difference
    constraints ``stage(w) >= stage(z) + ceil((lat(z) - d*II + slot(z) -
    slot(w)) / II)`` admit no positive cycle (Bellman–Ford).  The first
    feasible ``II`` is therefore the true optimum — the oracle's ground
    truth for ``ModuloScheduleResult.completed`` claims.  Exponential in
    the body size; intended for bodies of at most ~8 tuples.
    """
    n = len(body)
    if n == 0:
        raise ValueError("cannot modulo-schedule an empty loop body")
    sigma, sigma_violations = resolve_sigma(body, machine, assignment)
    if sigma_violations:
        raise ValueError(
            "cannot enumerate kernels: "
            + "; ".join(map(str, sigma_violations))
        )
    idents = list(body.idents)
    latency = {
        z: (_NO_PIPE_DELAY if sigma[z] is None
            else machine.pipeline(sigma[z]).latency)
        for z in idents
    }
    edges = _loop_dependences(body)
    lower = loop_ii_lower_bound(body, machine, assignment)
    if max_ii is None:
        max_ii = lower + sum(latency.values()) + n
    candidates = 0
    attempts = [0]

    for ii in range(lower, max_ii + 1):
        candidates += 1
        witness = _enumerate_kernel(
            idents, sigma, latency, edges, machine, ii, attempts
        )
        if witness is not None:
            return BruteForceIIResult(
                min_ii=ii,
                offsets={str(z): off for z, off in witness.items()},
                candidates_tried=candidates,
                assignments_tried=attempts[0],
            )
    raise AssertionError(  # pragma: no cover - max_ii always admits a kernel
        f"no feasible II up to {max_ii} for {body.name}"
    )


def _enumerate_kernel(
    idents: Sequence[int],
    sigma: Mapping[int, Optional[int]],
    latency: Mapping[int, int],
    edges: Sequence[Tuple[int, int, int]],
    machine: MachineDescription,
    ii: int,
    attempts: List[int],
) -> Optional[Dict[int, int]]:
    """Complete search for offsets feasible at ``ii`` (None if refuted).

    Two cuts keep it exhaustive.  The first tuple is pinned to slot 0:
    adding one constant to every offset of a feasible kernel rotates
    every slot by the same amount, so the slots stay distinct modulo
    ``ii``, the pipeline windows stay disjoint and every dependence
    difference is unchanged.  And the tuples are placed in order, each
    partial assignment checked on the placed tuples' stages under the
    longest offset gaps that dependence paths through unplaced tuples
    force between them: a completion only adds constraints, so a
    positive cycle there refutes them all.  Every other choice is still
    enumerated.
    """
    enqueue = {
        z: (0 if sigma[z] is None
            else machine.pipeline(sigma[z]).enqueue_time)
        for z in idents
    }
    slots: Dict[int, int] = {}
    used: set = set()
    busy: Dict[int, set] = {}

    def gaps(placed: Sequence[int]) -> List[Tuple[int, int, int]]:
        """``(a, b, w)``: ``offset(b) >= offset(a) + w`` along the longest
        dependence path from ``a`` to ``b`` whose inner tuples are all
        unplaced (Floyd–Warshall; ``ii`` is at least the recurrence
        bound, so no path gains around a cycle)."""
        gap: Dict[Tuple[int, int], int] = {}

        def widen(a: int, b: int, w: int) -> None:
            gap[a, b] = max(gap.get((a, b), w), w)

        for p, c, d in edges:
            widen(p, c, latency[p] - d * ii)
        for m in idents:
            if m not in placed:
                into = [(a, w) for (a, b), w in gap.items() if b == m]
                out = [(c, w) for (b, c), w in gap.items() if b == m]
                for a, w in into:
                    for c, v in out:
                        widen(a, c, w + v)
        return [(a, b, w) for (a, b), w in gap.items() if a in placed and b in placed]

    def stages_feasible(k: int) -> Optional[Dict[int, int]]:
        """Offsets of the first ``k`` placed tuples, None if the stage
        constraints hold a positive cycle (longest-path Bellman–Ford)."""
        if k == len(idents):
            attempts[0] += 1
        placed = idents[:k]
        stage = {z: 0 for z in placed}
        for _ in range(k + 1):
            changed = False
            for p, c, w in closure[k]:
                # offset = stage*ii + slot; the gap needs
                # stage(c) >= stage(p) + ceil((w + s(p) - s(c)) / ii)
                need = -(-(w + slots[p] - slots[c]) // ii)
                if stage[p] + need > stage[c]:
                    stage[c] = stage[p] + need
                    changed = True
            if not changed:
                lift = -min(stage.values())
                return {z: (stage[z] + lift) * ii + slots[z] for z in placed}
        return None  # positive cycle: no stage assignment exists

    def place(k: int) -> Optional[Dict[int, int]]:
        z = idents[k]
        pid = sigma[z]
        pipe_busy = busy.setdefault(pid, set()) if pid is not None else None
        for s in range(ii) if k else (0,):
            if s in used:
                continue
            if pid is not None:
                window = {(s + j) % ii for j in range(enqueue[z])}
                if len(window) < enqueue[z] or window & pipe_busy:
                    continue
            slots[z] = s
            used.add(s)
            if pid is not None:
                pipe_busy.update(window)
            found = stages_feasible(k + 1)
            if found is not None and k + 1 < len(idents):
                found = place(k + 1)
            if found is not None:
                return found
            used.discard(s)
            del slots[z]
            if pid is not None:
                pipe_busy.difference_update(window)
        return None

    closure = [gaps(idents[:k]) for k in range(len(idents) + 1)]
    return place(0)


# ----------------------------------------------------------------------
# The paper's literal NOP insertion
# ----------------------------------------------------------------------
def sequential_etas(
    dag: DependenceDAG,
    order: Sequence[int],
    machine: MachineDescription,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
    initial: Optional[InitialConditions] = None,
) -> Tuple[int, ...]:
    """The paper's NOP-insertion algorithm, implemented step by step.

    Kept deliberately close to the prose of section 4.2.2 (steps [1]-[6]),
    including the backward conflict scan and the incremental deficit
    accumulation.  Used as the oracle against which the closed form is
    property-tested; O(n^2) per schedule, so not used by the search.

    Carry-in conditions (footnote 1) extend the literal algorithm with a
    step [0]: before the in-block checks, top eta up until the carry-in
    pipeline-busy, variable-ready and tuple-ready constraints are met —
    for the first instruction too, which the idle-start algorithm exempts
    in step [1].
    """
    # The scheduler's own σ resolution and carry-in record: this oracle
    # checks the closed form's arithmetic, not its inputs.
    from ..sched.nop_insertion import InitialConditions, SigmaResolver

    resolver = SigmaResolver(dag, machine, assignment)
    init = initial if initial is not None else InitialConditions()
    n = len(order)
    etas: List[int] = [0] * n
    position = {ident: pos for pos, ident in enumerate(order)}

    for i, zeta in enumerate(order):
        eta = 0  # step [1]

        def issue_i() -> int:
            """Issue cycle of instruction i given etas so far + current eta."""
            return sum(etas[:i]) + i + eta

        # Step [0]: carry-in conditions (no-op when the machine starts idle).
        pid = resolver.sigma(zeta)
        if pid is not None and pid in init.pipe_free:
            x = init.pipe_free[pid] - issue_i()
            if x > 0:
                eta += x
        var = dag.block.by_ident(zeta).variable
        if var is not None and var in init.variable_ready:
            x = init.variable_ready[var] - issue_i()
            if x > 0:
                eta += x
        if zeta in init.tuple_ready:
            x = init.tuple_ready[zeta] - issue_i()
            if x > 0:
                eta += x

        if i == 0:
            etas[0] = eta
            continue

        def tau(j: int) -> int:
            """Issue-time distance between instructions j and i (current eta)."""
            return (i - j) + eta + sum(etas[j + 1 : i])

        if pid is not None:  # step [2] skips to [4] when sigma is empty
            enqueue = resolver.enqueue_time(zeta)
            j = i - 1
            while True:  # step [3]
                if tau(j) > enqueue:
                    break
                if resolver.sigma(order[j]) == pid:
                    if tau(j) < enqueue:
                        # The paper assigns eta = enqueue - tau(j); since
                        # its eta is still 0 here that equals adding the
                        # deficit.  Adding keeps the step correct when
                        # step [0] already raised eta for carry-in.
                        eta += enqueue - tau(j)
                    break
                if j == 0:
                    break
                j -= 1

        rho = dag.rho(zeta)
        if rho:  # steps [4]-[6]
            for delta in sorted(rho, key=position.__getitem__):
                x = resolver.latency(delta) - tau(position[delta])
                if x > 0:
                    eta += x

        etas[i] = eta

    return tuple(etas)
