"""Brute-force oracles — ground truth by complete enumeration.

Two exhaustive searches that the schedulers are held to on small
inputs: :func:`brute_force_optimum` enumerates every dependence-legal
order of a block (the definitive minimum NOP count), and
:func:`brute_force_min_ii` enumerates every kernel slot assignment of a
tiny loop body (the definitive minimum initiation interval).  Both are
exponential and run only in the verify oracle and the tests.

Like :mod:`repro.verify.certificate`, whose dependence, σ and loop-bound
rules they reuse, they import nothing from ``repro.sched``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..machine.machine import MachineDescription
from .certificate import (
    _NO_PIPE_DELAY,
    _loop_dependences,
    derive_dependences,
    loop_ii_lower_bound,
    resolve_sigma,
)


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
    """Complete search for offsets feasible at ``ii`` (None if refuted)."""
    enqueue = {
        z: (0 if sigma[z] is None
            else machine.pipeline(sigma[z]).enqueue_time)
        for z in idents
    }
    slots: Dict[int, int] = {}
    used: set = set()
    busy: Dict[int, set] = {}

    def stages_feasible() -> Optional[Dict[int, int]]:
        """Difference constraints on stages: longest-path Bellman–Ford."""
        attempts[0] += 1
        stage = {z: 0 for z in idents}
        for _ in range(len(idents) + 1):
            changed = False
            for p, c, d in edges:
                # offset = stage*ii + slot; the dependence needs
                # stage(c) >= stage(p) + ceil((lat - d*ii + s(p) - s(c)) / ii)
                need = -(-(latency[p] - d * ii + slots[p] - slots[c]) // ii)
                if stage[p] + need > stage[c]:
                    stage[c] = stage[p] + need
                    changed = True
            if not changed:
                lift = -min(stage.values())
                return {z: (stage[z] + lift) * ii + slots[z] for z in idents}
        return None  # positive cycle: no stage assignment exists

    def place(k: int) -> Optional[Dict[int, int]]:
        if k == len(idents):
            return stages_feasible()
        z = idents[k]
        pid = sigma[z]
        pipe_busy = busy.setdefault(pid, set()) if pid is not None else None
        for s in range(ii):
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
            found = place(k + 1)
            if found is not None:
                return found
            used.discard(s)
            del slots[z]
            if pid is not None:
                pipe_busy.difference_update(window)
        return None

    return place(0)
