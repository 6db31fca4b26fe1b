"""Loop certificates: steady-state modulo schedules, checked from scratch.

The loop half of :mod:`repro.verify.certificate`, in its own module so a
straight-line first call compiles none of it.  Like the block
certificate it imports nothing from ``repro.sched``: the loop's
dependences (with iteration distances), its pipeline assignment and its
lower bound on the initiation interval are re-derived here from the raw
body and the machine tables, and a claimed kernel is finally replayed,
several iterations overlapped, through
:func:`repro.verify.certificate.check_schedule`.
:func:`repro.driver.compile_loop` reaches :func:`check_steady_state`
through ``repro.verify.certificate``, which loads this module on first
use.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..machine.machine import MachineDescription
from ..record import Record, setslot
from . import certificate
from .certificate import _NO_PIPE_DELAY, Violation, derive_dependences, resolve_sigma


def _shifted_copy(block: BasicBlock, stride: int, copies: int) -> BasicBlock:
    """Unroll ``block`` ``copies`` times, renumbering copy ``j`` by
    ``j * stride`` (idents and result references alike).

    A local re-statement of ``repro.ir.loop.concatenate_iterations`` —
    kept separate so a renumbering bug there cannot also hide here.
    """
    from ..ir.tuples import IRTuple, RefOperand

    def shift(operand, offset):
        return RefOperand(operand.ref + offset) if isinstance(operand, RefOperand) else operand

    tuples = [IRTuple(t.ident + j * stride, t.op, shift(t.alpha, j * stride),
                      shift(t.beta, j * stride)) for j in range(copies) for t in block]
    return BasicBlock(tuples, name=f"{block.name}@x{copies}")


def _loop_dependences(
    body: BasicBlock,
) -> List[Tuple[int, int, int]]:
    """``(producer, consumer, distance)`` edges of the loop, re-derived.

    Intra-iteration edges (distance 0) come from
    :func:`derive_dependences` on the body itself; carried edges
    (distance 1) are the edges of a two-copy unroll that cross the copy
    boundary, mapped back to body idents.  In this language a dependence
    links a value use (or variable access) to its *most recent*
    producer, so no carried edge ever skips a whole iteration: distance
    1 captures them all, which the K-copy replay check re-confirms.
    """
    stride = max(body.idents)
    edges: List[Tuple[int, int, int]] = []
    for consumer, ps in derive_dependences(body).items():
        for producer in ps:
            edges.append((producer, consumer, 0))
    pair = _shifted_copy(body, stride, 2)
    for consumer, ps in derive_dependences(pair).items():
        if consumer <= stride:
            continue
        for producer in ps:
            if producer <= stride:
                edges.append((producer, consumer - stride, 1))
    return edges


def loop_ii_lower_bound(
    body: BasicBlock,
    machine: MachineDescription,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
) -> int:
    """An independent lower bound on any initiation interval of the loop.

    The larger of: the body size (single issue), per-pipeline enqueue
    pressure (``users * enqueue_time`` cyclic windows must tile into the
    II), and the recurrence bound — for every dependence cycle,
    ``II * sum(distances) >= sum(latencies)``, found here by Bellman–
    Ford positive-cycle detection at each candidate rather than by the
    scheduler's Floyd–Warshall search.
    """
    sigma, sigma_violations = resolve_sigma(body, machine, assignment)
    if sigma_violations:
        raise ValueError(
            "cannot bound the loop II: "
            + "; ".join(map(str, sigma_violations))
        )
    n = len(body)
    if n == 0:
        return 0
    latency = {
        i: (_NO_PIPE_DELAY if sigma[i] is None
            else machine.pipeline(sigma[i]).latency)
        for i in body.idents
    }
    bound = n
    users: Dict[int, int] = {}
    for i in body.idents:
        if sigma[i] is not None:
            users[sigma[i]] = users.get(sigma[i], 0) + 1
    for pid, k in users.items():
        bound = max(bound, k * machine.pipeline(pid).enqueue_time)
    edges = _loop_dependences(body)
    while _recurrence_violated(body.idents, edges, latency, bound):
        bound += 1
    return bound


def _recurrence_violated(
    idents: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
    latency: Mapping[int, int],
    ii: int,
) -> bool:
    """Bellman–Ford: does some cycle have positive ``lat - II*dist``?"""
    weight = [
        (p, c, latency[p] - ii * d) for p, c, d in edges
    ]
    dist = {i: 0 for i in idents}
    for _ in range(len(idents)):
        changed = False
        for p, c, w in weight:
            if dist[p] + w > dist[c]:
                dist[c] = dist[p] + w
                changed = True
        if not changed:
            return False
    return any(dist[p] + w > dist[c] for p, c, w in weight)


class LoopCertificateReport(Record):
    """Outcome of independently re-checking one claimed modulo schedule."""

    __slots__ = ("ok", "violations", "ii", "offsets", "ii_lower_bound", "replayed_iterations")

    def __init__(self, ok: bool, violations: Tuple[Violation, ...], ii: int,
                 offsets: Mapping[str, int], ii_lower_bound: int, replayed_iterations: int):
        setslot(self, "ok", ok)
        setslot(self, "violations", violations)
        setslot(self, "ii", ii)
        setslot(self, "offsets", offsets)  # keyed by str(ident) for stable hashing
        #: This module's own lower bound on any II of the loop.
        setslot(self, "ii_lower_bound", ii_lower_bound)
        #: Iterations materialized and replayed through ``check_schedule``.
        setslot(self, "replayed_iterations", replayed_iterations)

    def summary(self) -> str:
        if self.ok:
            return (
                f"certified: II={self.ii} >= independent bound "
                f"{self.ii_lower_bound}; {self.replayed_iterations} "
                "overlapped iterations replayed from the tables"
            )
        lines = [f"REJECTED ({len(self.violations)} violation(s)):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def check_steady_state(
    body: BasicBlock,
    machine: MachineDescription,
    offsets: Mapping[int, int],
    ii: int,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
    iterations: int = 0,
) -> LoopCertificateReport:
    """Certify a claimed modulo schedule ``(offsets, ii)`` of a loop body.

    Re-derives everything from the raw tuples and machine tables —
    nothing from ``repro.sched`` and nothing from the loop's own derived
    metadata is trusted:

    1. **structure** — ``ii >= 1``; exactly one non-negative offset per
       body tuple; offsets pairwise distinct modulo ``ii`` (the machine
       issues one instruction per tick, so a steady-state window of
       ``ii`` cycles holds each body tuple exactly once);
    2. **bound** — ``ii`` is no smaller than this module's own
       :func:`loop_ii_lower_bound`;
    3. **dependence spacing** — for every re-derived dependence with
       iteration distance ``d``: ``offset(consumer) + d*ii >=
       offset(producer) + latency(producer)``;
    4. **enqueue windows** — per pipeline, the users' cyclic windows
       ``[offset mod ii, offset mod ii + enqueue)`` are pairwise
       disjoint modulo ``ii``;
    5. **replay** — the issue stream of ``iterations`` overlapped
       iterations (at least ``stages + 1``, minimum 3) is materialized
       against an unrolled copy of the body and replayed positionally
       through :func:`check_schedule`, which re-applies the straight-
       line rules of sections 2.1/4.2.2 to the exact cycles the modulo
       schedule claims.
    """
    violations: List[Violation] = []
    idents = body.idents
    offsets = dict(offsets)

    def rejected(lower: int) -> LoopCertificateReport:
        return LoopCertificateReport(False, tuple(violations), ii,
                                     {str(k): v for k, v in offsets.items()}, lower, 0)

    # 1. Structure.
    if ii < 1:
        violations.append(Violation("structure", -1, -1, f"initiation interval {ii} < 1"))
    if sorted(offsets) != sorted(idents):
        violations.append(Violation("structure", -1, -1, f"offsets cover {sorted(offsets)} "
                                    f"but the body is {sorted(idents)}"))
    else:
        violations += (Violation("structure", -1, z, f"tuple {z} has negative offset {offsets[z]}")
                       for z in idents if offsets[z] < 0)
    if violations:
        return rejected(-1)

    slot = {z: offsets[z] % ii for z in idents}
    by_slot: Dict[int, List[int]] = {}
    for z in idents:
        by_slot.setdefault(slot[z], []).append(z)
    for s, zs in sorted(by_slot.items()):
        if len(zs) > 1:
            violations.append(Violation(
                "single-issue", -1, zs[1], f"tuples {zs} all occupy kernel slot {s} "
                f"(offsets {[offsets[z] for z in zs]} modulo {ii})"))

    # 2. The independent lower bound.
    try:
        lower = loop_ii_lower_bound(body, machine, assignment)
    except ValueError as exc:
        violations.append(Violation("assignment", -1, -1, str(exc)))
        return rejected(-1)
    if ii < lower:
        violations.append(Violation(
            "bound", -1, -1, f"claimed II {ii} is below the independent lower bound {lower}"))

    # 3. Dependence spacing with iteration distances.
    sigma, _ = resolve_sigma(body, machine, assignment)
    latency = {
        z: (_NO_PIPE_DELAY if sigma[z] is None
            else machine.pipeline(sigma[z]).latency)
        for z in idents
    }
    for producer, consumer, d in _loop_dependences(body):
        have = offsets[consumer] + d * ii
        need = offsets[producer] + latency[producer]
        if have < need:
            violations.append(Violation(
                "dependence", -1, consumer, f"tuple {consumer} at offset {offsets[consumer]} "
                f"(+{d}*II) starts {need - have} cycle(s) before its "
                f"distance-{d} predecessor {producer} completes"))

    # 4. Cyclic enqueue windows modulo II.
    by_pipe: Dict[int, List[int]] = {}
    for z in idents:
        if sigma[z] is not None:
            by_pipe.setdefault(sigma[z], []).append(z)
    for pid, zs in sorted(by_pipe.items()):
        enqueue = machine.pipeline(pid).enqueue_time
        ordered = sorted(zs, key=lambda z: slot[z])
        for a, b in zip(ordered, ordered[1:] + ordered[:1]):
            gap = (slot[b] - slot[a]) % ii
            if len(ordered) == 1:
                gap = ii
            if gap < enqueue:
                violations.append(Violation(
                    "enqueue", -1, b, f"pipeline {pid} windows of tuples {a} and {b} "
                    f"overlap: slots {slot[a]} and {slot[b]} are {gap} apart modulo {ii} "
                    f"but enqueue takes {enqueue}"))

    if violations:
        return rejected(lower)

    # 5. Replay: materialize the flat stream of K overlapped iterations
    # and push it through the straight-line certificate at the claimed
    # cycles.  This is the end-to-end cross-check: the unrolled block's
    # *own* dependences (including any cross-iteration effect the
    # distance model might have missed) are re-derived from its tuples.
    stages = max(offsets[z] // ii for z in idents) + 1
    k = max(iterations, stages + 1, 3)
    stride = max(idents)
    unrolled = _shifted_copy(body, stride, k)
    entries = sorted((i * ii + offsets[z], z + i * stride) for i in range(k) for z in idents)
    order = [ident for _, ident in entries]
    etas: List[int] = []
    previous = -1
    for cycle, _ in entries:
        etas.append(cycle - previous - 1)
        previous = cycle
    # Looked up in its module at call time, where a traced run wraps it.
    replay = certificate.check_schedule(
        unrolled, machine, order, etas,
        assignment=_replicate_assignment(assignment, idents, stride, k),
        require_minimal=False,
    )
    violations += (Violation("replay", v.position, v.ident, v.detail) for v in replay.violations)
    return LoopCertificateReport(not violations, tuple(violations), ii,
                                 {str(z): offsets[z] for z in idents}, lower, k)


def _replicate_assignment(
    assignment: Optional[Mapping[int, Optional[int]]],
    idents: Sequence[int],
    stride: int,
    copies: int,
) -> Optional[Mapping[int, Optional[int]]]:
    if assignment is None:
        return None
    return {z + j * stride: assignment[z]
            for j in range(copies) for z in idents if z in assignment}
