"""Schedule certificates — an independent re-implementation of the rules.

Given only the raw tuple block and the machine description tables, this
module decides whether a claimed schedule (an instruction order plus the
NOP count before each instruction) is *legal* and whether its NOP counts
are exactly the minimum the machine model requires.  It is deliberately
a second implementation of sections 2.1 and 4.2.2, not a wrapper:

* the dependence relation is re-derived here from the tuples (value
  references plus the Load/Store variable rules) rather than taken from
  ``repro.ir.dag``;
* pipeline assignment (σ) is re-resolved here from the machine's
  operation-to-pipeline table rather than through ``SigmaResolver``;
* issue times, conflict delays and dependence delays are recomputed
  positionally rather than through ``IncrementalTimingState``.

Nothing in ``repro.sched`` is imported.  A bug shared by the Ω
implementation and every scheduler built on it therefore cannot also
hide here, which is what makes :class:`CertificateReport` evidence
rather than agreement.

Checked properties, in order:

1. **permutation** — the order covers every tuple exactly once, with one
   η per position, none negative;
2. **assignment** — every instruction has a well-defined pipeline: its
   claimed pipeline (if any) must be able to execute it, and an
   operation with several viable pipelines must come with an explicit
   choice;
3. **dependence** — no instruction issues before a tuple it depends on;
4. **under-padded** — a claimed η smaller than the machine model's
   minimum delay (a schedule the hardware would corrupt);
5. **over-padded** — a claimed η larger than that minimum (legal to
   execute, but its NOP count is not an Ω value; rejected by default
   because every scheduler in this repository claims minimal streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.ops import Opcode
from ..machine.machine import MachineDescription

#: Result-availability delay of an operation that uses no pipeline
#: (restated from the paper's step [2], not imported from the scheduler).
_NO_PIPE_DELAY = 1


# ----------------------------------------------------------------------
# Independent dependence derivation
# ----------------------------------------------------------------------
def derive_dependences(block: BasicBlock) -> Dict[int, FrozenSet[int]]:
    """Immediate predecessors of every tuple, derived from the raw block.

    The rules of section 3.1, restated: a tuple depends on every tuple
    whose *result* it references; a ``Load`` depends on the most recent
    ``Store`` to its variable; a ``Store`` depends on the most recent
    ``Store`` to its variable and on every ``Load`` of it since.
    """
    preds: Dict[int, set] = {t.ident: set() for t in block}
    latest_store: Dict[str, int] = {}
    readers: Dict[str, List[int]] = {}
    for t in block:
        mine = preds[t.ident]
        mine.update(r for r in t.value_refs if r != t.ident)
        var = t.variable
        if var is None:
            continue
        if t.op is Opcode.LOAD:
            if var in latest_store:
                mine.add(latest_store[var])
            readers.setdefault(var, []).append(t.ident)
        elif t.op is Opcode.STORE:
            if var in latest_store:
                mine.add(latest_store[var])
            mine.update(i for i in readers.get(var, ()) if i != t.ident)
            latest_store[var] = t.ident
            readers[var] = []
    return {ident: frozenset(s) for ident, s in preds.items()}


# ----------------------------------------------------------------------
# Independent sigma resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """One reason a claimed schedule fails certification."""

    kind: str  # permutation | assignment | dependence | under-padded | over-padded
    position: int  # index into the order; -1 for schedule-level failures
    ident: int  # tuple reference number; -1 for schedule-level failures
    detail: str

    def __str__(self) -> str:
        where = f" at position {self.position}" if self.position >= 0 else ""
        return f"[{self.kind}]{where}: {self.detail}"


def resolve_sigma(
    block: BasicBlock,
    machine: MachineDescription,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
) -> Tuple[Dict[int, Optional[int]], List[Violation]]:
    """Re-derive each tuple's pipeline from the machine tables.

    Returns the σ mapping plus any assignment violations.  Tuples whose
    σ could not be determined are mapped to ``None`` (and flagged), so
    the timing pass can still run and report further problems.
    """
    sigma: Dict[int, Optional[int]] = {}
    violations: List[Violation] = []
    known = {p.ident for p in machine.pipelines}
    for position, t in enumerate(block):
        viable = machine.pipelines_for(t.op)
        if assignment is not None and t.ident in assignment:
            pid = assignment[t.ident]
            if pid is None:
                if viable:
                    violations.append(
                        Violation(
                            "assignment", position, t.ident,
                            f"tuple {t.ident} ({t.op.value}) assigned no "
                            f"pipeline but requires one of {sorted(viable)}",
                        )
                    )
                sigma[t.ident] = None
            elif pid not in known:
                violations.append(
                    Violation(
                        "assignment", position, t.ident,
                        f"tuple {t.ident} assigned unknown pipeline {pid}",
                    )
                )
                sigma[t.ident] = None
            elif pid not in viable:
                violations.append(
                    Violation(
                        "assignment", position, t.ident,
                        f"pipeline {pid} cannot execute {t.op.value} "
                        f"(viable: {sorted(viable) or '{}'})",
                    )
                )
                sigma[t.ident] = None
            else:
                sigma[t.ident] = pid
        elif not viable:
            sigma[t.ident] = None
        elif len(viable) == 1:
            sigma[t.ident] = next(iter(viable))
        else:
            violations.append(
                Violation(
                    "assignment", position, t.ident,
                    f"tuple {t.ident} ({t.op.value}) may run on pipelines "
                    f"{sorted(viable)}; an explicit assignment is required",
                )
            )
            sigma[t.ident] = None
    return sigma, violations


# ----------------------------------------------------------------------
# The certificate check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertificateReport:
    """Outcome of independently re-checking one claimed schedule."""

    ok: bool
    violations: Tuple[Violation, ...]
    order: Tuple[int, ...]
    claimed_etas: Tuple[int, ...]
    #: η values this module recomputed (empty on structural failure).
    required_etas: Tuple[int, ...]
    claimed_nops: int
    required_nops: int

    def summary(self) -> str:
        if self.ok:
            return (
                f"certified: {len(self.order)} instructions, "
                f"{self.required_nops} NOPs recomputed independently"
            )
        lines = [f"REJECTED ({len(self.violations)} violation(s)):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def check_schedule(
    block: BasicBlock,
    machine: MachineDescription,
    order: Sequence[int],
    etas: Sequence[int],
    assignment: Optional[Mapping[int, Optional[int]]] = None,
    pipe_free: Optional[Mapping[int, int]] = None,
    variable_ready: Optional[Mapping[str, int]] = None,
    require_minimal: bool = True,
) -> CertificateReport:
    """Certify a claimed ``(order, etas)`` schedule of ``block``.

    ``pipe_free`` / ``variable_ready`` replicate the carry-in conditions
    of paper footnote 1 (earliest cycle each pipeline accepts work /
    each variable may be touched); both default to an idle machine.
    ``require_minimal=False`` accepts over-padded but executable
    schedules (streams with more NOPs than the model requires).
    """
    order = tuple(order)
    etas = tuple(etas)
    violations: List[Violation] = []

    # 1. Structure: a permutation of the block with one eta each.
    if sorted(order) != sorted(block.idents):
        violations.append(
            Violation(
                "permutation", -1, -1,
                f"order {order} is not a permutation of tuples "
                f"{block.idents}",
            )
        )
    if len(etas) != len(order):
        violations.append(
            Violation(
                "permutation", -1, -1,
                f"{len(order)} instructions but {len(etas)} eta values",
            )
        )
    for position, eta in enumerate(etas):
        if eta < 0:
            violations.append(
                Violation(
                    "permutation", position,
                    order[position] if position < len(order) else -1,
                    f"negative NOP count {eta}",
                )
            )
    if violations:
        return CertificateReport(
            False, tuple(violations), order, etas, (), sum(etas), -1
        )

    # 2. Pipeline assignment from the machine tables.
    sigma, sigma_violations = resolve_sigma(block, machine, assignment)
    violations += sigma_violations

    preds = derive_dependences(block)
    position_of = {ident: k for k, ident in enumerate(order)}

    # 3. Dependence order.
    for position, ident in enumerate(order):
        for p in preds[ident]:
            if position_of[p] > position:
                violations.append(
                    Violation(
                        "dependence", position, ident,
                        f"tuple {ident} issues before its predecessor {p}",
                    )
                )

    if any(v.kind == "dependence" for v in violations):
        return CertificateReport(
            False, tuple(violations), order, etas, (), sum(etas), -1
        )

    # 4./5. Positional timing: walk the stream at the *claimed* issue
    # times and recompute the minimum eta each position needs.
    def latency_of(ident: int) -> int:
        pid = sigma[ident]
        return _NO_PIPE_DELAY if pid is None else machine.pipeline(pid).latency

    pipe_free = dict(pipe_free or {})
    variable_ready = dict(variable_ready or {})
    issue: Dict[int, int] = {}
    last_on_pipe: Dict[int, int] = {}
    required: List[int] = []
    clock = 0  # issue slot the next instruction would take with eta 0
    for position, (ident, claimed) in enumerate(zip(order, etas)):
        base = clock
        earliest = base
        pid = sigma[ident]
        if pid is not None:
            earliest = max(earliest, pipe_free.get(pid, 0))
            if pid in last_on_pipe:
                earliest = max(
                    earliest,
                    last_on_pipe[pid] + machine.pipeline(pid).enqueue_time,
                )
        var = block.by_ident(ident).variable
        if var is not None:
            earliest = max(earliest, variable_ready.get(var, 0))
        for p in preds[ident]:
            earliest = max(earliest, issue[p] + latency_of(p))
        need = earliest - base
        required.append(need)
        if claimed < need:
            violations.append(
                Violation(
                    "under-padded", position, ident,
                    f"tuple {ident} needs {need} NOP(s) here but the "
                    f"schedule claims {claimed}",
                )
            )
        elif claimed > need and require_minimal:
            violations.append(
                Violation(
                    "over-padded", position, ident,
                    f"tuple {ident} needs only {need} NOP(s) here but the "
                    f"schedule claims {claimed}; the stream is not an "
                    "Omega-minimal padding",
                )
            )
        # Commit the *claimed* issue slot: later constraints are judged
        # against the stream as written, not as it should have been.
        at = base + claimed
        issue[ident] = at
        if pid is not None:
            last_on_pipe[pid] = at
        clock = at + 1

    ok = not violations
    return CertificateReport(
        ok=ok,
        violations=tuple(violations),
        order=order,
        claimed_etas=etas,
        required_etas=tuple(required),
        claimed_nops=sum(etas),
        required_nops=sum(required),
    )


# ----------------------------------------------------------------------
# Loop certificates: steady-state modulo schedules, checked from scratch
# ----------------------------------------------------------------------
def _shifted_copy(block: BasicBlock, stride: int, copies: int) -> BasicBlock:
    """Unroll ``block`` ``copies`` times, renumbering copy ``j`` by
    ``j * stride`` (idents and result references alike).

    A local re-statement of ``repro.ir.loop.concatenate_iterations`` —
    kept separate so a renumbering bug there cannot also hide here.
    """
    from ..ir.tuples import IRTuple, RefOperand

    def shift(operand, offset):
        if isinstance(operand, RefOperand):
            return RefOperand(operand.ref + offset)
        return operand

    tuples = []
    for j in range(copies):
        offset = j * stride
        for t in block:
            tuples.append(
                IRTuple(
                    t.ident + offset,
                    t.op,
                    shift(t.alpha, offset),
                    shift(t.beta, offset),
                )
            )
    return BasicBlock(tuple(tuples), name=f"{block.name}@x{copies}")


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


@dataclass(frozen=True)
class LoopCertificateReport:
    """Outcome of independently re-checking one claimed modulo schedule."""

    ok: bool
    violations: Tuple[Violation, ...]
    ii: int
    offsets: Mapping[str, int]  # keyed by str(ident) for stable hashing
    #: This module's own lower bound on any II of the loop.
    ii_lower_bound: int
    #: Iterations materialized and replayed through ``check_schedule``.
    replayed_iterations: int

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

    # 1. Structure.
    if ii < 1:
        violations.append(
            Violation("structure", -1, -1, f"initiation interval {ii} < 1")
        )
    if sorted(offsets) != sorted(idents):
        violations.append(
            Violation(
                "structure", -1, -1,
                f"offsets cover {sorted(offsets)} but the body is "
                f"{sorted(idents)}",
            )
        )
    else:
        for z in idents:
            if offsets[z] < 0:
                violations.append(
                    Violation(
                        "structure", -1, z,
                        f"tuple {z} has negative offset {offsets[z]}",
                    )
                )
    if violations:
        return LoopCertificateReport(
            False, tuple(violations), ii,
            {str(k): v for k, v in offsets.items()}, -1, 0,
        )

    slot = {z: offsets[z] % ii for z in idents}
    by_slot: Dict[int, List[int]] = {}
    for z in idents:
        by_slot.setdefault(slot[z], []).append(z)
    for s, zs in sorted(by_slot.items()):
        if len(zs) > 1:
            violations.append(
                Violation(
                    "single-issue", -1, zs[1],
                    f"tuples {zs} all occupy kernel slot {s} "
                    f"(offsets {[offsets[z] for z in zs]} modulo {ii})",
                )
            )

    # 2. The independent lower bound.
    try:
        lower = loop_ii_lower_bound(body, machine, assignment)
    except ValueError as exc:
        violations.append(Violation("assignment", -1, -1, str(exc)))
        return LoopCertificateReport(
            False, tuple(violations), ii,
            {str(k): v for k, v in offsets.items()}, -1, 0,
        )
    if ii < lower:
        violations.append(
            Violation(
                "bound", -1, -1,
                f"claimed II {ii} is below the independent lower bound "
                f"{lower}",
            )
        )

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
            violations.append(
                Violation(
                    "dependence", -1, consumer,
                    f"tuple {consumer} at offset {offsets[consumer]} "
                    f"(+{d}*II) starts {need - have} cycle(s) before its "
                    f"distance-{d} predecessor {producer} completes",
                )
            )

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
                violations.append(
                    Violation(
                        "enqueue", -1, b,
                        f"pipeline {pid} windows of tuples {a} and {b} "
                        f"overlap: slots {slot[a]} and {slot[b]} are "
                        f"{gap} apart modulo {ii} but enqueue takes "
                        f"{enqueue}",
                    )
                )

    if violations:
        return LoopCertificateReport(
            False, tuple(violations), ii,
            {str(k): v for k, v in offsets.items()}, lower, 0,
        )

    # 5. Replay: materialize the flat stream of K overlapped iterations
    # and push it through the straight-line certificate at the claimed
    # cycles.  This is the end-to-end cross-check: the unrolled block's
    # *own* dependences (including any cross-iteration effect the
    # distance model might have missed) are re-derived from its tuples.
    stages = max(offsets[z] // ii for z in idents) + 1
    k = max(iterations, stages + 1, 3)
    stride = max(idents)
    unrolled = _shifted_copy(body, stride, k)
    entries = sorted(
        (i * ii + offsets[z], z + i * stride)
        for i in range(k)
        for z in idents
    )
    order = [ident for _, ident in entries]
    etas: List[int] = []
    previous = -1
    for cycle, _ in entries:
        etas.append(cycle - previous - 1)
        previous = cycle
    replay = check_schedule(
        unrolled, machine, order, etas,
        assignment=_replicate_assignment(assignment, idents, stride, k),
        require_minimal=False,
    )
    violations.extend(
        Violation("replay", v.position, v.ident, v.detail)
        for v in replay.violations
    )

    return LoopCertificateReport(
        ok=not violations,
        violations=tuple(violations),
        ii=ii,
        offsets={str(z): offsets[z] for z in idents},
        ii_lower_bound=lower,
        replayed_iterations=k,
    )


def _replicate_assignment(
    assignment: Optional[Mapping[int, Optional[int]]],
    idents: Sequence[int],
    stride: int,
    copies: int,
) -> Optional[Mapping[int, Optional[int]]]:
    if assignment is None:
        return None
    out: Dict[int, Optional[int]] = {}
    for j in range(copies):
        for z in idents:
            if z in assignment:
                out[z + j * stride] = assignment[z]
    return out
