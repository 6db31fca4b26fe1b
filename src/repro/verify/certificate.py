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

The loop certificate (:func:`check_steady_state`,
:func:`loop_ii_lower_bound`, :class:`LoopCertificateReport`) lives in
:mod:`repro.verify.steady_state` and loads on first access of those
names here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .. import _lazy_namespace
from ..ir.block import BasicBlock
from ..ir.ops import Opcode
from ..machine.machine import MachineDescription
from ..record import Record, setslot

#: The loop certificate, loaded on first use so a straight-line first
#: call never compiles it.  ``repro.driver.compile_loop`` still calls
#: ``check_steady_state`` through this module, where a traced run wraps
#: it.
_LOOP, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".steady_state": ("LoopCertificateReport", "check_steady_state", "loop_ii_lower_bound"),
})

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
class Violation(Record):
    """One reason a claimed schedule fails certification."""

    __slots__ = ("kind", "position", "ident", "detail")

    def __init__(self, kind: str, position: int, ident: int, detail: str):
        # permutation | assignment | dependence | under-padded | over-padded
        setslot(self, "kind", kind)
        setslot(self, "position", position)  # index into the order; -1 for schedule-level failures
        setslot(self, "ident", ident)  # tuple reference number; -1 for schedule-level failures
        setslot(self, "detail", detail)

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
class CertificateReport(Record):
    """Outcome of independently re-checking one claimed schedule."""

    __slots__ = ("ok", "violations", "order", "claimed_etas", "required_etas", "claimed_nops",
                 "required_nops")

    def __init__(self, ok: bool, violations: Tuple[Violation, ...], order: Tuple[int, ...],
                 claimed_etas: Tuple[int, ...], required_etas: Tuple[int, ...], claimed_nops: int,
                 required_nops: int):
        setslot(self, "ok", ok)
        setslot(self, "violations", violations)
        setslot(self, "order", order)
        setslot(self, "claimed_etas", claimed_etas)
        #: η values this module recomputed (empty on structural failure).
        setslot(self, "required_etas", required_etas)
        setslot(self, "claimed_nops", claimed_nops)
        setslot(self, "required_nops", required_nops)

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
    tuple_ready: Optional[Mapping[int, int]] = None,
) -> CertificateReport:
    """Certify a claimed ``(order, etas)`` schedule of ``block``.

    ``pipe_free`` / ``variable_ready`` replicate the carry-in conditions
    of paper footnote 1 (earliest cycle each pipeline accepts work /
    each variable may be touched), and ``tuple_ready`` the earliest
    issue cycle of single tuples; all default to an idle machine.
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
    tuple_ready = dict(tuple_ready or {})
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
        earliest = max(earliest, tuple_ready.get(ident, 0))
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
