"""Differential oracle for loop schedules — the ``loop`` verify tier.

For a single (loop, machine) pair the oracle runs the modulo scheduler,
re-prices the plain list schedule's steady state, and cross-checks:

* **certificates** — both the searched kernel and the list steady state
  must pass :func:`repro.verify.certificate.check_steady_state`, the
  re-implementation that re-derives dependences (with iteration
  distances), σ, the II lower bound, and the replayed overlapped stream
  from the raw tuples and machine tables alone;
* the invariant lattice between the results::

      independent bound <= MII <= searched II <= list II     (always)
             brute-force min II <= searched II               (tiny bodies)
             brute-force min II == searched II               (completed:
                                          the search proved optimality
                                          by meeting MII or refuting
                                          every smaller candidate)

* **semantics** — the flat issue stream of several overlapped
  iterations, executed in schedule order against an unrolled copy of
  the body, must leave exactly the memory the sequential loop leaves;
* on any failure, writes a replayable discrepancy report (machine JSON,
  body in linear notation, offsets, every violated invariant) under
  ``results/discrepancies/`` in the same ``repro-discrepancy/1`` schema
  as the straight-line oracle.

The brute-force layer (:func:`repro.verify.certificate.brute_force_min_ii`)
is complete — slot enumeration plus exact stage feasibility — so on
bodies small enough to afford it, the searched II is checked against
ground truth, not just against bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..ir.interp import run_block
from ..ir.loop import LoopBlock, run_loop
from ..ir.textual import format_block
from ..ioutil import atomic_write_json, atomic_write_text
from ..machine.machine import MachineDescription
from ..machine.serialize import machine_to_dict
from ..sched.pipelining import ModuloScheduleResult, schedule_loop
from ..sched.search import SearchOptions
from ..telemetry import Telemetry
from .certificate import brute_force_min_ii, check_steady_state
from .oracle import DEFAULT_REPORT_DIR, Discrepancy

#: Bodies larger than this skip the brute-force ground-truth layer.
DEFAULT_BRUTE_BODY_CAP = 8

#: Overlapped iterations executed for the semantic stream check.
_SEMANTIC_ITERATIONS = 4


@dataclass(frozen=True)
class LoopOracleReport:
    """Everything one differential check established about a loop."""

    loop_name: str
    n_tuples: int
    machine_name: str
    searched_ii: int
    list_ii: int
    mii: int
    #: Ground-truth minimum II, when the brute-force layer ran.
    brute_ii: Optional[int] = None
    completed: bool = False
    discrepancies: Tuple[Discrepancy, ...] = ()
    skipped: Tuple[str, ...] = ()
    checks_run: int = 0
    report_dir: Optional[str] = None
    result: Optional[ModuloScheduleResult] = field(
        default=None, compare=False, repr=False
    )

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        status = (
            "ok" if self.ok else f"{len(self.discrepancies)} DISCREPANCIES"
        )
        proof = "optimal" if self.completed else "best-known"
        if self.brute_ii is not None:
            proof += f", brute {self.brute_ii}"
        line = (
            f"{self.loop_name} ({self.n_tuples} tuples) on "
            f"{self.machine_name}: II {self.searched_ii} [{proof}] vs "
            f"list {self.list_ii}, MII {self.mii}: {status} "
            f"({self.checks_run} checks)"
        )
        if self.ok:
            return line
        return line + "\n" + "\n".join(f"  {d}" for d in self.discrepancies)


def check_loop(
    loop: LoopBlock,
    machine: MachineDescription,
    options: Optional[SearchOptions] = None,
    brute_body_cap: int = DEFAULT_BRUTE_BODY_CAP,
    telemetry: Optional[Telemetry] = None,
    emit_dir: Optional[str] = None,
) -> LoopOracleReport:
    """Differentially check the modulo scheduler on one (loop, machine).

    ``brute_body_cap`` bounds the body size for which the complete
    brute-force II enumeration runs (its cost is exponential in the
    body); larger bodies are still certified and lattice-checked, just
    not compared against enumerated ground truth.
    """
    if options is None:
        options = SearchOptions()
    n = len(loop.body)
    if telemetry is not None:
        telemetry.count("verify.loops")

    discrepancies: List[Discrepancy] = []
    skipped: List[str] = []
    checks = 0

    def expect(condition: bool, invariant: str, detail: str) -> None:
        nonlocal checks
        checks += 1
        if not condition:
            if telemetry is not None:
                telemetry.count("verify.invariant_failures")
            discrepancies.append(Discrepancy(invariant, detail))

    result = schedule_loop(
        loop, machine, options=options, telemetry=telemetry
    )

    # ------------------------------------------------------------------
    # Certificates: searched kernel, and the certificate's own bound.
    # ------------------------------------------------------------------
    checks += 1
    if telemetry is not None:
        telemetry.count("verify.schedules_checked")
    certificate = check_steady_state(
        loop.body, machine, result.offsets, result.ii,
        assignment=result.assignment,
    )
    if not certificate.ok:
        if telemetry is not None:
            telemetry.count("verify.certificate_failures")
        discrepancies.append(
            Discrepancy(
                "certificate[modulo]",
                certificate.summary().replace("\n", " | "),
            )
        )

    # ------------------------------------------------------------------
    # The invariant lattice.
    # ------------------------------------------------------------------
    expect(
        result.ii <= result.list_ii,
        "searched<=list",
        f"modulo search returned II {result.ii}, worse than the "
        f"steady-state list schedule at {result.list_ii}",
    )
    expect(
        result.ii >= result.mii,
        "searched>=mii",
        f"claimed II {result.ii} is below the scheduler's own MII "
        f"{result.mii}",
    )
    if certificate.ii_lower_bound >= 0:
        expect(
            result.mii >= certificate.ii_lower_bound,
            "mii>=independent-bound",
            f"scheduler MII {result.mii} is below the certificate's "
            f"independent bound {certificate.ii_lower_bound}",
        )

    brute_ii: Optional[int] = None
    if n <= brute_body_cap:
        brute = brute_force_min_ii(
            loop.body, machine, assignment=result.assignment
        )
        brute_ii = brute.min_ii
        expect(
            brute.min_ii <= result.ii,
            "brute<=searched",
            f"enumerated minimum II {brute.min_ii} exceeds the searched "
            f"II {result.ii} — the enumeration missed a kernel",
        )
        if result.completed:
            expect(
                brute.min_ii == result.ii,
                "completed==brute",
                f"result claims proven optimality at II {result.ii} but "
                f"complete enumeration achieves {brute.min_ii}",
            )
        if telemetry is not None:
            telemetry.count("verify.loops_brute")
            if brute.min_ii == result.ii:
                telemetry.count("verify.loops_confirmed_optimal")
    else:
        skipped.append("brute")

    # ------------------------------------------------------------------
    # Semantics: the overlapped stream computes what the loop computes.
    # ------------------------------------------------------------------
    checks += 1
    k = max(_SEMANTIC_ITERATIONS, result.stage_count + 1)
    memory = {v: j + 2 for j, v in enumerate(sorted(loop.body.variables))}
    if loop.loop_var is not None:
        memory[loop.loop_var] = loop.start
    stride = max(loop.body.idents)
    stream_order = [
        z + i * stride for _, i, z in result.stream(k)
    ]
    try:
        sequential = dict(run_loop(loop, memory=dict(memory), trip_count=k))
        overlapped = dict(
            run_block(
                loop.unrolled(k), memory=dict(memory), order=stream_order
            ).memory
        )
        if loop.loop_var is not None:
            # The sequential loop restores the scoped binding; the flat
            # unrolled block leaves the final count.  Compare the rest.
            sequential.pop(loop.loop_var, None)
            overlapped.pop(loop.loop_var, None)
        expect(
            sequential == overlapped,
            "stream-semantics",
            f"executing the modulo stream of {k} iterations left memory "
            f"{overlapped}, sequential execution leaves {sequential}",
        )
    except ZeroDivisionError:
        skipped.append("semantics")
        if telemetry is not None:
            telemetry.count("verify.sim_skipped")

    report_dir = None
    if discrepancies and emit_dir is not None:
        report_dir = _emit_loop_report(
            emit_dir, loop, machine, result, discrepancies, brute_ii
        )
    if telemetry is not None and discrepancies:
        telemetry.count("verify.loops_failed")

    return LoopOracleReport(
        loop_name=loop.name,
        n_tuples=n,
        machine_name=machine.name,
        searched_ii=result.ii,
        list_ii=result.list_ii,
        mii=result.mii,
        brute_ii=brute_ii,
        completed=result.completed,
        discrepancies=tuple(discrepancies),
        skipped=tuple(skipped),
        checks_run=checks,
        report_dir=report_dir,
        result=result,
    )


def _emit_loop_report(
    emit_dir: str,
    loop: LoopBlock,
    machine: MachineDescription,
    result: ModuloScheduleResult,
    discrepancies: List[Discrepancy],
    brute_ii: Optional[int],
) -> str:
    """Write one replayable loop-discrepancy directory; returns its path."""
    base = f"loop-{loop.name}-{machine.name}"
    path = os.path.join(emit_dir, base)
    k = 1
    while os.path.exists(path):
        k += 1
        path = os.path.join(emit_dir, f"{base}-{k}")
    os.makedirs(path)
    atomic_write_json(
        os.path.join(path, "machine.json"), machine_to_dict(machine)
    )
    atomic_write_text(
        os.path.join(path, "block.txt"), format_block(loop.body) + "\n"
    )
    atomic_write_json(
        os.path.join(path, "report.json"),
        {
            "schema": "repro-discrepancy/1",
            "kind": "loop",
            "loop": loop.name,
            "machine": machine.name,
            "carried": [
                {
                    "producer": d.producer,
                    "consumer": d.consumer,
                    "kind": d.kind,
                    "distance": d.distance,
                }
                for d in loop.carried
            ],
            "discrepancies": [
                {"invariant": d.invariant, "detail": d.detail}
                for d in discrepancies
            ],
            "schedule": {
                "ii": result.ii,
                "mii": result.mii,
                "res_mii": result.res_mii,
                "rec_mii": result.rec_mii,
                "list_ii": result.list_ii,
                "brute_ii": brute_ii,
                "offsets": {str(z): off for z, off in result.offsets.items()},
                "completed": result.completed,
            },
        },
    )
    return path


def run_loop_suite(
    machines,
    options: Optional[SearchOptions] = None,
    brute_body_cap: int = DEFAULT_BRUTE_BODY_CAP,
    telemetry: Optional[Telemetry] = None,
    emit_dir: Optional[str] = DEFAULT_REPORT_DIR,
) -> List[LoopOracleReport]:
    """Check every built-in loop kernel against every machine in
    ``machines``; returns one report per (kernel, machine) pair."""
    from ..synth.loops import LOOP_KERNELS

    reports = []
    for kernel in LOOP_KERNELS:
        loop = kernel.lower()
        for machine in machines:
            reports.append(
                check_loop(
                    loop,
                    machine,
                    options=options,
                    brute_body_cap=brute_body_cap,
                    telemetry=telemetry,
                    emit_dir=emit_dir,
                )
            )
    return reports
