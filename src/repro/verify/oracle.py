"""Differential oracle — run every scheduler on one block and cross-check.

For a single (block, machine) pair the oracle runs the list scheduler,
the branch-and-bound search, the multi-pipeline search, the splitting
scheduler and — when the block is small enough — two independent
exhaustive enumerations, then:

* certifies every produced schedule through
  :mod:`repro.verify.certificate` (the implementation that shares no
  code with the schedulers);
* asserts the invariant lattice between the results::

      brute == exhaustive == search  <=  split            (search complete)
                   native == fast == reference         (bit for bit,
                                       engines            no time limit)
                              search <=  list             (always)
                              multi  <=  pinned search    (always)
                              multi  ==  search            (deterministic
                                                           machine, both
                                                           complete)
      simulator implicit-interlock cycles == |block| + certified NOPs

  and, under ``optimality=True``, the cross-solver lattice against the
  ILP witness (:mod:`repro.ilp`, seeded with the search incumbent)::

      lp_relax <= ilp lower bound <= optimum <= ilp <= search   (always)
                                     ilp == search == brute     (all
                                                                 complete)
      root combinatorial bound     <= ilp                       (always)

* never compares a curtailed search as optimal — truncated results are
  flagged and only bounded from above;
* on any failure, writes a replayable discrepancy report (machine JSON,
  block in Figure-3 linear notation, every schedule, every violated
  invariant) under ``results/discrepancies/``.

Non-deterministic machines (operations with several viable pipelines)
are handled the way the compiler handles them: the core search runs
under a first-pipeline pinning, and the joint multi search is fed that
pinned result as an incumbent, which makes ``multi <= pinned`` a hard
guarantee even when the joint search is curtailed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.dag import COUNT_CAPPED, DependenceDAG
from ..ir.interp import UndefinedVariableError
from ..ir.textual import format_block, parse_block
from ..ioutil import atomic_write_json, atomic_write_text
from ..machine.machine import MachineDescription, first_pipeline_assignment
from ..machine.serialize import machine_from_dict, machine_to_dict
from ..sched.exhaustive import count_legal_orders, legal_only_search
from ..sched.list_scheduler import list_schedule
from ..sched.multi import schedule_block_multi
from ..sched.nop_insertion import compute_timing
from ..sched.search import (
    ENGINES,
    SearchOptions,
    root_lower_bound,
    schedule_block,
)
from ..sched.splitting import schedule_block_split
from ..simulator.core import HazardError, PipelineSimulator, simulate_schedule
from ..telemetry import Telemetry
from .brute import brute_force_optimum
from .certificate import check_schedule

#: Blocks whose legal-order count exceeds this skip the exhaustive layer.
DEFAULT_BRUTE_CAP = 20_000

#: Default location for replayable discrepancy reports.
DEFAULT_REPORT_DIR = os.path.join("results", "discrepancies")


@dataclass(frozen=True)
class Discrepancy:
    """One violated invariant, with enough context to understand it."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


@dataclass(frozen=True)
class OracleReport:
    """Everything one differential check established about a block."""

    block_name: str
    n_tuples: int
    machine_name: str
    #: schedule label -> {"order", "etas", "nops", "flagged"}.
    schedules: Dict[str, dict] = field(default_factory=dict)
    discrepancies: Tuple[Discrepancy, ...] = ()
    #: Searches that hit their curtail point / deadline (compared only
    #: as upper bounds, never as optimal).
    curtailed: Tuple[str, ...] = ()
    #: Checks that could not run (e.g. simulator semantics on a block
    #: whose random memory divides by zero).
    skipped: Tuple[str, ...] = ()
    checks_run: int = 0
    report_dir: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.discrepancies)} DISCREPANCIES"
        extra = f", curtailed: {', '.join(self.curtailed)}" if self.curtailed else ""
        line = (
            f"{self.block_name} ({self.n_tuples} tuples) on "
            f"{self.machine_name}: {status} "
            f"({self.checks_run} checks{extra})"
        )
        if self.ok:
            return line
        return line + "\n" + "\n".join(f"  {d}" for d in self.discrepancies)


def _schedule_entry(order, etas, nops, flagged: bool = False) -> dict:
    return {
        "order": list(order),
        "etas": list(etas),
        "nops": int(nops),
        "flagged": bool(flagged),
    }


def check_block(
    block: BasicBlock,
    machine: MachineDescription,
    options: Optional[SearchOptions] = None,
    brute_cap: int = DEFAULT_BRUTE_CAP,
    telemetry: Optional[Telemetry] = None,
    emit_dir: Optional[str] = None,
    optimality: bool = False,
    ilp_options=None,
) -> OracleReport:
    """Differentially check every scheduler on one (block, machine) pair.

    Parameters
    ----------
    options:
        Search configuration shared by the core and multi searches.
    brute_cap:
        Exhaustive enumeration only runs when the block's legal-order
        count is at most this (the two independent enumerations are then
        definitive ground truth).
    emit_dir:
        Directory for replayable discrepancy reports; ``None`` disables
        emission (the report still lists every discrepancy).
    optimality:
        Also run the ILP witness (:mod:`repro.ilp`) seeded with the
        search incumbent, certify its schedule, and assert the
        cross-solver lattice (``ilp == search`` when both complete,
        ``ilp <= search`` otherwise, every dual bound below every
        incumbent).  Skipped under a ``max_live`` register budget, which
        the ILP backend does not model.
    ilp_options:
        Optional :class:`repro.ilp.IlpOptions`; the default caps the
        witness at 400 branch-and-bound nodes / 10 s per block so a
        hard block degrades to a certified optimality gap instead of
        stalling the oracle.
    """
    if options is None:
        options = SearchOptions()
    n = len(block)
    if telemetry is not None:
        telemetry.count("verify.blocks")
    if n == 0:
        return OracleReport(block.name, 0, machine.name, checks_run=1)

    dag = DependenceDAG(block)
    # A full pinning works on every machine and doubles as the explicit
    # assignment the certificate re-validates (for deterministic
    # machines it is exactly sigma).
    assignment = first_pipeline_assignment(dag, machine)
    deterministic = machine.is_deterministic

    discrepancies: List[Discrepancy] = []
    curtailed: List[str] = []
    skipped: List[str] = []
    schedules: Dict[str, dict] = {}
    checks = 0

    def certify(label: str, order, etas, cert_assignment) -> bool:
        nonlocal checks
        checks += 1
        if telemetry is not None:
            telemetry.count("verify.schedules_checked")
        report = check_schedule(
            block, machine, order, etas, assignment=cert_assignment
        )
        if not report.ok:
            if telemetry is not None:
                telemetry.count("verify.certificate_failures")
            discrepancies.append(
                Discrepancy(
                    f"certificate[{label}]",
                    report.summary().replace("\n", " | "),
                )
            )
            return False
        return True

    # ------------------------------------------------------------------
    # Run every scheduler.
    # ------------------------------------------------------------------
    list_timing = compute_timing(dag, list_schedule(dag), machine, assignment)
    schedules["list"] = _schedule_entry(
        list_timing.order, list_timing.etas, list_timing.total_nops
    )
    certify("list", list_timing.order, list_timing.etas, assignment)

    search = schedule_block(dag, machine, options, assignment=assignment)
    search_flagged = not search.completed
    if search_flagged:
        curtailed.append("search")
    schedules["search"] = _schedule_entry(
        search.best.order, search.best.etas, search.final_nops, search_flagged
    )
    certify("search", search.best.order, search.best.etas, assignment)

    # ------------------------------------------------------------------
    # Cross-solver witness: the ILP backend, seeded with the search
    # incumbent so its answer can only match or improve it.
    # ------------------------------------------------------------------
    ilp = None
    if optimality and options.max_live is not None:
        skipped.append("ilp")
    elif optimality:
        from ..ilp.bnb import IlpOptions

        if ilp_options is None:
            ilp_options = IlpOptions(max_nodes=400, time_limit=10.0)
        ilp = schedule_block(
            dag,
            machine,
            options,
            assignment=assignment,
            seed=search.best.order,
            backend="ilp",
            ilp_options=ilp_options,
        )
        if telemetry is not None:
            telemetry.count("verify.optimality.runs")
            if ilp.completed:
                telemetry.count("verify.optimality.proved")
            else:
                telemetry.count("verify.optimality.gaps")
            if ilp.final_nops < search.final_nops:
                telemetry.count("verify.optimality.improved")
        ilp_flagged = not ilp.completed
        if ilp_flagged:
            curtailed.append("ilp")
        entry = _schedule_entry(
            ilp.best.order, ilp.best.etas, ilp.final_nops, ilp_flagged
        )
        entry["lower_bound"] = int(ilp.lower_bound)
        entry["lp_relaxation"] = float(ilp.lp_relaxation)
        entry["nodes"] = int(ilp.nodes)
        schedules["ilp"] = entry
        certify("ilp", ilp.best.order, ilp.best.etas, assignment)

    # Satellite fix: a curtailed search must carry the lower bound that
    # was active at curtailment, so the optimality gap in report.json is
    # replayable (not just an unexplained incumbent).
    root_bound = root_lower_bound(dag, machine, assignment)
    if search_flagged:
        bound = root_bound
        if ilp is not None:
            bound = max(bound, ilp.lower_bound)
        schedules["search"]["lower_bound"] = int(bound)
        schedules["search"]["optimality_gap"] = int(search.final_nops - bound)

    # Twin-engine runs: whichever engine `options` selects, the other
    # two must reproduce it bit for bit (checked in the lattice below);
    # without a C compiler the "native" twin degrades to a second "fast"
    # run, which keeps the check sound (identical, just not independent).
    # Skipped under a wall-clock deadline, where the truncation point
    # legitimately depends on the engine's speed.
    twins: List[Tuple[str, object]] = []
    if options.time_limit is None:
        for twin_engine in ENGINES:
            if twin_engine == options.engine:
                continue
            twins.append(
                (
                    twin_engine,
                    schedule_block(
                        dag,
                        machine,
                        options._replace(engine=twin_engine),
                        assignment=assignment,
                    ),
                )
            )

    split = schedule_block_split(dag, machine, assignment=assignment)
    split_flagged = not split.all_windows_completed
    if split_flagged:
        curtailed.append("split")
    schedules["split"] = _schedule_entry(
        split.timing.order, split.timing.etas, split.total_nops, split_flagged
    )
    certify("split", split.timing.order, split.timing.etas, assignment)

    multi = schedule_block_multi(
        dag,
        machine,
        options,
        extra_incumbents=[(search.best.order, assignment)],
    )
    multi_flagged = not multi.completed
    if multi_flagged:
        curtailed.append("multi")
    schedules["multi"] = _schedule_entry(
        multi.order, multi.etas, multi.total_nops, multi_flagged
    )
    certify("multi", multi.order, multi.etas, multi.assignment)

    # ------------------------------------------------------------------
    # Exhaustive ground truth (small blocks only).
    # ------------------------------------------------------------------
    n_orders = count_legal_orders(dag, cap=brute_cap)
    exhaustive = brute = None
    if n_orders != COUNT_CAPPED:
        exhaustive = legal_only_search(dag, machine, assignment=assignment)
        schedules["exhaustive"] = _schedule_entry(
            exhaustive.best.order,
            exhaustive.best.etas,
            exhaustive.optimal_nops,
        )
        certify(
            "exhaustive", exhaustive.best.order, exhaustive.best.etas, assignment
        )
        brute = brute_force_optimum(block, machine, assignment=assignment)
        schedules["brute"] = _schedule_entry(
            brute.best_order, brute.best_etas, brute.best_nops
        )

    # ------------------------------------------------------------------
    # The invariant lattice.
    # ------------------------------------------------------------------
    def expect(condition: bool, invariant: str, detail: str) -> None:
        nonlocal checks
        checks += 1
        if not condition:
            if telemetry is not None:
                telemetry.count("verify.invariant_failures")
            discrepancies.append(Discrepancy(invariant, detail))

    for twin_engine, twin in twins:
        expect(
            twin.best == search.best
            and twin.initial == search.initial
            and twin.omega_calls == search.omega_calls
            and twin.completed == search.completed
            and twin.improvements == search.improvements
            and twin.proved_by_bound == search.proved_by_bound
            and twin.memo_evicted == search.memo_evicted
            and dict(twin.prune_counts) == dict(search.prune_counts),
            "native==fast==reference",
            f"engines diverge: {search.final_nops} NOPs / "
            f"{search.omega_calls} omega calls ({options.engine}) vs "
            f"{twin.final_nops} / {twin.omega_calls} ({twin_engine})",
        )
    expect(
        search.final_nops <= list_timing.total_nops,
        "search<=list",
        f"search returned {search.final_nops} NOPs, worse than its own "
        f"list-schedule seed at {list_timing.total_nops}",
    )
    expect(
        multi.total_nops <= search.final_nops,
        "multi<=pinned",
        f"joint search returned {multi.total_nops} NOPs, worse than the "
        f"pinned incumbent it was seeded with ({search.final_nops})",
    )
    if search.completed:
        expect(
            split.total_nops >= search.final_nops,
            "split>=optimal",
            f"splitting claims {split.total_nops} NOPs, below the proven "
            f"optimum {search.final_nops}",
        )
        if deterministic and multi.completed:
            expect(
                multi.total_nops == search.final_nops,
                "multi==search",
                f"on a deterministic machine the joint search found "
                f"{multi.total_nops} NOPs vs the core search's "
                f"{search.final_nops}",
            )
    if ilp is not None:
        expect(
            ilp.final_nops <= search.final_nops,
            "ilp<=search",
            f"the ILP witness, seeded with the search incumbent, returned "
            f"{ilp.final_nops} NOPs — worse than the seed's "
            f"{search.final_nops}",
        )
        if ilp.completed and search.completed:
            expect(
                ilp.final_nops == search.final_nops,
                "ilp==search",
                f"both solvers claim a proven optimum yet disagree: "
                f"ilp {ilp.final_nops} NOPs vs search {search.final_nops}",
            )
        # Every dual bound sits below every incumbent: lp <= lower_bound
        # <= optimum <= ilp <= search.  (The combinatorial root bound is
        # a lower bound too, so it must also sit below the ILP incumbent;
        # no ordering between it and the LP bound is sound in general —
        # either may win.)
        expect(
            ilp.lp_relaxation <= ilp.lower_bound + 1e-9,
            "lp<=ilp-bound",
            f"LP relaxation {ilp.lp_relaxation} above the certified "
            f"lower bound {ilp.lower_bound}",
        )
        expect(
            ilp.lower_bound <= ilp.final_nops,
            "ilp-bound<=ilp",
            f"certified lower bound {ilp.lower_bound} above the ILP's "
            f"own incumbent {ilp.final_nops}",
        )
        expect(
            root_bound <= ilp.final_nops,
            "root-bound<=ilp",
            f"combinatorial root bound {root_bound} above the ILP "
            f"incumbent {ilp.final_nops}",
        )
        if search.completed:
            expect(
                ilp.lower_bound <= search.final_nops
                and ilp.lp_relaxation <= search.final_nops + 1e-9,
                "ilp-bounds<=optimal",
                f"an ILP dual bound (lb {ilp.lower_bound}, lp "
                f"{ilp.lp_relaxation}) exceeds the proven optimum "
                f"{search.final_nops}",
            )

    if exhaustive is not None and brute is not None and exhaustive.exhausted:
        expect(
            brute.best_nops == exhaustive.optimal_nops,
            "brute==exhaustive",
            f"independent enumeration found optimum {brute.best_nops}, "
            f"legal_only_search found {exhaustive.optimal_nops}",
        )
        if search.completed:
            expect(
                search.final_nops == brute.best_nops,
                "search==brute",
                f"search claims a proven optimum of {search.final_nops} "
                f"NOPs but independent enumeration found "
                f"{brute.best_nops}",
            )
        if ilp is not None and ilp.completed:
            expect(
                ilp.final_nops == brute.best_nops,
                "ilp==brute",
                f"the ILP claims a proven optimum of {ilp.final_nops} "
                f"NOPs but independent enumeration found "
                f"{brute.best_nops}",
            )
        if ilp is not None:
            expect(
                ilp.lower_bound <= brute.best_nops,
                "ilp-bound<=brute",
                f"certified ILP lower bound {ilp.lower_bound} above the "
                f"enumerated optimum {brute.best_nops}",
            )

    # ------------------------------------------------------------------
    # Simulator consistency: cycles are NOPs plus issues.
    # ------------------------------------------------------------------
    memory = {v: k + 2 for k, v in enumerate(sorted(block.variables))}
    cert = check_schedule(
        block, machine, search.best.order, search.best.etas, assignment=assignment
    )
    try:
        sim = PipelineSimulator(block, machine, dag=dag, assignment=assignment)
        trace = sim.run_implicit(search.best.order, memory)
        expect(
            trace.total_cycles == n + cert.required_nops,
            "simulator==omega",
            f"implicit-interlock simulation took {trace.total_cycles} "
            f"cycles; certificate says {n} issues + "
            f"{cert.required_nops} NOPs",
        )
        padded = simulate_schedule(
            block,
            machine,
            search.best.order,
            search.best.etas,
            memory,
            assignment=assignment,
        )
        expect(
            padded.total_cycles == n + search.final_nops,
            "padded-span",
            f"NOP-padded stream spans {padded.total_cycles} cycles, "
            f"expected {n + search.final_nops}",
        )
    except HazardError as exc:
        expect(
            False,
            "padded-hazard",
            f"the search's schedule under-padded the stream: {exc}",
        )
    except (ZeroDivisionError, UndefinedVariableError, KeyError):
        # Semantics, not timing, failed (e.g. a random block dividing by
        # zero under the synthetic memory); nothing to conclude.
        skipped.append("simulator")
        if telemetry is not None:
            telemetry.count("verify.sim_skipped")

    report_dir = None
    if discrepancies and emit_dir is not None:
        report_dir = _emit_report(
            emit_dir,
            block,
            machine,
            schedules,
            discrepancies,
            options,
            brute_cap,
            optimality,
        )
    if telemetry is not None and discrepancies:
        telemetry.count("verify.blocks_failed")

    return OracleReport(
        block_name=block.name,
        n_tuples=n,
        machine_name=machine.name,
        schedules=schedules,
        discrepancies=tuple(discrepancies),
        curtailed=tuple(curtailed),
        skipped=tuple(skipped),
        checks_run=checks,
        report_dir=report_dir,
    )


# ----------------------------------------------------------------------
# Replayable discrepancy reports
# ----------------------------------------------------------------------
def _emit_report(
    emit_dir: str,
    block: BasicBlock,
    machine: MachineDescription,
    schedules: Dict[str, dict],
    discrepancies: List[Discrepancy],
    options: SearchOptions,
    brute_cap: int,
    optimality: bool = False,
) -> str:
    """Write one discrepancy directory; returns its path."""
    base = f"{block.name}-{machine.name}"
    path = os.path.join(emit_dir, base)
    k = 1
    while os.path.exists(path):
        k += 1
        path = os.path.join(emit_dir, f"{base}-{k}")
    os.makedirs(path)
    # Atomic writes: a discrepancy report is exactly what someone will
    # pore over after a crash, so it must never itself be torn.
    atomic_write_json(os.path.join(path, "machine.json"), machine_to_dict(machine))
    atomic_write_text(os.path.join(path, "block.txt"), format_block(block) + "\n")
    atomic_write_json(
        os.path.join(path, "report.json"),
        {
            "schema": "repro-discrepancy/1",
            "block": block.name,
            "machine": machine.name,
            "discrepancies": [
                {"invariant": d.invariant, "detail": d.detail}
                for d in discrepancies
            ],
            "schedules": schedules,
            "curtail": options.curtail,
            "brute_cap": brute_cap,
            "optimality": optimality,
        },
    )
    return path


def replay_report(
    path: str,
    options: Optional[SearchOptions] = None,
    brute_cap: int = DEFAULT_BRUTE_CAP,
    telemetry: Optional[Telemetry] = None,
) -> OracleReport:
    """Re-run the oracle on a previously emitted discrepancy report.

    Reads ``machine.json`` and ``block.txt`` from ``path`` and runs
    :func:`check_block` afresh — on fixed code the same discrepancies
    reappear; after a fix the report comes back clean.  A report emitted
    by an ``optimality`` run replays with the ILP witness on, so
    recorded optimality gaps are reproducible.
    """
    with open(os.path.join(path, "machine.json")) as fh:
        machine = machine_from_dict(json.load(fh))
    with open(os.path.join(path, "block.txt")) as fh:
        block = parse_block(fh.read(), name=os.path.basename(path.rstrip("/")))
    optimality = False
    report_path = os.path.join(path, "report.json")
    if os.path.exists(report_path):
        with open(report_path) as fh:
            optimality = bool(json.load(fh).get("optimality", False))
    return check_block(
        block,
        machine,
        options=options,
        brute_cap=brute_cap,
        telemetry=telemetry,
        optimality=optimality,
    )
