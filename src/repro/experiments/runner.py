"""Shared experiment machinery.

One pass over a synthetic block population produces the per-block records
that Table 7 and Figures 1, 4, 5, 6 and 7 are all views of; this module
owns that pass so the experiments stay cheap and mutually consistent.

Scale: the paper schedules 16,000 blocks.  ``population_size()`` reads
``REPRO_SCALE`` (a fraction of paper scale, default 0.125 ⇒ 2,000 blocks)
so benchmarks stay tractable in pure Python while ``REPRO_SCALE=1``
reproduces the full run.  Results are shape-stable across scales.

The serial pass lives here; ``repro.experiments.parallel`` fans the same
per-block step (:func:`schedule_generated_block`) out over a process
pool.  Both paths build records through the same function, which is what
makes the parallel engine's output bit-identical to the serial one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, List, Mapping, Optional

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription, first_pipeline_assignment
from ..machine.presets import paper_simulation_machine
from ..resilience.budget import (
    STEP_CURTAILED,
    STEP_LIST_SEED,
    STEP_OPTIMAL,
    STEP_SPLIT,
    BudgetManager,
)
from ..sched.list_scheduler import list_schedule, program_order
from ..sched.nop_insertion import ScheduleTiming, compute_timing
from ..sched.search import SearchOptions, SearchResult, schedule_block
from ..synth.generator import GeneratedBlock
from ..telemetry import Telemetry
from ..verify import certificate

if TYPE_CHECKING:
    from ..synth.population import PopulationSpec

#: The paper's population size.
PAPER_BLOCKS = 16_000

#: The paper's curtail points were "always large relative to the number of
#: items searched for an optimal search of an average block"; its truncated
#: searches averaged ~54,000 Ω calls, placing λ in the 50k range.  Typical
#: complete searches here cost ~400 calls, so this is >100x headroom.
DEFAULT_CURTAIL = 50_000


def population_size(default_scale: float = 0.125) -> int:
    """Blocks to run, honouring the ``REPRO_SCALE`` environment knob."""
    scale = float(os.environ.get("REPRO_SCALE", default_scale))
    return max(1, round(PAPER_BLOCKS * scale))


@dataclass(frozen=True)
class BlockRecord:
    """Everything the experiments need to know about one scheduled block.

    ``elapsed_seconds`` is excluded from equality/hashing: two runs of
    the same population are *the same result* regardless of wall clock,
    which is what lets the parallel engine assert record-identity against
    the serial runner.
    """

    index: int
    size: int  # instructions (tuples) in the block
    statements: int
    initial_nops: int  # mu of the front end's program order (Figure 4 "initial")
    seed_nops: int  # mu of the list schedule (step [1]'s incumbent)
    final_nops: int  # mu of the search's best schedule
    omega_calls: int
    completed: bool  # condition [1]: provably optimal
    #: The search hit its wall-clock deadline (or the run budget was
    #: exhausted, or the block was quarantined after repeated worker
    #: failures) and ``final_nops`` is a deterministic fallback — the
    #: split-windows schedule or the list-schedule seed — not the search
    #: incumbent.  Degraded records are never ``completed`` — Table 7 and
    #: the verify oracle must count them as truncated, never as optimal.
    degraded: bool = False
    #: Which rung of the degradation ladder published this record — one
    #: of ``repro.resilience.budget.LADDER`` (``""`` only on records
    #: predating the resilience layer).
    ladder: str = ""
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def nops_removed(self) -> int:
        return self.initial_nops - self.final_nops


class VerificationError(AssertionError):
    """A population schedule failed its independent certificate check."""


def _empty_record(index: int, gb: GeneratedBlock, telemetry) -> BlockRecord:
    """The zero-size record for a block the optimizer folded away."""
    if telemetry is not None:
        telemetry.count("blocks.empty")
        telemetry.count(f"resilience.ladder.{STEP_OPTIMAL}")
    return BlockRecord(
        index=index,
        size=0,
        statements=gb.statements,
        initial_nops=0,
        seed_nops=0,
        final_nops=0,
        omega_calls=0,
        completed=True,
        degraded=False,
        ladder=STEP_OPTIMAL,
        elapsed_seconds=0.0,
    )


def list_seed_record(
    index: int,
    gb: GeneratedBlock,
    machine: MachineDescription,
    telemetry: Optional[Telemetry] = None,
) -> BlockRecord:
    """The bottom rung of the degradation ladder: no search at all.

    Publishes the deterministic list-schedule seed.  Used when the
    run-level budget is already exhausted before a block starts and when
    a poisoned worker chunk is quarantined — the two situations where a
    record is still owed but searching is off the table.
    ``omega_calls=0`` records honestly that no search ran.
    """
    block = gb.block
    if len(block) == 0:
        return _empty_record(index, gb, telemetry)
    start = time.perf_counter()
    dag = DependenceDAG(block)
    initial = compute_timing(dag, program_order(dag), machine)
    seed = compute_timing(dag, list_schedule(dag), machine)
    if telemetry is not None:
        telemetry.count("blocks.degraded")
        telemetry.count(f"resilience.ladder.{STEP_LIST_SEED}")
    return BlockRecord(
        index=index,
        size=len(block),
        statements=gb.statements,
        initial_nops=initial.total_nops,
        seed_nops=seed.total_nops,
        final_nops=seed.total_nops,
        omega_calls=0,
        completed=False,
        degraded=True,
        ladder=STEP_LIST_SEED,
        elapsed_seconds=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class LadderOutcome:
    """What one trip down the degradation ladder published.

    ``result`` is the raw search outcome; ``timing``/``final_nops`` are
    what the chosen rung actually publishes (the search incumbent, the
    split-windows schedule, or the list seed).  ``cache_status`` is the
    cache provenance (``"hit"``/``"miss"``/``"bypass"``) when a
    :class:`repro.service.cache.ScheduleCache` drove the search, else
    ``None``.
    """

    result: SearchResult
    timing: ScheduleTiming
    final_nops: int
    omega_calls: int
    ladder: str
    degraded: bool
    cache_status: Optional[str] = None


def ladder_schedule(
    dag: DependenceDAG,
    machine: MachineDescription,
    options: SearchOptions,
    telemetry: Optional[Telemetry] = None,
    budget: Optional[BudgetManager] = None,
    cache=None,
    hit: Optional[SearchResult] = None,
) -> LadderOutcome:
    """Search one block and walk the degradation ladder on a timeout.

    The shared per-block step behind :func:`schedule_generated_block`
    and the batch scheduling daemon (:mod:`repro.service.jobs`): run
    the branch-and-bound (through ``cache`` when given — a
    :class:`repro.service.cache.ScheduleCache` — so solved canonical
    forms are served instead of recomputed), and degrade a
    deadline-truncated search to the split-windows schedule (when
    ``budget`` enables it and it beats the seed) or the list seed.
    ``hit`` is a result the caller already read from a cache
    (:meth:`repro.service.cache.ScheduleCache.lookup`); it is published
    as a cache hit without searching.
    """
    if hit is not None:
        result, cache_status = hit, "hit"
    elif cache is not None:
        result, cache_status = cache.schedule_with_status(
            dag, machine, options, telemetry=telemetry
        )
    else:
        result = schedule_block(dag, machine, options, telemetry=telemetry)
        cache_status = None
    # Deadline-truncated searches degrade: the incumbent they stopped on
    # depends on wall clock, the fallback rungs below do not.
    degraded = result.timed_out
    omega_calls = result.omega_calls
    if not degraded:
        ladder = STEP_OPTIMAL if result.completed else STEP_CURTAILED
        timing = result.best
        final_nops = result.final_nops
    else:
        ladder = STEP_LIST_SEED
        timing = result.initial
        final_nops = result.initial_nops
        if budget is not None and budget.split_fallback and len(dag) > 1:
            # Timed-out blocks only: the split rung loads on first use.
            from ..sched.splitting import schedule_block_split

            split = schedule_block_split(
                dag,
                machine,
                window=budget.split_window,
                curtail_per_window=budget.split_curtail,
                telemetry=telemetry,
                engine=options.engine,
            )
            omega_calls += split.omega_calls
            if split.total_nops < result.initial_nops:
                ladder = STEP_SPLIT
                timing = split.timing
                final_nops = split.total_nops
    return LadderOutcome(
        result=result,
        timing=timing,
        final_nops=final_nops,
        omega_calls=omega_calls,
        ladder=ladder,
        degraded=degraded,
        cache_status=cache_status,
    )


def schedule_generated_block(
    index: int,
    gb: GeneratedBlock,
    machine: MachineDescription,
    options: SearchOptions,
    telemetry: Optional[Telemetry] = None,
    block_timeout: Optional[float] = None,
    verify: bool = False,
    budget: Optional[BudgetManager] = None,
    cache=None,
) -> BlockRecord:
    """Schedule one population member and build its record.

    Empty blocks (the optimizer occasionally folds a whole program away)
    produce a zero-size record instead of a gap, so ``BlockRecord.index``
    stays dense and the record count always equals the population size.

    ``block_timeout`` bounds the wall-clock spent searching this block; a
    block that exceeds it walks down the degradation ladder (see
    :mod:`repro.resilience.budget`): with a ``budget`` manager whose
    split fallback is enabled, the section-5.3 windowed scheduler gets a
    small deterministic Ω budget to beat the list seed
    (``ladder="split-windows"``); otherwise — and when the windows do
    not improve on it — the block publishes its list-schedule seed
    (``ladder="list-seed"``).  Either way the record is marked
    ``degraded=True, completed=False`` instead of stalling the run.

    ``budget`` additionally clamps the block's curtail point and memo cap
    and enforces the run-level budgets: once those are exhausted, blocks
    skip the search entirely and publish their list seeds.

    ``verify`` re-derives the *published* schedule's legality and NOP
    count through :mod:`repro.verify.certificate` (an implementation that
    shares no code with the schedulers) and raises
    :class:`VerificationError` on any mismatch — an Ω-accounting bug in
    the search can then never silently contaminate the experiment data.

    ``cache`` is an optional :class:`repro.service.cache.ScheduleCache`:
    blocks whose canonical form was already solved (this run or any
    earlier run sharing the store) are served from it, bit-for-bit
    identical to a cold search.  Searches running under a wall-clock
    ``block_timeout`` bypass the cache (the outcome is not a pure
    function of the problem), so records stay byte-identical either way.
    """
    block = gb.block
    if len(block) == 0:
        return _empty_record(index, gb, telemetry)
    if budget is not None:
        if budget.run_exhausted() is not None:
            if telemetry is not None:
                telemetry.count("resilience.run_budget_exhausted")
            return list_seed_record(index, gb, machine, telemetry)
        options = budget.options_for_block(options)
    if block_timeout is not None:
        limit = (
            block_timeout
            if options.time_limit is None
            else min(options.time_limit, block_timeout)
        )
        options = replace(options, time_limit=limit)
    dag = DependenceDAG(block)
    initial = compute_timing(dag, program_order(dag), machine)
    start = time.perf_counter()
    out = ladder_schedule(
        dag, machine, options, telemetry=telemetry, budget=budget, cache=cache
    )
    elapsed = time.perf_counter() - start
    if budget is not None:
        budget.charge(out.omega_calls)
    if telemetry is not None:
        if out.degraded:
            telemetry.count("blocks.degraded")
        telemetry.count(f"resilience.ladder.{out.ladder}")
    if verify:
        _verify_record(block, dag, machine, out.timing, out.final_nops, telemetry)
    return BlockRecord(
        index=index,
        size=len(block),
        statements=gb.statements,
        initial_nops=initial.total_nops,
        seed_nops=out.result.initial_nops,
        final_nops=out.final_nops,
        omega_calls=out.omega_calls,
        completed=out.result.completed and not out.degraded,
        degraded=out.degraded,
        ladder=out.ladder,
        elapsed_seconds=elapsed,
    )


def _verify_record(block, dag, machine, timing, final_nops, telemetry):
    """Certify the schedule a record is about to publish.

    ``timing`` is whatever the degradation ladder published — the search
    optimum, a curtailed incumbent, the split-windows schedule, or the
    list seed — because that is the schedule the record reports;
    verifying an abandoned incumbent would check a schedule nobody sees.
    """
    assignment = first_pipeline_assignment(dag, machine)
    cert = certificate.check_schedule(
        block, machine, timing.order, timing.etas, assignment=assignment
    )
    if telemetry is not None:
        telemetry.count("verify.schedules_checked")
    if not cert.ok:
        if telemetry is not None:
            telemetry.count("verify.certificate_failures")
        raise VerificationError(
            f"block {block.name!r} on {machine.name}: {cert.summary()}"
        )
    if cert.required_nops != final_nops:
        if telemetry is not None:
            telemetry.count("verify.certificate_failures")
        raise VerificationError(
            f"block {block.name!r} on {machine.name}: record publishes "
            f"{final_nops} NOPs but the certificate re-derives "
            f"{cert.required_nops}"
        )


def run_population(
    n_blocks: int,
    curtail: int = DEFAULT_CURTAIL,
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: Optional[PopulationSpec] = None,
    options: Optional[SearchOptions] = None,
    telemetry: Optional[Telemetry] = None,
    block_timeout: Optional[float] = None,
    verify: bool = False,
    done: Optional[Mapping[int, BlockRecord]] = None,
    on_record: Optional[Callable[[BlockRecord], None]] = None,
    budget: Optional[BudgetManager] = None,
    cache=None,
) -> List[BlockRecord]:
    """Schedule ``n_blocks`` synthetic blocks; one record per block.

    ``spec`` defaults to ``PopulationSpec()``.  ``initial_nops`` is the
    NOP count of the block *as emitted* (program order) — the quantity
    Figure 4 shows growing linearly with block size; ``seed_nops`` is the
    list schedule's count (the search's incumbent).
    With ``verify=True`` every published schedule is certified through
    the independent checker (see :func:`schedule_generated_block`).

    Resilience hooks (all optional, all no-ops by default):

    * ``done`` — records already finished by an earlier, interrupted run
      (from a checkpoint journal).  Their blocks are skipped — only the
      cheap parameter stream is replayed, not generation or search — and
      the journaled records slot back in at their indexes, so a resumed
      run returns exactly what an uninterrupted one would.
    * ``on_record`` — called with each *freshly scheduled* record the
      moment it exists (not with journal-replayed ones); the CLI points
      this at :meth:`repro.resilience.journal.Journal.append`.
    * ``budget`` — a started :class:`BudgetManager` enforcing run-level
      wall-clock/Ω budgets and per-block clamps, enabling the
      split-windows ladder rung (see :func:`schedule_generated_block`).
    * ``cache`` — a :class:`repro.service.cache.ScheduleCache`; blocks
      whose canonical form is already in the (possibly shared, possibly
      disk-backed) store are served from it instead of re-searched.
    """
    # Whole-population runs only: one block's schedule never loads the
    # sampler, the generator's front end or the optimizer.
    from ..synth.population import (
        PopulationSpec,
        generate_from_params,
        sample_population_params,
    )

    if spec is None:
        spec = PopulationSpec()
    if machine is None:
        machine = paper_simulation_machine()
    if options is None:
        options = SearchOptions(curtail=curtail)
    if budget is not None:
        budget.start()
    records: List[BlockRecord] = []
    skipped = 0
    generated = 0.0
    for params in sample_population_params(n_blocks, master_seed, spec):
        if done is not None and params.index in done:
            records.append(done[params.index])
            skipped += 1
            continue
        t0 = time.perf_counter()
        gb = generate_from_params(params, spec)
        generated += time.perf_counter() - t0
        record = schedule_generated_block(
            params.index,
            gb,
            machine,
            options,
            telemetry,
            block_timeout,
            verify,
            budget=budget,
            cache=cache,
        )
        records.append(record)
        if on_record is not None:
            on_record(record)
    assert len(records) == n_blocks, (
        f"population run produced {len(records)} records for "
        f"{n_blocks} blocks"
    )
    if telemetry is not None:
        telemetry.count("blocks.scheduled", len(records) - skipped)
        if skipped:
            telemetry.count("resilience.journal_blocks_skipped", skipped)
        telemetry.add_time("phase.generate", generated)
    return records


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else float("nan")


def bucket_by_size(
    records: List[BlockRecord], bucket: int = 2
) -> dict[int, List[BlockRecord]]:
    """Group records by block-size bucket (for the per-size figures)."""
    out: dict[int, List[BlockRecord]] = {}
    for r in records:
        out.setdefault((r.size // bucket) * bucket, []).append(r)
    return dict(sorted(out.items()))
