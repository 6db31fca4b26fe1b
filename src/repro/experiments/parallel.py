"""Parallel population scheduling — supervised fan-out of the corpus run.

The paper's headline experiment schedules 16,000 synthetic blocks; the
serial pass in :mod:`repro.experiments.runner` is embarrassingly
parallel across blocks but bottlenecked on one core.  This module fans
it out:

1. The parent samples the population *parameter* stream (a few RNG draws
   per block — no front end work) via
   :func:`repro.synth.population.sample_population_params`.
2. The parameters are striped round-robin into chunks, so the cost of
   large blocks spreads evenly across workers.
3. Each chunk is one job of a :class:`repro.resilience.pool.WorkerPool`
   (job function :func:`_run_chunk`): a worker rebuilds the chunk's
   blocks with :func:`generate_from_params`, schedules them through the
   same :func:`schedule_generated_block` step the serial runner uses,
   sends a progress heartbeat per finished block, and delivers its
   records plus its own telemetry registry in one final reply.
4. The parent merges records back into deterministic block-index order
   and folds every worker's telemetry into the caller's registry.

Because workers and the serial runner share one per-block code path and
the parameter stream reproduces the population bit for bit, the merged
records are identical to ``run_population``'s (wall-clock fields aside —
``BlockRecord`` equality already excludes those).

Fault tolerance is the pool's (see :mod:`repro.resilience.pool`): a
crashed or hung worker, or a reply that fails
:func:`repro.resilience.supervisor.validate_records`, costs one attempt
of one chunk, which is retried with capped exponential backoff.  A
chunk that keeps failing is **poisoned** — the parent quarantines it and
publishes its blocks' deterministic list-schedule seeds (the bottom rung
of the degradation ladder) instead of aborting the run.  Only a
validated reply carries records, so a fault can never leak partial
work.  :class:`VerificationError` is the one exception that must *not*
be retried: a failed schedule certificate means the data is wrong, not
the worker, so it aborts the run.

Degradation, not hangs: ``block_timeout`` bounds the wall-clock any one
block may spend in the branch-and-bound; a block that exceeds it walks
down the degradation ladder and is recorded ``completed=False``.
Robustness, not ceremony: ``workers=1`` — or any failure to stand
worker processes up (sandboxed environments without process support) —
falls back to the serial runner, which produces the same records.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..machine.machine import MachineDescription
from ..machine.presets import paper_simulation_machine
from ..resilience.budget import BudgetManager
from ..resilience.faults import FaultPlan
from ..resilience.pool import JobAborted, JobHandle, PoolJob, WorkerPool
from ..resilience.supervisor import SupervisorConfig, validate_records
from ..sched.search import SearchOptions
from ..synth.population import (
    BlockParams,
    PopulationSpec,
    generate_from_params,
    sample_population_params,
)
from ..telemetry import Telemetry
from .runner import (
    DEFAULT_CURTAIL,
    BlockRecord,
    VerificationError,
    list_seed_record,
    run_population,
    schedule_generated_block,
)

#: Chunks per worker: small enough to amortize submission overhead,
#: large enough that round-robin striping levels the block-size skew —
#: and, under supervision, the unit of loss: a crash costs at most one
#: chunk's worth of work.
CHUNKS_PER_WORKER = 8


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else the machine's cores."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _corrupt_records(records: List[BlockRecord]) -> List[BlockRecord]:
    """Damage a record payload so the parent's validation must catch it."""
    if not records:
        return records
    first = dataclasses.replace(records[0], final_nops=records[0].seed_nops + 7)
    return [first] + records[1:]


def _run_chunk(context, args, job: JobHandle) -> List[BlockRecord]:
    """Pool job function: schedule one parameter chunk in a worker.

    ``context`` is the run's ``(machine, spec, options, block_timeout,
    verify, cache)``; ``args`` is ``(params_chunk, budget)``.  One
    progress heartbeat per scheduled block — progress, not liveness: a
    worker spinning uselessly inside one block goes as stale as a dead
    one.  A failed schedule certificate aborts the job unretried: the
    records, not the worker, are wrong.

    A scheduled crash or hang triggers at the chunk's midpoint — after
    real work has been done — so recovery is exercised against partial
    state, not idle workers.
    """
    machine, spec, options, block_timeout, verify, cache = context
    params_chunk, budget = args
    fault_at = len(params_chunk) // 2
    records: List[BlockRecord] = []
    try:
        for k, params in enumerate(params_chunk):
            if k == fault_at:
                job.inject()
            gb = generate_from_params(params, spec)
            records.append(
                schedule_generated_block(
                    params.index,
                    gb,
                    machine,
                    options,
                    job.telemetry,
                    block_timeout,
                    verify,
                    budget=budget,
                    cache=cache,
                )
            )
            job.progress()
    except VerificationError as exc:
        raise JobAborted(str(exc)) from None
    if job.fault == "corrupt":
        records = _corrupt_records(records)
    return records


def run_population_parallel(
    n_blocks: int,
    curtail: int = DEFAULT_CURTAIL,
    master_seed: int = 1990,
    machine: Optional[MachineDescription] = None,
    spec: PopulationSpec = PopulationSpec(),
    options: Optional[SearchOptions] = None,
    workers: Optional[int] = None,
    block_timeout: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    verify: bool = False,
    done: Optional[Mapping[int, BlockRecord]] = None,
    on_records: Optional[Callable[[Sequence[BlockRecord]], None]] = None,
    budget: Optional[BudgetManager] = None,
    supervisor: Optional[SupervisorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    cache=None,
) -> List[BlockRecord]:
    """Schedule ``n_blocks`` synthetic blocks across supervised workers.

    Drop-in parallel equivalent of :func:`run_population`: same
    parameters plus ``workers`` (default: ``REPRO_WORKERS`` or the CPU
    count) and the same record list, in block-index order.  Serial
    fallback when ``workers=1`` or worker processes cannot be started.
    With ``verify=True`` each worker certifies every published schedule
    through the independent checker; a certificate failure raises
    :class:`repro.experiments.runner.VerificationError` in the parent.

    Resilience (all optional; see :func:`repro.experiments.runner.run_population`
    for ``done``/``budget`` semantics):

    * ``done`` — journal-recovered records whose blocks are skipped.
    * ``on_records`` — called with each chunk of freshly scheduled
      records as it is accepted (including poison-quarantine seeds);
      the CLI points this at the checkpoint journal.
    * ``budget`` — run budgets: the armed wall-clock deadline crosses
      into workers (``time.monotonic`` is system-wide), so blocks past
      the deadline degrade inside workers exactly as they would
      serially; the run-level Ω cap is enforced by the parent at chunk
      granularity (workers cannot see each other's spend).
    * ``supervisor`` — heartbeat/retry/poison policy knobs.
    * ``fault_plan`` — deterministic fault injection for chaos tests.
    * ``cache`` — a :class:`repro.service.cache.ScheduleCache`; each
      worker re-opens the same disk store (the pickle form carries only
      the store path), so canonical forms solved by any worker — or any
      earlier run — are served instead of re-searched.
    """
    if workers is None:
        workers = default_workers()
    if machine is None:
        machine = paper_simulation_machine()
    if options is None:
        options = SearchOptions(curtail=curtail)
    if options.engine in ("vector", "native"):
        from ..sched.core import resolve_engine

        # Normalize in the parent rather than letting every worker
        # substitute the engine (the removed "vector" name, or "native"
        # without a C compiler) on its own: one warning line per run,
        # byte-identical records, never a crash.
        resolved = resolve_engine(options.engine, telemetry=telemetry)
        if resolved != options.engine:
            options = dataclasses.replace(options, engine=resolved)
    if supervisor is None:
        supervisor = SupervisorConfig()
    if budget is not None:
        budget.start()

    def serial() -> List[BlockRecord]:
        return run_population(
            n_blocks,
            curtail,
            master_seed,
            machine,
            spec,
            options,
            telemetry,
            block_timeout,
            verify,
            done=done,
            on_record=(
                None if on_records is None else (lambda r: on_records([r]))
            ),
            budget=budget,
            cache=cache,
        )

    if workers <= 1 or n_blocks <= 1:
        return serial()

    all_params = list(sample_population_params(n_blocks, master_seed, spec))
    if done:
        params = [p for p in all_params if p.index not in done]
    else:
        params = all_params
    skipped = n_blocks - len(params)

    records: List[BlockRecord] = [done[p.index] for p in all_params if done and p.index in done]

    if params:
        n_chunks = min(len(params), workers * CHUNKS_PER_WORKER)
        # Round-robin striping: block cost is size-skewed and sizes drift
        # along the stream, so contiguous spans would load-balance poorly.
        chunks = [params[i::n_chunks] for i in range(n_chunks)]
        pool = WorkerPool(
            min(workers, n_chunks),
            _run_chunk,
            context=(machine, spec, options, block_timeout, verify, cache),
            config=supervisor,
            fault_plan=fault_plan,
            queue_limit=n_chunks,
        )
        # The dispatcher thread counts pool events into ``telemetry``
        # while this thread publishes seeds: one lock guards both.
        lock = threading.Lock()
        if telemetry is not None:
            pool.attach_telemetry(telemetry, lock)
        try:
            pool.start()
        except (OSError, RuntimeError):
            # Worker processes cannot be stood up (restricted sandbox,
            # missing /dev/shm, fork limits): the records are
            # deterministic, so redoing the run serially is always safe.
            if telemetry is not None:
                telemetry.count("parallel.fallbacks")
            return serial()
        try:
            records.extend(
                _run_chunks(
                    pool, chunks, machine, spec, telemetry, lock, on_records, budget
                )
            )
        finally:
            pool.stop(drain_timeout=0.0)
        if telemetry is not None:
            telemetry.count("parallel.runs")
            telemetry.count("parallel.workers", workers)
            telemetry.count("parallel.chunks", len(chunks))

    records.sort(key=lambda r: r.index)
    assert len(records) == n_blocks and all(
        r.index == i for i, r in enumerate(records)
    ), "parallel merge lost or duplicated block records"
    if telemetry is not None:
        telemetry.count("blocks.scheduled", n_blocks - skipped)
        if skipped:
            telemetry.count("resilience.journal_blocks_skipped", skipped)
    return records


def _run_chunks(
    pool: WorkerPool,
    chunks: List[List[BlockParams]],
    machine: MachineDescription,
    spec: PopulationSpec,
    telemetry: Optional[Telemetry],
    lock: threading.Lock,
    on_records: Optional[Callable[[Sequence[BlockRecord]], None]],
    budget: Optional[BudgetManager],
) -> List[BlockRecord]:
    """Run ``chunks`` as jobs of a started ``pool``; return their records.

    Chunks are submitted in chunk order, so job seq == chunk id and a
    :class:`FaultPlan` replays exactly, and at most ``pool.size`` at a
    time, so the parent checks the run budget before every dispatch.
    Chunks are accepted — or, once the pool degrades them, quarantined to
    their deterministic list seeds — in completion order.  Raises
    :class:`VerificationError` when a worker's certificate check fails.
    """
    records: List[BlockRecord] = []

    def publish(batch: List[BlockRecord]) -> None:
        records.extend(batch)
        if on_records is not None:
            on_records(batch)

    def seeds(cid: int, counter: str) -> List[BlockRecord]:
        # Count locally, merge under the lock: the dispatcher thread is
        # never kept waiting while seeds are built.
        local = Telemetry()
        batch = [
            list_seed_record(p.index, generate_from_params(p, spec), machine, local)
            for p in chunks[cid]
        ]
        local.count(counter, len(batch))
        if telemetry is not None:
            with lock:
                telemetry.merge(local)
        return batch

    in_flight: Dict[PoolJob, int] = {}
    next_cid = 0
    while next_cid < len(chunks) or in_flight:
        if budget is not None and budget.run_exhausted() is not None:
            # Run budget gone: every chunk not yet dispatched degrades to
            # list seeds.  In-flight chunks finish under their own
            # (worker-side) deadline checks.
            for cid in range(next_cid, len(chunks)):
                publish(seeds(cid, "resilience.run_budget_exhausted"))
            next_cid = len(chunks)
        while next_cid < len(chunks) and len(in_flight) < pool.size:
            chunk = chunks[next_cid]
            job = PoolJob(
                (chunk, budget),
                validate=functools.partial(
                    validate_records, expected_indexes=[p.index for p in chunk]
                ),
            )
            pool.submit([job])
            in_flight[job] = next_cid
            next_cid += 1
        if not in_flight:
            break
        job = next(pool.as_completed(in_flight))
        cid = in_flight.pop(job)
        if job.aborted:
            raise VerificationError(job.failure)
        if job.failure is None:
            if budget is not None:
                budget.charge(sum(r.omega_calls for r in job.result))
            publish(job.result)
        else:
            # Poisoned chunk: publish deterministic list seeds, keep going.
            publish(seeds(cid, "resilience.poison_blocks"))
    return records
