"""The daemon's per-block step, shared by its front end and its workers.

:func:`execute_block` builds one ``repro-service/2`` wire entry — the
single code path behind an inline reply, a pooled worker's reply and a
cache hit the front end serves itself, which is what makes the three
bit-identical.  :func:`execute_job` is the worker pool's job function
and :func:`seed_entry` the bottom rung every path degrades to.

``repro serve`` forks its workers before it loads the HTTP front end
(:mod:`repro.service.server`), so this module imports no ``http``,
``email``, ``ssl`` or ``socketserver``: a worker carries only what a
search needs (``tests/test_import_budget.py`` pins it).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..experiments.runner import ladder_schedule
from ..ir.dag import DependenceDAG
from ..ir.textual import parse_block
from ..machine.machine import MachineDescription
from ..machine.presets import get_machine
from ..machine.serialize import machine_from_dict
from ..resilience.budget import BudgetManager
from ..resilience.ladder import STEP_LIST_SEED
from ..resilience.pool import JobHandle
from ..sched.list_scheduler import list_schedule
from ..sched.nop_insertion import compute_timing
from ..sched.search import SearchOptions, SearchResult
from ..telemetry import Telemetry
from .cache import BYPASS, ScheduleCache, StoreOnlyCache

__all__ = ["execute_block", "execute_job", "seed_entry"]


def seed_entry(
    name: str,
    dag: DependenceDAG,
    machine: MachineDescription,
    telemetry: Telemetry,
    shed: bool = False,
) -> Dict[str, Any]:
    """The bottom-rung wire entry: the deterministic list-schedule seed.

    Published when searching is off the table — the run budget is spent
    before the block starts (``shed=True``), or the block burned through
    its worker retries / the drain deadline (``shed=False``).  Honest by
    construction: ``omega_calls=0``, ``degraded=True``.
    """
    timing = compute_timing(dag, list_schedule(dag), machine)
    telemetry.count(f"resilience.ladder.{STEP_LIST_SEED}")
    return {
        "name": name,
        "order": list(timing.order),
        "etas": list(timing.etas),
        "issue_times": list(timing.issue_times),
        "total_nops": timing.total_nops,
        "seed_nops": timing.total_nops,
        "omega_calls": 0,
        "completed": False,
        "degraded": True,
        "ladder": STEP_LIST_SEED,
        "cache": BYPASS,
        "shed": shed,
        "worker_retries": 0,
    }


def execute_block(
    name: str,
    dag: DependenceDAG,
    machine: MachineDescription,
    options: SearchOptions,
    telemetry: Telemetry,
    cache: Optional[ScheduleCache] = None,
    budget: Optional[BudgetManager] = None,
    hit: Optional[SearchResult] = None,
) -> Dict[str, Any]:
    """Schedule one block and build its wire entry (sans ``index``).

    ``budget`` (when given) clamps the block's options to the remaining
    request/run budget, enables the split-windows fallback, and is
    charged for the Ω spent; once exhausted, blocks publish shed seed
    entries without searching.  ``hit`` is a result the caller already
    read from its cache (:meth:`ScheduleCache.lookup`), published as a
    hit without searching.
    """
    if budget is not None:
        if budget.run_exhausted() is not None:
            telemetry.count("resilience.run_budget_exhausted")
            return seed_entry(name, dag, machine, telemetry, shed=True)
        options = budget.options_for_block(options)
    out = ladder_schedule(
        dag, machine, options, telemetry=telemetry, budget=budget, cache=cache,
        hit=hit,
    )
    if budget is not None:
        budget.charge(out.omega_calls)
    telemetry.count(f"resilience.ladder.{out.ladder}")
    status = out.cache_status if out.cache_status is not None else BYPASS
    if out.cache_status is None:
        telemetry.count("service.cache.bypass")
    return {
        "name": name,
        "order": list(out.timing.order),
        "etas": list(out.timing.etas),
        "issue_times": list(out.timing.issue_times),
        "total_nops": out.final_nops,
        "seed_nops": out.result.initial_nops,
        "omega_calls": out.omega_calls,
        "completed": out.result.completed and not out.degraded,
        "degraded": out.degraded,
        "ladder": out.ladder,
        "cache": status,
        "shed": False,
        "worker_retries": 0,
    }


def execute_job(
    cache: Optional[StoreOnlyCache], args, job: JobHandle
) -> Dict[str, Any]:
    """The daemon's pool job function: :func:`execute_block` in a worker.

    ``cache`` is the pool context; ``args`` is ``(name, tuples,
    machine_spec, options, budget)``.  The block is parsed in the worker,
    then a scheduled crash or hang triggers "mid-request" — the job is
    owned by this worker, so recovery must requeue it, not lose it — and
    a scheduled ``corrupt`` fault mangles the reply so the parent's
    :func:`repro.resilience.supervisor.validate_entry` must catch it.
    A store-less cache's new entry rides back under ``"stored"`` for
    the front end's memory tier (:class:`StoreOnlyCache`).
    """
    name, tuples, machine_spec, options, budget = args
    machine = (
        get_machine(machine_spec)
        if isinstance(machine_spec, str)
        else machine_from_dict(machine_spec)
    )
    dag = DependenceDAG(parse_block(tuples, name=name))
    job.inject()
    if cache is not None:
        cache.stored = None
    entry = execute_block(
        name, dag, machine, options, job.telemetry, cache=cache, budget=budget
    )
    if cache is not None and cache.stored is not None:
        entry["stored"] = cache.stored
    if job.fault == "corrupt":
        entry = dict(entry, total_nops=entry["seed_nops"] + 7)
    return entry
