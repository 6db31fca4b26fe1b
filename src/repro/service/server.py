"""The batch scheduling daemon — ``repro serve``.

A long-lived front-end process that accepts batches of basic blocks plus
a machine description over HTTP (localhost TCP or a unix-domain socket)
and answers with schedules plus per-entry provenance.  The front-end
owns the listening socket and never searches: scheduling runs either
inline (``pool=None`` — tests, ``--workers 0``) or, in production mode,
on a supervised pre-fork worker pool (:mod:`repro.resilience.pool`) so a
native-engine segfault, a hung solve, or an OOM kill costs one worker
process — the request is retried on a fresh worker and, past the retry
cap, degraded to the block's deterministic list-schedule seed with
explicit provenance.  Never a silent 500.

Wire protocol (versioned ``repro-service/2``; see docs/file-formats.md —
``repro-service/1`` requests are still accepted, replies are always /2):

``POST /v1/schedule``::

    {
      "schema": "repro-service/2",
      "machine": "paper-simulation" | {machine_to_dict payload},
      "blocks": [{"name": "dot", "tuples": "1: Load #a\\n..."}, ...],
      "options": {"curtail": 50000, "engine": "fast", "max_live": null},
      "deadline": 2.5
    }

answers ``200`` with one entry per block (same order)::

    {
      "schema": "repro-service/2",
      "machine": "paper-simulation",
      "entries": [
        {"index": 0, "name": "dot", "order": [...], "etas": [...],
         "issue_times": [...], "total_nops": 2, "seed_nops": 4,
         "omega_calls": 37, "completed": true, "degraded": false,
         "ladder": "optimal-search", "cache": "hit",
         "shed": false, "worker_retries": 0},
        ...
      ],
      "stats": {"hits": 1, "misses": 0, "bypass": 0,
                "degraded": 0, "shed": 0}
    }

Error answers are always structured JSON: ``400`` for malformed
requests, ``413`` for oversized bodies, ``429`` + ``Retry-After`` when
admission control sheds the request (bounded queue full), ``503`` while
draining.  ``GET /v1/health/live`` is pure liveness; ``/v1/health/ready``
answers ``200``/``503`` from the readiness checks (workers alive, cache
store writable, engine probe, not draining); ``GET /v1/health`` reports
both plus the ``service.*`` counters.

Per-request ``deadline`` (seconds, optional) runs the batch under its
own :class:`repro.resilience.budget.BudgetManager`: each block's
``time_limit`` is clamped to the remaining request wall-clock and blocks
past the deadline publish their list seeds with ``shed: true`` instead
of searching.  Deadline-limited results bypass the cache (the outcome is
not a pure function of the problem).

Batches are deduplicated *through* the cache: the first occurrence of a
canonical form is scheduled and stored, every later occurrence — in the
same batch, a later batch, or a population run sharing the same disk
store — is a hit.  In pool mode only workers write through the
certificate-verified :class:`repro.service.cache.ScheduleCache`, so the
shared store stays consistent no matter which worker dies when.
"""

from __future__ import annotations

import functools
import json
import math
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..experiments.runner import ladder_schedule
from ..ir.dag import DependenceDAG
from ..ir.textual import TupleSyntaxError, parse_block
from ..machine.machine import MachineDescription, MachineValidationError
from ..machine.presets import get_machine
from ..machine.serialize import machine_from_dict
from ..resilience.budget import STEP_LIST_SEED, BudgetManager
from ..resilience.pool import JobHandle, PoolJob, PoolSaturated, WorkerPool
from ..resilience.supervisor import validate_entry
from ..sched.core import resolve_engine
from ..sched.list_scheduler import list_schedule
from ..sched.nop_insertion import compute_timing
from ..sched.search import SearchOptions
from ..telemetry import Telemetry
from .cache import BYPASS, HIT, MISS, ScheduleCache
from .fingerprint import fingerprint_problem

__all__ = [
    "SCHEMA",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceDrainingError",
    "SchedulingService",
    "execute_block",
    "execute_job",
    "seed_entry",
    "create_server",
]

#: Version tag of the request/response payloads.
SCHEMA = "repro-service/2"

#: The PR 5 request schema — still accepted, answered in /2 form.
LEGACY_SCHEMA = "repro-service/1"

#: ``options`` keys a request may override.  Everything else is pinned
#: by the server's configuration — clients tune the *problem*, not the
#: daemon's resource policy.
_REQUEST_OPTIONS = ("curtail", "engine", "max_live")

#: Request size cap (16 MiB): a stray client cannot OOM the daemon.
MAX_BODY_BYTES = 16 * 1024 * 1024


class ServiceError(ValueError):
    """A malformed request (answered with HTTP 400)."""


class ServiceOverloadError(RuntimeError):
    """Admission control shed the request (answered with HTTP 429)."""

    def __init__(self, retry_after: float, queued: int):
        super().__init__(
            f"service overloaded ({queued} requests queued); "
            f"retry after {retry_after:g}s"
        )
        self.retry_after = retry_after
        self.queued = queued


class ServiceDrainingError(RuntimeError):
    """The daemon is draining for shutdown (answered with HTTP 503)."""

    def __init__(self) -> None:
        super().__init__("service is draining; not accepting new work")


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
) -> Dict[str, Any]:
    """Schedule one block and build its wire entry (sans ``index``).

    The single per-block step shared by the inline path and the pool
    workers — what makes a pooled reply bit-identical to an inline one.
    ``budget`` (when given) clamps the block's options to the remaining
    request/run budget, enables the split-windows fallback, and is
    charged for the Ω spent; once exhausted, blocks publish shed seed
    entries without searching.
    """
    if budget is not None:
        if budget.run_exhausted() is not None:
            telemetry.count("resilience.run_budget_exhausted")
            return seed_entry(name, dag, machine, telemetry, shed=True)
        options = budget.options_for_block(options)
    out = ladder_schedule(
        dag, machine, options, telemetry=telemetry, budget=budget, cache=cache
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
    cache: Optional[ScheduleCache], args, job: JobHandle
) -> Dict[str, Any]:
    """The daemon's pool job function: :func:`execute_block` in a worker.

    ``cache`` is the pool context; ``args`` is ``(name, tuples,
    machine_spec, options, budget)``.  The block is parsed in the worker,
    then a scheduled crash or hang triggers "mid-request" — the job is
    owned by this worker, so recovery must requeue it, not lose it — and
    a scheduled ``corrupt`` fault mangles the reply so the parent's
    :func:`validate_entry` must catch it.
    """
    name, tuples, machine_spec, options, budget = args
    machine = (
        get_machine(machine_spec)
        if isinstance(machine_spec, str)
        else machine_from_dict(machine_spec)
    )
    dag = DependenceDAG(parse_block(tuples, name=name))
    job.inject()
    entry = execute_block(
        name, dag, machine, options, job.telemetry, cache=cache, budget=budget
    )
    if job.fault == "corrupt":
        entry = dict(entry, total_nops=entry["seed_nops"] + 7)
    return entry


class SchedulingService:
    """The protocol logic, separated from HTTP plumbing for testing.

    ``pool=None`` schedules inline under one lock (the PR 5 behaviour —
    tests and ``--workers 0``); with a started
    :class:`repro.resilience.pool.WorkerPool` running :func:`execute_job`
    the service becomes a pure front-end: it validates, deduplicates,
    submits jobs, and assembles replies, while workers own the searches
    and the cache writes.
    """

    def __init__(
        self,
        cache: Optional[ScheduleCache] = None,
        options: SearchOptions = SearchOptions(),
        budget: Optional[BudgetManager] = None,
        block_timeout: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
        pool: Optional[WorkerPool] = None,
        queue_limit: int = 32,
    ) -> None:
        self.cache = cache
        self.options = options
        self.budget = budget
        self.block_timeout = block_timeout
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.pool = pool
        self.queue_limit = queue_limit
        # One lock guards the mutable singletons (Telemetry, the daemon
        # BudgetManager) and, in inline mode, serializes the CPU-bound
        # searches — threads exist to keep health checks responsive.
        # The pool's dispatcher merges worker telemetry under the same
        # lock (attach_telemetry below).
        self._lock = threading.Lock()
        self._state = threading.Condition()
        self._pending = 0
        self._draining = False
        if budget is not None:
            budget.start()
        if pool is not None:
            pool.attach_telemetry(self.telemetry, self._lock)

    # -- admission control ---------------------------------------------
    def _admit(self) -> None:
        with self._state:
            if self._draining:
                raise ServiceDrainingError()
            if self._pending >= self.queue_limit:
                per_worker = self.pool.size if self.pool is not None else 1
                retry_after = max(1.0, math.ceil(self._pending / per_worker))
                self._count("service.shed_requests")
                raise ServiceOverloadError(retry_after, self._pending)
            self._pending += 1

    def _release(self) -> None:
        with self._state:
            self._pending -= 1
            self._state.notify_all()

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.telemetry.count(name, n)

    # -- request handling ----------------------------------------------
    def _resolve_machine(self, spec: Any) -> MachineDescription:
        if isinstance(spec, str):
            try:
                machine = get_machine(spec)
            except KeyError as exc:
                raise ServiceError(str(exc.args[0])) from None
        elif isinstance(spec, dict):
            try:
                machine = machine_from_dict(spec)
            except (MachineValidationError, ValueError) as exc:
                raise ServiceError(f"bad machine payload: {exc}") from None
        else:
            raise ServiceError(
                "machine must be a preset name or a machine description object"
            )
        if not machine.is_deterministic:
            raise ServiceError(
                f"machine {machine.name!r} is not deterministic; the "
                "service schedules single-pipeline-per-op machines only"
            )
        return machine

    def _resolve_options(self, overrides: Any) -> SearchOptions:
        if overrides is None:
            return self.options
        if not isinstance(overrides, dict):
            raise ServiceError("options must be an object")
        unknown = sorted(set(overrides) - set(_REQUEST_OPTIONS))
        if unknown:
            raise ServiceError(
                f"unknown options: {', '.join(unknown)} "
                f"(requests may set {', '.join(_REQUEST_OPTIONS)})"
            )
        import dataclasses

        try:
            return dataclasses.replace(self.options, **overrides)
        except (ValueError, TypeError) as exc:
            raise ServiceError(f"bad options: {exc}") from None

    def _resolve_deadline(self, deadline: Any) -> Optional[BudgetManager]:
        if deadline is None:
            return None
        if (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not math.isfinite(deadline)
            or deadline <= 0
        ):
            raise ServiceError("deadline must be a positive number of seconds")
        return BudgetManager(run_wall_clock=float(deadline)).start()

    def _parse_blocks(self, specs: Any) -> List[Tuple[str, str, Any]]:
        if not isinstance(specs, list) or not specs:
            raise ServiceError("blocks must be a non-empty list")
        out = []
        for i, spec in enumerate(specs):
            if not isinstance(spec, dict) or "tuples" not in spec:
                raise ServiceError(f"blocks[{i}] must be an object with 'tuples'")
            name = spec.get("name") or f"block{i}"
            text = str(spec["tuples"])
            try:
                block = parse_block(text, name=str(name))
            except TupleSyntaxError as exc:
                raise ServiceError(f"blocks[{i}] ({name}): {exc}") from None
            out.append((str(name), text, block))
        return out

    def schedule_batch(self, payload: Any) -> Dict[str, Any]:
        """Handle one ``POST /v1/schedule`` body (already JSON-decoded)."""
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        if payload.get("schema") not in (SCHEMA, LEGACY_SCHEMA):
            raise ServiceError(
                f"unsupported schema {payload.get('schema')!r} (want {SCHEMA!r})"
            )
        machine_spec = payload.get("machine")
        machine = self._resolve_machine(machine_spec)
        options = self._resolve_options(payload.get("options"))
        req_budget = self._resolve_deadline(payload.get("deadline"))
        blocks = self._parse_blocks(payload.get("blocks"))
        if self.block_timeout is not None:
            import dataclasses

            options = dataclasses.replace(options, time_limit=self.block_timeout)

        self._admit()
        try:
            if self.pool is not None:
                entries = self._schedule_pooled(
                    machine_spec, machine, options, blocks, req_budget
                )
            else:
                entries = self._schedule_inline(
                    machine, options, blocks, req_budget
                )
        finally:
            self._release()

        stats = {"hits": 0, "misses": 0, "bypass": 0, "degraded": 0, "shed": 0}
        for index, entry in enumerate(entries):
            entry["index"] = index
            stats[{HIT: "hits", MISS: "misses", BYPASS: "bypass"}[entry["cache"]]] += 1
            if entry["degraded"]:
                stats["degraded"] += 1
            if entry["shed"]:
                stats["shed"] += 1
        with self._lock:
            self.telemetry.count("service.requests")
            self.telemetry.count("service.blocks", len(blocks))
        return {
            "schema": SCHEMA,
            "machine": machine.name,
            "entries": entries,
            "stats": stats,
        }

    def _schedule_inline(
        self,
        machine: MachineDescription,
        options: SearchOptions,
        blocks: List[Tuple[str, str, Any]],
        req_budget: Optional[BudgetManager],
    ) -> List[Dict[str, Any]]:
        entries: List[Dict[str, Any]] = []
        with self._lock:
            for name, _text, block in blocks:
                dag = DependenceDAG(block)
                if (
                    self.budget is not None
                    and self.budget.run_exhausted() is not None
                ):
                    self.telemetry.count("resilience.run_budget_exhausted")
                    entries.append(
                        seed_entry(name, dag, machine, self.telemetry, shed=True)
                    )
                    continue
                if req_budget is not None:
                    block_options = (
                        self.budget.options_for_block(options)
                        if self.budget is not None
                        else options
                    )
                    entry = execute_block(
                        name,
                        dag,
                        machine,
                        block_options,
                        self.telemetry,
                        cache=self.cache,
                        budget=req_budget,
                    )
                    if self.budget is not None:
                        self.budget.charge(entry["omega_calls"])
                else:
                    entry = execute_block(
                        name,
                        dag,
                        machine,
                        options,
                        self.telemetry,
                        cache=self.cache,
                        budget=self.budget,
                    )
                entries.append(entry)
        return entries

    def _schedule_pooled(
        self,
        machine_spec: Any,
        machine: MachineDescription,
        options: SearchOptions,
        blocks: List[Tuple[str, str, Any]],
        req_budget: Optional[BudgetManager],
    ) -> List[Dict[str, Any]]:
        # slots[i] resolves blocks[i]: ("entry", dict) is already final,
        # ("job", PoolJob, name, dag) awaits a worker, ("dup", j) copies
        # the first occurrence of the same canonical form in this batch.
        slots: List[Tuple[Any, ...]] = []
        jobs: List[PoolJob] = []
        dedup: Dict[str, int] = {}
        for name, text, block in blocks:
            dag = DependenceDAG(block)
            if (
                self.budget is not None
                and self.budget.run_exhausted() is not None
            ):
                with self._lock:
                    self.telemetry.count("resilience.run_budget_exhausted")
                    entry = seed_entry(name, dag, machine, self.telemetry, shed=True)
                slots.append(("entry", entry))
                continue
            with self._lock:
                block_options = (
                    self.budget.options_for_block(options)
                    if self.budget is not None
                    else options
                )
            key: Optional[str] = None
            if (
                self.cache is not None
                and req_budget is None
                and block_options.time_limit is None
            ):
                try:
                    key = fingerprint_problem(dag, machine, block_options).key
                except Exception:  # noqa: BLE001 - dedup is best-effort
                    key = None
            if key is not None and key in dedup:
                slots.append(("dup", dedup[key]))
                continue
            job = PoolJob(
                (name, text, machine_spec, block_options, req_budget),
                validate=functools.partial(
                    validate_entry, expected_name=name, expected_idents=dag.idents
                ),
                grace=block_options.time_limit or 0.0,
            )
            if key is not None:
                dedup[key] = len(slots)
            slots.append(("job", job, name, dag))
            jobs.append(job)

        try:
            self.pool.submit(jobs)
        except PoolSaturated as exc:
            self._count("service.shed_requests")
            raise ServiceOverloadError(
                exc.retry_after, self.pool.queued_jobs()
            ) from None
        for _ in self.pool.as_completed(jobs):
            pass

        entries: List[Dict[str, Any]] = []
        omega_spent = 0
        for slot in slots:
            if slot[0] == "entry":
                entries.append(slot[1])
                continue
            if slot[0] == "dup":
                first = dict(entries[slot[1]])
                if first["cache"] == MISS and not first["degraded"]:
                    # The first occurrence solved and stored this form;
                    # a fresh lookup would now hit.
                    first["cache"] = HIT
                first["worker_retries"] = 0
                entries.append(first)
                continue
            _, job, name, dag = slot
            if job.failure is None:
                entry = dict(job.result)
                entry["worker_retries"] = job.attempts
                omega_spent += entry["omega_calls"]
            else:
                # Retries exhausted (or drain deadline): honest bottom
                # rung, with the failure trail in worker_retries.
                with self._lock:
                    self.telemetry.count("service.pool.degraded_entries")
                    entry = seed_entry(name, dag, machine, self.telemetry)
                entry["worker_retries"] = job.attempts
            entries.append(entry)
        if self.budget is not None and omega_spent:
            with self._lock:
                self.budget.charge(omega_spent)
        return entries

    # -- health & lifecycle --------------------------------------------
    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """Readiness checks: can this daemon *usefully* serve right now?"""
        checks = {
            "accepting": not self._draining,
            "workers": self.pool is None or self.pool.alive_workers() > 0,
            "store": self._store_writable(),
            "engine": resolve_engine(self.options.engine) == self.options.engine,
        }
        ready = all(checks.values())
        return ready, {"schema": SCHEMA, "ok": ready, "checks": checks}

    def _store_writable(self) -> bool:
        if self.cache is None or self.cache.path is None:
            return True
        probe = os.path.join(self.cache.path, ".ready-probe")
        try:
            os.makedirs(self.cache.path, exist_ok=True)
            with open(probe, "w", encoding="utf-8") as fh:
                fh.write("ok")
            os.unlink(probe)
            return True
        except OSError:
            return False

    def liveness(self) -> Dict[str, Any]:
        return {"schema": SCHEMA, "ok": True}

    def health(self) -> Dict[str, Any]:
        ready, readiness = self.readiness()
        with self._lock:
            counters = {
                name: n
                for name, n in sorted(self.telemetry.counters.items())
                if name.startswith("service.")
            }
        return {
            "schema": SCHEMA,
            "ok": True,
            "ready": ready,
            "checks": readiness["checks"],
            "cache": self.cache is not None,
            "store": None if self.cache is None else self.cache.path,
            "workers": 0 if self.pool is None else self.pool.alive_workers(),
            "pending": self._pending,
            "counters": counters,
        }

    def begin_drain(self) -> None:
        """Stop admitting requests (new work answers 503)."""
        with self._state:
            self._draining = True

    def drain(self, timeout: float = 20.0) -> int:
        """Graceful shutdown: resolve in-flight work, stop the pool.

        Waits up to ``timeout`` seconds for pending requests to finish
        (supervision stays live, so worker crashes still fail over
        during the drain), then force-degrades whatever remains so every
        in-flight client gets an answer.  Returns the number of
        force-degraded jobs.
        """
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout)
        with self._state:
            while self._pending and time.monotonic() < deadline:
                self._state.wait(timeout=min(0.1, max(0.0, deadline - time.monotonic())))
        forced = 0
        if self.pool is not None:
            forced = self.pool.stop(
                drain_timeout=max(0.0, deadline - time.monotonic())
            )
            # Force-degraded jobs unblock their requests; give them a
            # moment to assemble replies so telemetry is complete.
            with self._state:
                while self._pending and time.monotonic() < deadline + 5.0:
                    self._state.wait(timeout=0.1)
        return forced


class _BodyError(Exception):
    """A request body problem with a definite HTTP status."""

    def __init__(self, code: int, message: str, close: bool = False):
        super().__init__(message)
        self.code = code
        self.close = close


class _Handler(BaseHTTPRequestHandler):
    """HTTP plumbing around a :class:`SchedulingService`.

    Every failure mode a client can provoke — bad framing, oversized or
    truncated bodies, disconnects mid-request — answers structured JSON
    (or silently drops a connection that is already gone).  The daemon
    log never sees a traceback for client behaviour.
    """

    server_version = "repro-serve/2"
    protocol_version = "HTTP/1.1"
    service: SchedulingService  # set by create_server
    quiet = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def address_string(self) -> str:
        # client_address is '' over AF_UNIX sockets.
        host = self.client_address[0] if self.client_address else "unix"
        return str(host) or "unix"

    def _reply(
        self,
        code: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if close:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, socket.timeout, OSError):
            # The client is gone; nothing to answer and nothing to log
            # beyond the counter.
            self.service._count("service.http.disconnects")
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802
        if self.path in ("/v1/health", "/health"):
            self._reply(200, self.service.health())
        elif self.path == "/v1/health/live":
            self._reply(200, self.service.liveness())
        elif self.path == "/v1/health/ready":
            ready, payload = self.service.readiness()
            self._reply(200 if ready else 503, payload)
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def _read_body(self) -> bytes:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise _BodyError(400, "missing Content-Length header", close=True)
        try:
            length = int(raw_length)
        except ValueError:
            raise _BodyError(
                400, f"invalid Content-Length {raw_length!r}", close=True
            ) from None
        if length < 0:
            raise _BodyError(
                400, f"invalid Content-Length {raw_length!r}", close=True
            )
        if length > MAX_BODY_BYTES:
            # Answer without reading the body — the connection must
            # close, or the unread bytes would be parsed as a request.
            raise _BodyError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                close=True,
            )
        chunks: List[bytes] = []
        remaining = length
        try:
            while remaining:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    raise _BodyError(
                        400,
                        f"client disconnected mid-body "
                        f"({length - remaining}/{length} bytes received)",
                        close=True,
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
        except (socket.timeout, ConnectionError, OSError) as exc:
            raise _BodyError(
                400, f"failed reading request body: {exc}", close=True
            ) from None
        return b"".join(chunks)

    def do_POST(self) -> None:  # noqa: N802
        if self.path not in ("/v1/schedule", "/schedule"):
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            body = self._read_body()
        except _BodyError as exc:
            self.service._count("service.http.bad_bodies")
            self._reply(exc.code, {"error": str(exc)}, close=exc.close)
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"bad JSON body: {exc}"})
            return
        try:
            self._reply(200, self.service.schedule_batch(payload))
        except ServiceError as exc:
            self._reply(400, {"error": str(exc)})
        except ServiceOverloadError as exc:
            self._reply(
                429,
                {
                    "error": str(exc),
                    "shed": True,
                    "retry_after": exc.retry_after,
                },
                headers={"Retry-After": str(int(math.ceil(exc.retry_after)))},
            )
        except ServiceDrainingError as exc:
            self._reply(503, {"error": str(exc), "draining": True})
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, {"error": f"internal error: {exc}"})


class _UnixHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a unix-domain socket."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        # HTTPServer.server_bind unpacks server_address as (host, port);
        # over AF_UNIX it is a path string, so bind at the socketserver
        # layer and fill the name fields in by hand.
        try:
            os.unlink(self.server_address)  # type: ignore[arg-type]
        except OSError:
            pass
        import socketserver

        socketserver.TCPServer.server_bind(self)
        self.server_name = str(self.server_address)
        self.server_port = 0


def create_server(
    service: SchedulingService,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
) -> Tuple[ThreadingHTTPServer, str]:
    """Bind the daemon and return ``(server, url)``.

    ``port=0`` binds an ephemeral TCP port; ``unix_path`` switches to a
    unix-domain socket (the returned URL is ``unix://<path>``).  Call
    ``server.serve_forever()`` (or drive it from a thread in tests).
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    if unix_path is not None:
        server = _UnixHTTPServer(unix_path, handler)
        return server, f"unix://{unix_path}"
    server = ThreadingHTTPServer((host, port), handler)
    bound_host, bound_port = server.server_address[:2]
    return server, f"http://{bound_host}:{bound_port}"
