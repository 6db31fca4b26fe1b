"""One supervised worker pool for population runs and the scheduling daemon.

A fixed fleet of worker processes, each behind a duplex pipe, runs jobs
of one module-level *job function*::

    def job_fn(context, args, job) -> result

``context`` is the per-pool state (a population run's machine, spec and
cache; the daemon's cache) handed to each worker once, when it is
spawned; ``args`` travel with every job; ``job`` is the worker-side
:class:`JobHandle` — the job's telemetry registry, its progress
heartbeat and its scheduled fault.  A dispatcher thread in the parent
owns every pipe and all supervision, under the
:class:`repro.resilience.supervisor.SupervisorConfig` policy:

* A worker that **dies** (segfault, OOM kill, injected crash) is seen
  as pipe EOF or a dead process; its job is retried on a fresh worker.
* A worker that **hangs** is killed when its job passes its deadline:
  ``hang_timeout`` (plus the job's own ``grace``) after dispatch or
  after the job's latest :meth:`JobHandle.progress` message.  A
  population chunk heartbeats per block, so only a stalled block trips
  it; a daemon job does not heartbeat, so its whole run is bounded.
* A reply that fails the job's parent-side ``validate`` callable
  (:func:`repro.resilience.supervisor.validate_records` /
  :func:`validate_entry`) is treated like a crash: the worker is
  recycled and the job retried.  Only a validated reply is ever
  published, so a fault can lose an attempt but never leak bad data.
* A failed attempt is retried with capped exponential backoff; past
  ``max_retries`` the job is **degraded** — resolved with a ``failure``
  and no result, and the caller publishes its deterministic seed.
* A job function that raises :class:`JobAborted` fails its job at once,
  without retries: the data is wrong, not the worker.
* A respawn that fails (fork ``EAGAIN``) never kills the dispatcher:
  the fleet is topped back up on later ticks, with backoff, and while no
  worker can run, ready jobs fail their attempts and degrade.

Fault injection: a :class:`repro.resilience.faults.FaultPlan` decides a
fault per ``(job sequence number, attempt)``; the job function triggers
crashes and hangs with :meth:`JobHandle.inject` wherever "mid-job"
means for it, and applies ``corrupt`` to its own reply.

Counters (one taxonomy for every caller): ``pool.crashes``,
``pool.hangs``, ``pool.corrupt_replies``, ``pool.worker_errors``,
``pool.retries``, ``pool.degraded``, ``pool.lost`` and
``pool.spawn_failures``.

This is the only module under :mod:`repro` that imports
:mod:`multiprocessing`.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from multiprocessing import Pipe, Process
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..telemetry import Telemetry
from .supervisor import SupervisorConfig

if TYPE_CHECKING:  # a pool without a fault plan never loads it
    from .faults import FaultPlan

__all__ = ["WorkerPool", "PoolJob", "PoolSaturated", "JobAborted", "JobHandle"]

#: How often :meth:`WorkerPool.as_completed` checks that the dispatcher
#: thread is still alive while it waits.
_LIVENESS_CHECK = 1.0


class PoolSaturated(RuntimeError):
    """Admission control refused a job (bounded queue is full)."""

    def __init__(self, queued: int, retry_after: float):
        super().__init__(f"worker pool queue is full ({queued} jobs waiting)")
        self.retry_after = retry_after


class JobAborted(Exception):
    """Raised by a job function to fail its job without any retry."""


class PoolJob:
    """One job's trip through the pool, owned by the caller.

    Resolved once :meth:`WorkerPool.as_completed` yields it: ``failure is
    None`` means ``result`` holds the validated reply; otherwise the job
    was degraded (retries exhausted, drained at shutdown, or lost) or —
    with ``aborted`` set — failed by :class:`JobAborted`.
    """

    __slots__ = (
        "seq",
        "args",
        "validate",
        "grace",
        "attempts",
        "eligible_at",
        "order",
        "result",
        "failure",
        "aborted",
    )

    def __init__(
        self,
        args: Any,
        validate: Optional[Callable[[Any], Optional[str]]] = None,
        grace: float = 0.0,
    ):
        self.seq = -1  # assigned by submit()
        self.args = args
        #: Parent-side check of a reply: why it is unacceptable, or None.
        self.validate = validate
        #: Extra hang patience on top of ``SupervisorConfig.hang_timeout``
        #: (a job's own wall-clock limit).
        self.grace = grace
        self.attempts = 0
        self.eligible_at = 0.0
        self.order = 0  # resolution rank within the pool; 0 = unresolved
        self.result: Any = None
        self.failure: Optional[str] = None
        self.aborted = False


class JobHandle:
    """A running job as its job function sees it, inside the worker."""

    __slots__ = ("seq", "attempt", "fault", "telemetry", "_conn", "_plan")

    def __init__(self, conn, seq: int, attempt: int, plan: Optional[FaultPlan]):
        self.seq = seq
        self.attempt = attempt
        #: The fault this attempt is scheduled to take (``None``,
        #: ``"crash"``, ``"hang"`` or ``"corrupt"``).
        self.fault = plan.decide(seq, attempt) if plan is not None else None
        #: Merged into the pool's registry when the reply is accepted.
        self.telemetry = Telemetry()
        self._conn = conn
        self._plan = plan

    def progress(self) -> None:
        """Heartbeat: push this job's hang deadline back."""
        self._conn.send(("progress", self.seq))

    def inject(self) -> None:
        """Take this attempt's scheduled crash or hang, if it has one."""
        if self._plan is not None:
            self._plan.inject(self.fault)


def _worker_main(conn, inherited, fn, context, plan: Optional[FaultPlan]) -> None:
    """Worker process: run jobs from ``conn`` until told to stop.

    ``inherited`` (the parent's pipe ends the fork copied) are closed
    first: while they are open, ``conn`` reads no EOF when the parent dies.

    Parent → worker: ``("job", seq, attempt, args)`` or ``("stop",)``.
    Worker → parent: ``("progress", seq)`` heartbeats, then exactly one
    of ``("done", seq, result, telemetry_dict)`` — the only message that
    carries a result — ``("err", seq, message)`` (retried; the worker is
    kept) or ``("abort", seq, message)`` (not retried).
    """
    # A worker forked after the daemon installed its SIGTERM drain
    # handler would inherit it and shrug off terminate() — reset to the
    # default so the supervisor can always kill us.  SIGINT is the
    # parent's to handle (a ^C must drain, not kill workers mid-write).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, seq, attempt, args = msg
        job = JobHandle(conn, seq, attempt, plan)
        try:
            result = fn(context, args, job)
            reply = ("done", seq, result, job.telemetry.as_dict())
        except JobAborted as exc:
            reply = ("abort", seq, str(exc))
        except Exception as exc:  # noqa: BLE001 - the parent retries
            reply = ("err", seq, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            break


class _Worker:
    """Parent-side handle of one pool process."""

    __slots__ = ("process", "conn", "job", "deadline")

    def __init__(self, process: Process, conn):
        self.process = process
        self.conn = conn
        self.job: Optional[PoolJob] = None
        self.deadline = 0.0


class WorkerPool:
    """A fixed fleet of supervised workers behind a bounded job queue.

    Callers :meth:`submit` :class:`PoolJob` batches and collect them with
    :meth:`as_completed`.  ``queue_limit`` bounds the *queued* (not yet
    running) jobs — admission control: a submit that would overflow
    raises :class:`PoolSaturated` so the daemon can shed load with a
    structured 429 instead of accepting unbounded work.
    """

    def __init__(
        self,
        size: int,
        fn: Callable[[Any, Any, JobHandle], Any],
        context: Any = None,
        config: Optional[SupervisorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        queue_limit: int = 256,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.size = size
        self.fn = fn
        self.context = context
        self.config = config if config is not None else SupervisorConfig()
        self.fault_plan = fault_plan
        self.queue_limit = queue_limit
        #: One-line observability callback (the daemon points it at stderr).
        self.on_event = on_event
        self.telemetry: Optional[Telemetry] = None
        self._tlock = threading.Lock()
        self._lock = threading.Lock()
        self._resolved = threading.Condition(self._lock)
        self._resolutions = 0
        self._queue: deque[PoolJob] = deque()
        self._workers: Dict[int, _Worker] = {}
        self._reaping: List[Process] = []
        self._next_wid = 0
        self._next_seq = 0
        self._spawn_failures = 0
        self._spawn_after = 0.0
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        # submit() and stop() poke the dispatcher through this pipe, so a
        # new job is dispatched at once instead of at the next poll tick.
        self._wake_r, self._wake_w = Pipe(duplex=False)
        self._woken = False

    def attach_telemetry(self, telemetry: Telemetry, lock: threading.Lock) -> None:
        """Count into a caller's registry, under the lock guarding it.

        The dispatcher thread counts ``pool.*`` events and merges the
        telemetry of accepted replies; sharing the caller's lock keeps
        those writes atomic with the caller's own counting.  Without a
        registry the pool counts nothing.
        """
        self.telemetry = telemetry
        self._tlock = lock

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the worker fleet and the dispatcher thread.

        Raises ``OSError``/``RuntimeError`` when worker processes cannot
        be stood up (restricted sandbox) — the caller falls back to
        in-process work.
        """
        with self._lock:
            try:
                for _ in range(self.size):
                    self._spawn_locked()
            except BaseException:
                self._stop_fleet_locked()
                raise
            self._thread = threading.Thread(
                target=self._loop, name="pool-dispatcher", daemon=True
            )
            self._thread.start()
        return self

    def _spawn_locked(self) -> None:
        parent_conn, child_conn = Pipe(duplex=True)
        ends = [parent_conn, self._wake_r, self._wake_w] + [w.conn for w in self._workers.values()]
        try:
            proc = Process(
                target=_worker_main,
                args=(child_conn, ends, self.fn, self.context, self.fault_plan),
                daemon=True,
            )
            proc.start()
        except BaseException:
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        self._workers[self._next_wid] = _Worker(proc, parent_conn)
        self._next_wid += 1

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.process.is_alive())

    def queued_jobs(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- submission ----------------------------------------------------
    def submit(self, jobs: List[PoolJob]) -> None:
        """Enqueue jobs atomically (sequence numbers in list order), or
        shed the whole batch with :class:`PoolSaturated`."""
        with self._lock:
            if self._stopping:
                raise PoolSaturated(len(self._queue), retry_after=1.0)
            if len(self._queue) + len(jobs) > self.queue_limit:
                # Retry-After estimate: queue depth over fleet size,
                # assuming ~1s per queued job; at least one second so
                # well-behaved clients actually back off.
                retry_after = max(1.0, len(self._queue) / self.size)
                raise PoolSaturated(len(self._queue), retry_after)
            for job in jobs:
                job.seq = self._next_seq
                self._next_seq += 1
                self._queue.append(job)
            self._wake_locked()

    def as_completed(self, jobs: Iterable[PoolJob]) -> Iterator[PoolJob]:
        """Yield submitted ``jobs`` as they resolve, in resolution order.

        Supervision guarantees resolution: every attempt replies, dies
        (detected), hangs (killed at its deadline), or is drained at
        shutdown.  Should the dispatcher thread itself be gone, the
        remaining jobs resolve as lost (``pool.lost``) instead of
        blocking forever.
        """
        pending = list(jobs)
        while pending:
            with self._lock:
                while not any(job.order for job in pending):
                    if self._thread is None or not self._thread.is_alive():
                        self._count("pool.lost", len(pending))
                        for job in pending:
                            self._resolve_locked(job, failure="supervisor lost the job")
                        break
                    self._resolved.wait(timeout=_LIVENESS_CHECK)
                ready = sorted((j for j in pending if j.order), key=lambda j: j.order)
                pending = [job for job in pending if not job.order]
            yield from ready

    # -- supervision loop ----------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            with self._tlock:
                self.telemetry.count(name, n)

    def _event(self, line: str) -> None:
        if self.on_event is not None:
            try:
                self.on_event(line)
            except Exception:  # noqa: BLE001 - observability must not kill supervision
                pass

    def _wake_locked(self) -> None:
        if not self._woken:
            self._woken = True
            self._wake_w.send_bytes(b"")

    def _loop(self) -> None:
        poll = self.config.poll_interval
        while True:
            with self._lock:
                if self._stopping and not self._queue and not any(
                    w.job is not None for w in self._workers.values()
                ):
                    break
                waitables = [w.conn for w in self._workers.values()]
            mp_connection.wait(waitables + [self._wake_r], timeout=poll)
            now = time.monotonic()
            with self._lock:
                if self._woken:
                    while self._wake_r.poll():
                        self._wake_r.recv_bytes()
                    self._woken = False
                self._drain_replies_locked(now)
                self._check_workers_locked(now)
                self._top_up_locked(now)
                self._dispatch_locked(now)
                self._reap_locked()

    def _resolve_locked(
        self,
        job: PoolJob,
        result: Any = None,
        failure: Optional[str] = None,
        stats=None,
        aborted: bool = False,
    ) -> None:
        job.result = result
        job.failure = failure
        job.aborted = aborted
        self._resolutions += 1
        job.order = self._resolutions
        if stats is not None and self.telemetry is not None:
            with self._tlock:
                self.telemetry.merge(stats)
        self._resolved.notify_all()

    def _fail_job_locked(
        self, job: PoolJob, kind: str, counter: Optional[str], now: float
    ) -> None:
        job.attempts += 1
        if counter is not None:
            self._count(counter)
        self._event(f"job {job.seq} attempt {job.attempts}: {kind}")
        if job.attempts > self.config.max_retries:
            self._count("pool.degraded")
            self._resolve_locked(job, failure=kind)
        else:
            job.eligible_at = now + self.config.backoff_delay(job.attempts)
            self._queue.append(job)
            self._count("pool.retries")

    def _retire_locked(self, wid: int, terminate: bool) -> None:
        # Never block the dispatcher waiting on a dying process: while it
        # joins, healthy workers' replies go undrained and their jobs age
        # past the hang deadline — one real hang would cascade into fake
        # ones.  Terminate, park the corpse, reap opportunistically; the
        # replacement is spawned by _top_up_locked.
        worker = self._workers.pop(wid)
        try:
            worker.conn.close()
        except OSError:
            pass
        if terminate and worker.process.is_alive():
            worker.process.terminate()
        self._reaping.append(worker.process)

    def _top_up_locked(self, now: float) -> None:
        """Respawn missing workers; a failed spawn backs off, never raises."""
        while (
            not self._stopping
            and len(self._workers) < self.size
            and now >= self._spawn_after
        ):
            try:
                self._spawn_locked()
            except OSError as exc:
                self._spawn_failures += 1
                self._spawn_after = now + self.config.backoff_delay(
                    self._spawn_failures
                )
                self._count("pool.spawn_failures")
                self._event(f"cannot spawn a worker: {exc}")
                return
            self._spawn_failures = 0

    def _reap_locked(self) -> None:
        still_dying = []
        for proc in self._reaping:
            proc.join(timeout=0)
            if proc.is_alive():
                still_dying.append(proc)
        self._reaping = still_dying

    def _drain_replies_locked(self, now: float) -> None:
        for wid in list(self._workers):
            worker = self._workers[wid]
            try:
                while worker.conn.poll():
                    msg = worker.conn.recv()
                    job = worker.job
                    if job is None or msg[1] != job.seq:
                        # A reply for a job this worker no longer owns
                        # (it was already failed over); drop it.
                        continue
                    if msg[0] == "progress":
                        worker.deadline = now + self.config.hang_timeout + job.grace
                        continue
                    worker.job = None
                    if msg[0] == "done":
                        _, _, result, stats = msg
                        reason = job.validate(result) if job.validate else None
                        if reason is None:
                            self._resolve_locked(job, result=result, stats=stats)
                        else:
                            # A worker producing garbage is as suspect
                            # as a crashed one: recycle it.
                            self._fail_job_locked(
                                job,
                                f"corrupt reply: {reason}",
                                "pool.corrupt_replies",
                                now,
                            )
                            self._retire_locked(wid, terminate=True)
                            break
                    elif msg[0] == "abort":
                        self._resolve_locked(job, failure=msg[2], aborted=True)
                    else:
                        self._fail_job_locked(
                            job, f"worker error: {msg[2]}", "pool.worker_errors", now
                        )
            except (EOFError, OSError):
                job = worker.job
                worker.job = None
                if job is not None:
                    self._fail_job_locked(job, "connection lost", "pool.crashes", now)
                self._retire_locked(wid, terminate=True)

    def _check_workers_locked(self, now: float) -> None:
        for wid in list(self._workers):
            worker = self._workers[wid]
            job = worker.job
            if not worker.process.is_alive():
                worker.job = None
                if job is not None:
                    self._fail_job_locked(
                        job,
                        f"worker died (exit {worker.process.exitcode})",
                        "pool.crashes",
                        now,
                    )
                self._retire_locked(wid, terminate=False)
            elif job is not None and now > worker.deadline:
                worker.job = None
                self._fail_job_locked(
                    job,
                    f"no progress within {self.config.hang_timeout + job.grace:g}s",
                    "pool.hangs",
                    now,
                )
                self._retire_locked(wid, terminate=True)

    def _next_ready_locked(self, now: float) -> Optional[PoolJob]:
        for _ in range(len(self._queue)):
            job = self._queue.popleft()
            if job.eligible_at <= now:
                return job
            self._queue.append(job)
        return None

    def _dispatch_locked(self, now: float) -> None:
        if not self._workers:
            # No worker could be spawned: fail ready jobs' attempts so
            # they walk the retry/backoff path and degrade, not wait.
            while (job := self._next_ready_locked(now)) is not None:
                self._fail_job_locked(job, "no worker available", None, now)
            return
        for wid in list(self._workers):
            worker = self._workers[wid]
            if worker.job is not None or not worker.process.is_alive():
                continue
            job = self._next_ready_locked(now)
            if job is None:
                break
            try:
                worker.conn.send(("job", job.seq, job.attempts, job.args))
            except (OSError, ValueError):
                self._fail_job_locked(job, "dispatch failed", "pool.crashes", now)
                self._retire_locked(wid, terminate=True)
                continue
            worker.job = job
            worker.deadline = now + self.config.hang_timeout + job.grace

    # -- shutdown ------------------------------------------------------
    def stop(self, drain_timeout: float = 20.0) -> int:
        """Drain and stop the pool; returns the number of forced jobs.

        Lets queued and running jobs resolve for up to ``drain_timeout``
        seconds (supervision stays active, so crashed workers still fail
        over during the drain), then force-degrades whatever is left and
        terminates the fleet.  Idempotent.
        """
        with self._lock:
            self._stopping = True
            if not self._wake_w.closed:
                self._wake_locked()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while time.monotonic() < deadline:
            with self._lock:
                busy = len(self._queue) + sum(
                    1 for w in self._workers.values() if w.job is not None
                )
            if not busy:
                break
            time.sleep(min(0.05, self.config.poll_interval))
        with self._lock:
            leftovers = list(self._queue)
            self._queue.clear()
            for worker in self._workers.values():
                if worker.job is not None:
                    leftovers.append(worker.job)
                    worker.job = None
            forced = [job for job in leftovers if not job.order]
            if forced:
                self._count("pool.degraded", len(forced))
            for job in forced:
                self._resolve_locked(job, failure="drain deadline")
            self._stop_fleet_locked()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._wake_r.close()
        self._wake_w.close()
        return len(forced)

    def _stop_fleet_locked(self) -> None:
        for worker in self._workers.values():
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        # Idle workers exit on "stop"; busy ones get half a second in
        # total, then terminate() — all in overlapping passes, never a
        # serial timeout per straggler.
        grace_end = time.monotonic() + 0.5
        for worker in self._workers.values():
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=max(0.0, grace_end - time.monotonic()))
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self._workers.values():
            worker.process.join(timeout=5.0)
        stragglers = [w.process for w in self._workers.values() if w.process.is_alive()]
        self._workers.clear()
        for proc in self._reaping:
            proc.join(timeout=1.0)
            if proc.is_alive():
                stragglers.append(proc)
        self._reaping.clear()
        # SIGKILL escalation: anything that shrugged off terminate()
        # must not survive to wedge multiprocessing's atexit join.
        for proc in stragglers:
            proc.kill()
        for proc in stragglers:
            proc.join(timeout=5.0)
