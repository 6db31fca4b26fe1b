"""The supervised worker pool primitive, driven by trivial job functions.

No scheduler is involved: every job here is a few lines of arithmetic,
sleeping or pid reporting, so each test pins one supervision behaviour
— retry/backoff/degrade, progress-extended hang deadlines, corrupt-reply
recycling, completion order, wake-on-submit, respawn failure — in
isolation from the population runner and the daemon that share it.
"""

from __future__ import annotations

import errno
import os
import threading
import time

import pytest

from repro.resilience import pool as pool_module
from repro.resilience.faults import FaultPlan
from repro.resilience.pool import JobAborted, PoolJob, WorkerPool
from repro.resilience.supervisor import SupervisorConfig
from repro.telemetry import Telemetry


def _config(**overrides):
    knobs = dict(
        hang_timeout=5.0,
        poll_interval=0.01,
        max_retries=2,
        backoff_base=0.05,
        backoff_cap=0.2,
    )
    knobs.update(overrides)
    return SupervisorConfig(**knobs)


# -- job functions (module level: they run in forked workers) ---------------
def scale(context, args, job):
    """``args * context``; a job with ``args == "flaky"`` fails attempt 0."""
    if args == "flaky" and job.attempt == 0:
        raise RuntimeError("first attempt fails")
    if args == "always-fails":
        raise RuntimeError("never works")
    if args == "abort":
        raise JobAborted("the data is wrong")
    job.telemetry.count("jobs.ran")
    return args * context


def nap(context, args, job):
    """Sleep ``seconds`` in ``steps`` pieces, heartbeating if asked."""
    seconds, steps, heartbeat = args
    for _ in range(steps):
        time.sleep(seconds / steps)
        if heartbeat:
            job.progress()
    return seconds


def pid(context, args, job):
    """The worker's pid; negated when this attempt is scheduled to corrupt."""
    job.inject()
    return -os.getpid() if job.fault == "corrupt" else os.getpid()


def _pool(fn, size=1, context=None, **kwargs):
    telemetry = Telemetry()
    config = kwargs.pop("config", _config())
    pool = WorkerPool(size, fn, context=context, config=config, **kwargs)
    pool.attach_telemetry(telemetry, threading.Lock())
    return pool.start(), telemetry


def _run(pool, jobs):
    pool.submit(jobs)
    return list(pool.as_completed(jobs))


class TestRetryAndDegrade:
    def test_results_and_worker_telemetry(self):
        pool, telemetry = _pool(scale, size=2, context=3)
        try:
            jobs = [PoolJob(n) for n in range(5)]
            done = _run(pool, jobs)
        finally:
            pool.stop(drain_timeout=5.0)
        assert sorted(j.result for j in done) == [0, 3, 6, 9, 12]
        assert all(j.failure is None and j.attempts == 0 for j in done)
        assert telemetry.counters["jobs.ran"] == 5
        assert [j.seq for j in jobs] == [0, 1, 2, 3, 4]

    def test_poison_after_max_retries_with_backoff(self):
        config = _config(max_retries=2, backoff_base=0.1, backoff_cap=1.0)
        pool, telemetry = _pool(scale, context=1, config=config)
        try:
            start = time.monotonic()
            (job,) = _run(pool, [PoolJob("always-fails")])
            elapsed = time.monotonic() - start
        finally:
            pool.stop(drain_timeout=5.0)
        assert job.failure is not None and "never works" in job.failure
        assert job.result is None and not job.aborted
        assert job.attempts == 3  # max_retries + 1
        # Two backoffs (0.1 s, then 0.2 s) separate the three attempts.
        assert elapsed >= 0.3
        assert telemetry.counters["pool.worker_errors"] == 3
        assert telemetry.counters["pool.retries"] == 2
        assert telemetry.counters["pool.degraded"] == 1

    def test_backing_off_job_does_not_block_others(self):
        config = _config(backoff_base=0.5, backoff_cap=0.5)
        pool, telemetry = _pool(scale, context=1, config=config)
        try:
            flaky, steady = PoolJob("flaky"), PoolJob(7)
            order = _run(pool, [flaky, steady])
        finally:
            pool.stop(drain_timeout=5.0)
        # The flaky job fails first, backs off; the steady job overtakes it.
        assert order == [steady, flaky]
        assert flaky.result == "flaky" and flaky.attempts == 1
        assert telemetry.counters["pool.retries"] == 1

    def test_abort_is_never_retried(self):
        pool, telemetry = _pool(scale, context=1)
        try:
            (job,) = _run(pool, [PoolJob("abort")])
        finally:
            pool.stop(drain_timeout=5.0)
        assert job.aborted and job.failure == "the data is wrong"
        assert job.attempts == 0
        assert "pool.retries" not in telemetry.counters


class TestHangDetection:
    def test_progress_outlives_hang_timeout_silence_does_not(self):
        config = _config(hang_timeout=0.5, max_retries=0)
        pool, telemetry = _pool(nap, size=2, config=config)
        try:
            chatty = PoolJob((1.5, 15, True))
            silent = PoolJob((1.5, 15, False))
            _run(pool, [chatty, silent])
        finally:
            pool.stop(drain_timeout=5.0)
        assert chatty.failure is None and chatty.result == 1.5
        assert silent.failure is not None and "no progress" in silent.failure
        assert telemetry.counters["pool.hangs"] == 1
        assert telemetry.counters["pool.degraded"] == 1

    def test_grace_extends_a_silent_job(self):
        config = _config(hang_timeout=0.3, max_retries=0)
        pool, telemetry = _pool(nap, config=config)
        try:
            (job,) = _run(pool, [PoolJob((0.6, 1, False), grace=2.0)])
        finally:
            pool.stop(drain_timeout=5.0)
        assert job.failure is None
        assert "pool.hangs" not in telemetry.counters


class TestCorruptReplies:
    def test_corrupt_reply_recycles_the_worker(self):
        # Every job's attempt 0 corrupts its reply (a negated pid).
        plan = FaultPlan(seed=1, corrupt_rate=1.0, max_faults_per_chunk=1)
        pool, telemetry = _pool(
            pid, fault_plan=plan, config=_config(backoff_base=0.0)
        )
        try:
            # No validator: the corrupt reply is accepted as is, and it
            # names the pool's only worker.
            (probe,) = _run(pool, [PoolJob(None)])
            (job,) = _run(pool, [PoolJob(None, validate=_positive)])
        finally:
            pool.stop(drain_timeout=5.0)
        original = -probe.result
        assert job.failure is None and job.attempts == 1
        # The validated retry ran in a replacement process.
        assert job.result > 0 and job.result != original
        assert telemetry.counters["pool.corrupt_replies"] == 1
        assert telemetry.counters["pool.retries"] == 1
        assert "pool.crashes" not in telemetry.counters


def _positive(result):
    return None if result > 0 else f"negative pid {result}"


class TestCompletionOrder:
    def test_as_completed_yields_in_completion_order(self):
        pool, _ = _pool(nap, size=3)
        try:
            jobs = [PoolJob((s, 1, False)) for s in (0.6, 0.05, 0.3)]
            order = _run(pool, jobs)
        finally:
            pool.stop(drain_timeout=5.0)
        assert [j.result for j in order] == [0.05, 0.3, 0.6]

    def test_submit_wakes_the_dispatcher(self):
        # A 5-second poll tick: without the wake pipe a new job would sit
        # queued until the next tick.
        pool, _ = _pool(scale, context=2, config=_config(poll_interval=5.0))
        try:
            time.sleep(0.2)  # let the dispatcher enter its long wait
            start = time.monotonic()
            (job,) = _run(pool, [PoolJob(21)])
            elapsed = time.monotonic() - start
        finally:
            pool.stop(drain_timeout=5.0)
        assert job.result == 42
        assert elapsed < 2.5


class _FailingProcess:
    """A ``Process`` whose ``start()`` fails like fork under ``EAGAIN``."""

    def __init__(self, *args, **kwargs):
        pass

    def start(self):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


class TestRespawnFailure:
    def test_failed_respawn_degrades_jobs_and_keeps_the_dispatcher(
        self, monkeypatch
    ):
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faults_per_chunk=1)
        pool, telemetry = _pool(pid, fault_plan=plan)
        try:
            # Every respawn fails from here on; the only worker then
            # crashes on the job's first attempt.
            monkeypatch.setattr(pool_module, "Process", _FailingProcess)
            job = PoolJob(None)
            pool.submit([job])
            # Poll rather than block in as_completed: a regression here
            # must fail the test, not hang it.
            deadline = time.monotonic() + 10.0
            while not job.order and time.monotonic() < deadline:
                time.sleep(0.05)
            assert job.order, "job still unresolved after 10 s"
            assert pool._thread.is_alive()
        finally:
            pool.stop(drain_timeout=0.0)
        assert job.failure is not None
        assert job.attempts == 3  # the crash, then two "no worker" attempts
        assert telemetry.counters["pool.crashes"] == 1
        assert telemetry.counters["pool.spawn_failures"] >= 1
        assert telemetry.counters["pool.degraded"] == 1


class TestLifecycle:
    def test_start_failure_raises_for_the_caller_to_fall_back(self, monkeypatch):
        monkeypatch.setattr(pool_module, "Process", _FailingProcess)
        pool = WorkerPool(2, scale, context=1)
        with pytest.raises(OSError):
            pool.start()

    def test_stop_force_degrades_leftovers(self):
        pool, telemetry = _pool(nap)
        job = PoolJob((30.0, 1, False))
        pool.submit([job])
        time.sleep(0.2)
        assert pool.stop(drain_timeout=0.0) == 1
        assert job.failure == "drain deadline"
        assert telemetry.counters["pool.degraded"] == 1
        assert pool.alive_workers() == 0
