"""Chaos suite: the parallel engine under injected worker faults.

The resilience invariant under test is *byte identity*: a population
run that suffered crashes, hangs, corrupted payloads, or a mid-run
SIGINT must merge to exactly the records a fault-free serial run
produces (``elapsed_seconds`` excluded — it is compare-excluded on
``BlockRecord``).  Every run here uses ``verify=True``, so each
published schedule is also certified by the independent checker.

Kept deliberately small (tens of blocks, seconds of wall clock) so the
suite runs in CI; the fault *rates* are high to compensate.
"""

import functools
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.resilience import (
    STEP_LIST_SEED,
    FaultPlan,
    Journal,
    SupervisorConfig,
    load_journal,
)
from repro.experiments.parallel import run_population_parallel
from repro.experiments.runner import run_population
from repro.sched.search import SearchOptions
from repro.telemetry import Telemetry

SEED = 7
BLOCKS = 40
OPTIONS = SearchOptions(curtail=2_000)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Hang injection sleeps far longer than the supervisor's patience, so a
#: "hang" fault is always detected by heartbeat staleness, never waited out.
CHAOS_SUP = SupervisorConfig(hang_timeout=1.0, poll_interval=0.01,
                             backoff_base=0.01, backoff_cap=0.05)


def _serial_baseline():
    return run_population(
        BLOCKS, master_seed=SEED, options=OPTIONS, verify=True
    )


BASELINE = _serial_baseline()


def _chaos_run(fault_plan, supervisor=CHAOS_SUP, telemetry=None, workers=3):
    return run_population_parallel(
        BLOCKS,
        master_seed=SEED,
        options=OPTIONS,
        workers=workers,
        verify=True,
        telemetry=telemetry,
        supervisor=supervisor,
        fault_plan=fault_plan,
    )


class TestChaosByteIdentity:
    def test_crashes_and_hangs_do_not_change_output(self):
        telemetry = Telemetry()
        plan = FaultPlan(
            seed=11, crash_rate=0.10, hang_rate=0.05, hang_seconds=30.0
        )
        records = _chaos_run(plan, telemetry=telemetry)
        assert records == BASELINE
        faults = (
            telemetry.counters["pool.crashes"]
            + telemetry.counters["pool.hangs"]
        )
        assert faults > 0, "chaos plan injected no faults; raise the rates"
        assert telemetry.counters["pool.retries"] == faults
        assert telemetry.counters.get("pool.degraded", 0) == 0

    def test_every_fault_kind_with_high_rates(self):
        telemetry = Telemetry()
        plan = FaultPlan(
            seed=2,
            crash_rate=0.30,
            hang_rate=0.20,
            corrupt_rate=0.20,
            hang_seconds=30.0,
            max_faults_per_chunk=2,
        )
        records = _chaos_run(plan, telemetry=telemetry)
        assert records == BASELINE
        assert telemetry.counters["pool.crashes"] > 0
        assert telemetry.counters["pool.hangs"] > 0
        assert telemetry.counters["pool.corrupt_replies"] > 0


class TestCorruptionDetection:
    def test_corrupted_payloads_are_rejected_and_retried(self):
        telemetry = Telemetry()
        # Every chunk's first attempt returns a tampered payload; the
        # validator must reject each one and the retry (fault allowance
        # spent) must restore the honest records.
        plan = FaultPlan(seed=0, corrupt_rate=1.0, max_faults_per_chunk=1)
        records = _chaos_run(plan, telemetry=telemetry)
        assert records == BASELINE
        assert telemetry.counters["pool.corrupt_replies"] > 0
        assert telemetry.counters.get("pool.crashes", 0) == 0


class TestPoisonQuarantine:
    def test_persistent_crashes_degrade_to_list_seeds(self):
        telemetry = Telemetry()
        # Crash on every attempt, allowance never runs out, one retry
        # allowed: every chunk is poisoned, no chunk ever succeeds.
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faults_per_chunk=10**6)
        sup = SupervisorConfig(
            hang_timeout=1.0, poll_interval=0.01,
            backoff_base=0.0, max_retries=1,
        )
        records = _chaos_run(plan, supervisor=sup, telemetry=telemetry)
        # Dense, ordered, complete — but every block is a bottom-rung seed.
        assert [r.index for r in records] == list(range(BLOCKS))
        assert all(r.ladder == STEP_LIST_SEED for r in records)
        assert all(
            r.final_nops == b.seed_nops
            for r, b in zip(records, BASELINE)
        )
        assert telemetry.counters["pool.degraded"] > 0
        assert telemetry.counters["resilience.poison_blocks"] == BLOCKS


class TestResume:
    def test_truncated_journal_resume_matches_full_run(self, tmp_path):
        path = str(tmp_path / "run.journal")
        config = {"blocks": BLOCKS, "master_seed": SEED}
        with Journal.create(path, config) as journal:
            run_population(
                BLOCKS, master_seed=SEED, options=OPTIONS, verify=True,
                on_record=lambda r: journal.append([r]),
            )
        # Simulate a crash: keep the header and the first 25 appends,
        # tear the 26th mid-line.
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:26])
            fh.write(lines[26][: len(lines[26]) // 2])
        journal, done = Journal.resume(path, config)
        assert len(done) == 25
        with journal:
            resumed = run_population(
                BLOCKS, master_seed=SEED, options=OPTIONS, verify=True,
                done=done, on_record=lambda r: journal.append([r]),
            )
        assert resumed == BASELINE
        _, final, _ = load_journal(path, expect_config=config)
        assert sorted(final) == list(range(BLOCKS))
        assert [final[i] for i in range(BLOCKS)] == BASELINE


@pytest.mark.slow
class TestKillAndResume:
    """Real SIGINT against the real CLI, then ``--resume``."""

    def test_sigint_then_resume_matches_uninterrupted_run(self, tmp_path):
        journal = str(tmp_path / "kill.journal")
        env = dict(os.environ, PYTHONPATH="src", REPRO_SCALE="1")
        base_cmd = [
            sys.executable, "-m", "repro.experiments.cli", "table7",
            "--blocks", "300", "--seed", str(SEED),
            "--curtail", "2000", "--workers", "2",
        ]
        proc = subprocess.Popen(
            base_cmd + ["--journal", journal],
            cwd=ROOT, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if os.path.exists(journal):
                    with open(journal) as fh:
                        if sum(1 for _ in fh) >= 11:  # header + 10 records
                            break
                if proc.poll() is not None:
                    pytest.fail(
                        "run finished before it could be interrupted; "
                        "raise --blocks.\n" + proc.stderr.read()
                    )
                time.sleep(0.05)
            else:
                pytest.fail("journal never reached 10 records")
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 130, stderr
        assert "--resume" in stderr

        _, partial, _ = load_journal(journal)
        assert 0 < len(partial) < 300

        resumed = subprocess.run(
            base_cmd + ["--resume", journal],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming" in resumed.stdout

        _, finished, _ = load_journal(journal)
        assert sorted(finished) == list(range(300))
        assert [finished[i] for i in range(300)] == _uninterrupted(300)

    #: How long an orphaned worker may take to notice its parent died: it
    #: finishes the block it is scheduling (bounded by --curtail 2000).
    EXIT_WITHIN = 10.0

    def test_sigkill_mid_chunk_then_resume_matches_uninterrupted_run(self, tmp_path):
        """``kill -9`` of the run's parent while its two workers are
        inside chunks: no cleanup runs, yet both workers exit, and
        ``--resume`` completes the journal to an uninterrupted run's
        records."""
        from .test_service_libraries import _children
        from .test_service_pool import _running

        journal = str(tmp_path / "killed.journal")
        env = dict(os.environ, PYTHONPATH="src", REPRO_SCALE="1")
        base_cmd = [
            sys.executable, "-m", "repro.console", "experiments", "table7",
            "--blocks", "300", "--seed", str(SEED), "--curtail", "2000", "--workers", "2",
        ]
        proc = subprocess.Popen(
            base_cmd + ["--journal", journal], cwd=ROOT, env=env,
            start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        workers = []
        try:
            deadline = time.monotonic() + 120
            while not workers or len(load_journal(journal)[1]) < 10:
                assert proc.poll() is None, "run finished before it could be killed"
                assert time.monotonic() < deadline, "journal never reached 10 records"
                time.sleep(0.05)
                if os.path.exists(journal):
                    workers = _children(proc.pid)
            assert len(workers) == 2
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + self.EXIT_WITHIN
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            alive = [pid for pid in workers if _running(pid)]
            assert not alive, f"workers {alive} outlived a SIGKILLed parent by {self.EXIT_WITHIN} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stderr.close()
        assert proc.returncode == -signal.SIGKILL

        _, partial, _ = load_journal(journal)
        assert 10 <= len(partial) < 300
        resumed = subprocess.run(
            base_cmd + ["--resume", journal], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming" in resumed.stdout
        _, finished, _ = load_journal(journal)
        assert sorted(finished) == list(range(300))
        assert [finished[i] for i in range(300)] == _uninterrupted(300)


@functools.lru_cache(maxsize=None)
def _uninterrupted(blocks):
    """A fault-free serial run's records, as the CLI runs it."""
    return run_population(blocks, master_seed=SEED, options=OPTIONS)
