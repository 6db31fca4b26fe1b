"""Tests for the fault-tolerance layer: budgets, journal, supervision.

The chaos suite (worker crash/hang/corrupt under the live parallel
engine, kill-and-resume) lives in ``tests/test_chaos.py``; this file
covers the resilience building blocks themselves plus the degradation
ladder's per-rung record contract.
"""

import dataclasses
import json
import multiprocessing
import os
import pickle

import pytest

from repro.experiments.parallel import CHUNKS_PER_WORKER, run_population_parallel
from repro.experiments.runner import (
    BlockRecord,
    VerificationError,
    list_seed_record,
    run_population,
    schedule_generated_block,
)
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.machine.presets import paper_simulation_machine
from repro.resilience import (
    LADDER,
    STEP_CURTAILED,
    STEP_LIST_SEED,
    STEP_OPTIMAL,
    STEP_SPLIT,
    BlockBudget,
    BudgetManager,
    FaultPlan,
    Journal,
    JournalError,
    SupervisorConfig,
    load_journal,
    validate_records,
)
from repro.sched.search import SearchOptions
from repro.synth.population import generate_from_params, sample_population_params
from repro.telemetry import Telemetry

SEED = 7
MACHINE = paper_simulation_machine()


def _block(index: int):
    params = list(sample_population_params(index + 1, master_seed=SEED))[index]
    return generate_from_params(params)


def _record(index: int, **kwargs) -> BlockRecord:
    return schedule_generated_block(
        index, _block(index), MACHINE, kwargs.pop("options", SearchOptions()),
        verify=True, **kwargs
    )


# ----------------------------------------------------------------------
# ioutil
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "first\n")
        assert path.read_text() == "first\n"
        atomic_write_text(str(path), "second\n")
        assert path.read_text() == "second\n"

    def test_no_temp_litter(self, tmp_path):
        atomic_write_text(str(tmp_path / "a.txt"), "x")
        atomic_write_json(str(tmp_path / "b.json"), {"k": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.json"]

    def test_json_payload_round_trips(self, tmp_path):
        path = tmp_path / "payload.json"
        atomic_write_json(str(path), {"nested": {"a": [1, 2]}, "b": None})
        assert json.loads(path.read_text()) == {"nested": {"a": [1, 2]}, "b": None}

    def test_failed_write_leaves_original(self, tmp_path):
        path = tmp_path / "keep.json"
        atomic_write_json(str(path), {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        assert json.loads(path.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
CONFIG = {"blocks": 4, "curtail": 100, "master_seed": SEED}


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.journal")
        records = [_record(0), _record(1)]
        with Journal.create(path, CONFIG) as journal:
            journal.append(records)
            assert journal.appended == 2
        header, loaded, _ = load_journal(path, expect_config=CONFIG)
        assert header["config"] == CONFIG
        assert loaded == {0: records[0], 1: records[1]}
        # elapsed_seconds round-trips too (it is excluded from equality).
        assert loaded[0].elapsed_seconds == records[0].elapsed_seconds

    def test_resume_returns_finished_records(self, tmp_path):
        path = str(tmp_path / "run.journal")
        records = [_record(0), _record(1)]
        with Journal.create(path, CONFIG) as journal:
            journal.append(records)
        journal, done = Journal.resume(path, CONFIG)
        with journal:
            assert done == {0: records[0], 1: records[1]}
            journal.append([_record(2)])
        _, final, _ = load_journal(path)
        assert sorted(final) == [0, 1, 2]

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.journal")
        journal, done = Journal.resume(path, CONFIG)
        journal.close()
        assert done == {}
        assert os.path.exists(path)

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with Journal.create(path, CONFIG) as journal:
            journal.append([_record(0)])
        with open(path, "a") as fh:
            fh.write('{"index": 1, "size"')  # crash mid-append
        _, loaded, valid = load_journal(path)
        assert sorted(loaded) == [0]
        journal, done = Journal.resume(path, CONFIG)
        journal.close()
        assert sorted(done) == [0]
        assert os.path.getsize(path) == valid  # tail physically gone

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with Journal.create(path, CONFIG) as journal:
            journal.append([_record(0)])
        blob = open(path).read()
        with open(path, "w") as fh:
            fh.write(blob.replace('"schema"', '"sch', 1))
        with pytest.raises(JournalError, match="corrupt|schema"):
            load_journal(path)

    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.journal")
        Journal.create(path, CONFIG).close()
        other = dict(CONFIG, master_seed=1990)
        with pytest.raises(JournalError, match="different run"):
            Journal.resume(path, other)
        with pytest.raises(JournalError, match="master_seed"):
            load_journal(path, expect_config=other)

    def test_unknown_record_field_rejected(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with Journal.create(path, CONFIG) as journal:
            journal.append([_record(0)])
            payload = dataclasses.asdict(_record(1))
            payload["bogus"] = 1
            journal._fh.write(json.dumps(payload) + "\n")
            # An interior unknown-field line (not a torn tail) must raise.
            journal.append([_record(2)])
        with pytest.raises(JournalError, match="bogus"):
            load_journal(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.journal"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            load_journal(str(path))


# ----------------------------------------------------------------------
# Budget manager
# ----------------------------------------------------------------------
class TestBudgetManager:
    def test_block_clamps(self):
        budget = BudgetManager(
            block=BlockBudget(wall_clock=2.0, omega_cap=500, memo_cap=100)
        )
        options = budget.options_for_block(SearchOptions(curtail=50_000))
        assert options.curtail == 500
        assert options.time_limit == 2.0
        assert options.max_memo_entries == 100

    def test_no_budget_returns_same_options(self):
        options = SearchOptions()
        assert BudgetManager().options_for_block(options) is options

    def test_caller_tighter_limits_win(self):
        budget = BudgetManager(block=BlockBudget(wall_clock=10.0, omega_cap=5000))
        options = budget.options_for_block(
            SearchOptions(curtail=100, time_limit=0.5)
        )
        assert options.curtail == 100
        assert options.time_limit == 0.5

    def test_run_omega_cap_exhaustion(self):
        budget = BudgetManager(run_omega_cap=100).start()
        assert budget.run_exhausted() is None
        budget.charge(40)
        assert budget.run_exhausted() is None
        budget.charge(60)
        assert budget.run_exhausted() == "omega"

    def test_run_wall_clock_exhaustion(self):
        budget = BudgetManager(run_wall_clock=1e-9).start()
        assert budget.run_exhausted() == "wall-clock"
        # Remaining run time also clamps the next block's deadline
        # (floored at a tiny positive value — never an invalid limit).
        options = budget.options_for_block(SearchOptions())
        assert options.time_limit == pytest.approx(1e-9)

    def test_unarmed_budget_never_exhausts(self):
        budget = BudgetManager(run_wall_clock=1e-9)  # start() never called
        assert budget.remaining_run_seconds() is None
        assert budget.run_exhausted() is None

    def test_pickle_resets_omega_but_keeps_deadline(self):
        budget = BudgetManager(run_wall_clock=3600.0, run_omega_cap=100).start()
        budget.charge(99)
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.omega_spent == 0  # accounting stays with the parent
        assert clone._deadline == budget._deadline  # deadline crosses
        assert budget.omega_spent == 99

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockBudget(wall_clock=0)
        with pytest.raises(ValueError):
            BlockBudget(omega_cap=0)
        with pytest.raises(ValueError):
            BudgetManager(run_wall_clock=-1)
        with pytest.raises(ValueError):
            BudgetManager(split_window=0)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=3, crash_rate=0.3, hang_rate=0.2, corrupt_rate=0.1)
        first = [plan.decide(cid, a) for cid in range(50) for a in range(2)]
        again = [plan.decide(cid, a) for cid in range(50) for a in range(2)]
        assert first == again
        assert any(f == "crash" for f in first)
        assert any(f == "hang" for f in first)
        assert any(f == "corrupt" for f in first)
        assert any(f is None for f in first)

    def test_fault_allowance_bounds_attempts(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, max_faults_per_chunk=2)
        assert plan.decide(5, 0) == "crash"
        assert plan.decide(5, 1) == "crash"
        assert plan.decide(5, 2) is None  # retries converge to fault-free

    def test_parse(self):
        plan = FaultPlan.parse("crash=0.1,hang=0.05,seed=9,max-faults=3")
        assert plan == FaultPlan(
            seed=9, crash_rate=0.1, hang_rate=0.05, max_faults_per_chunk=3
        )

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="bad --chaos entry"):
            FaultPlan.parse("explode=1")
        with pytest.raises(ValueError, match="bad --chaos value"):
            FaultPlan.parse("crash=lots")
        with pytest.raises(ValueError, match="sum to at most 1"):
            FaultPlan.parse("crash=0.9,hang=0.9")
        with pytest.raises(ValueError, match="within"):
            FaultPlan(crash_rate=1.5)


# ----------------------------------------------------------------------
# Supervision policy
# ----------------------------------------------------------------------
class TestSupervisorPolicy:
    def test_backoff_is_capped_exponential(self):
        config = SupervisorConfig(backoff_base=0.25, backoff_cap=1.0)
        assert [config.backoff_delay(a) for a in range(1, 5)] == [
            0.25, 0.5, 1.0, 1.0,
        ]

    def test_validate_records(self):
        good = [_record(0), _record(1)]
        assert validate_records(good, [0, 1]) is None
        assert "not a record list" in validate_records("junk", [0])
        assert "assigned blocks" in validate_records(good, [0, 2])
        bad_nops = [dataclasses.replace(good[0], final_nops=good[0].seed_nops + 1)]
        assert "worse" in validate_records(bad_nops, [0])
        negative = [dataclasses.replace(good[0], omega_calls=-1)]
        assert "negative" in validate_records(negative, [0])
        conflicted = [dataclasses.replace(good[0], completed=True, degraded=True)]
        assert "exclusive" in validate_records(conflicted, [0])
        unladdered = [dataclasses.replace(good[0], ladder="rocket")]
        assert "ladder" in validate_records(unladdered, [0])


# ----------------------------------------------------------------------
# Degradation-ladder rung regressions (both engines, all certified)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "reference"])
class TestLadderRungs:
    """One pinned regression per rung.

    Block indexes are population members of master seed 7 chosen so each
    rung engages deterministically: the wall-clock rungs use a 1ns block
    deadline, which is always blown by the first in-search check on any
    host, so the outcome does not depend on machine speed.  Every record
    passes ``verify=True`` — the published schedule is certified by the
    independent checker regardless of which rung produced it.
    """

    def test_optimal_search(self, engine):
        record = _record(5, options=SearchOptions(engine=engine))
        assert record.ladder == STEP_OPTIMAL
        assert record.completed and not record.degraded
        assert record.final_nops == 0 and record.seed_nops == 1
        assert record.omega_calls == 30

    def test_curtailed_search(self, engine):
        record = _record(11, options=SearchOptions(curtail=120, engine=engine))
        assert record.ladder == STEP_CURTAILED
        assert not record.completed and not record.degraded
        assert record.omega_calls == 120  # stopped exactly at lambda
        assert record.final_nops == 2 and record.seed_nops == 8
        assert record.final_nops <= record.seed_nops

    def test_split_windows(self, engine):
        budget = BudgetManager(block=BlockBudget(wall_clock=1e-9)).start()
        record = _record(
            1, options=SearchOptions(engine=engine), budget=budget
        )
        assert record.ladder == STEP_SPLIT
        assert record.degraded and not record.completed
        assert record.seed_nops == 5 and record.final_nops == 3
        assert record.omega_calls > 0  # split windows were searched

    def test_list_seed(self, engine):
        budget = BudgetManager(
            block=BlockBudget(wall_clock=1e-9), split_fallback=False
        ).start()
        record = _record(
            1, options=SearchOptions(engine=engine), budget=budget
        )
        assert record.ladder == STEP_LIST_SEED
        assert record.degraded and not record.completed
        assert record.final_nops == record.seed_nops == 5

    def test_engines_agree_per_rung(self, engine):
        # The rung records above are engine-independent bit for bit
        # (elapsed_seconds excluded); spot-check against the fast engine.
        if engine == "fast":
            pytest.skip("comparison target")
        for build in (
            lambda e: _record(5, options=SearchOptions(engine=e)),
            lambda e: _record(11, options=SearchOptions(curtail=120, engine=e)),
            lambda e: _record(
                1,
                options=SearchOptions(engine=e),
                budget=BudgetManager(block=BlockBudget(wall_clock=1e-9)).start(),
            ),
        ):
            assert build("reference") == build("fast")


class TestLadderIntegration:
    def test_every_rung_value_is_in_ladder(self):
        assert set(LADDER) == {
            STEP_OPTIMAL, STEP_CURTAILED, STEP_SPLIT, STEP_LIST_SEED,
        }

    def test_list_seed_record_matches_exhausted_budget(self):
        gb = _block(1)
        direct = list_seed_record(1, gb, MACHINE)
        budget = BudgetManager(run_omega_cap=1).start()
        budget.charge(1)
        via_budget = schedule_generated_block(
            1, gb, MACHINE, SearchOptions(), budget=budget
        )
        assert direct == via_budget
        assert via_budget.omega_calls == 0  # honestly: no search ran

    def test_run_budget_exhaustion_mid_population(self):
        telemetry = Telemetry()
        budget = BudgetManager(run_omega_cap=1).start()
        records = run_population(
            6, master_seed=SEED, telemetry=telemetry, budget=budget
        )
        assert len(records) == 6
        # First block runs (cap not yet hit), the rest drop to seeds.
        assert records[0].ladder == STEP_OPTIMAL
        assert all(r.ladder == STEP_LIST_SEED for r in records[1:])
        assert telemetry.counters["resilience.run_budget_exhausted"] == 5
        assert telemetry.counters[f"resilience.ladder.{STEP_LIST_SEED}"] == 5

    def test_ladder_counts_cover_population(self):
        telemetry = Telemetry()
        records = run_population(10, master_seed=SEED, telemetry=telemetry)
        laddered = sum(
            n for name, n in telemetry.counters.items()
            if name.startswith("resilience.ladder.")
        )
        assert laddered == len(records) == 10
        assert all(r.ladder in LADDER for r in records)

    def test_journal_skip_counts(self):
        telemetry = Telemetry()
        full = run_population(6, master_seed=SEED)
        done = {r.index: r for r in full[:4]}
        fresh = []
        resumed = run_population(
            6,
            master_seed=SEED,
            telemetry=telemetry,
            done=done,
            on_record=fresh.append,
        )
        assert resumed == full
        assert [r.index for r in fresh] == [4, 5]
        assert telemetry.counters["resilience.journal_blocks_skipped"] == 4
        assert telemetry.counters["blocks.scheduled"] == 2


# ----------------------------------------------------------------------
# Population runs on the supervised pool
# ----------------------------------------------------------------------
class TestPooledPopulation:
    def test_run_omega_cap_drains_undispatched_chunks(self):
        telemetry = Telemetry()
        batches = []
        records = run_population_parallel(
            40, master_seed=SEED, workers=2, telemetry=telemetry,
            budget=BudgetManager(run_omega_cap=1), on_records=batches.append,
        )
        assert [r.index for r in records] == list(range(40))
        # One chunk in flight per worker: chunks 0 and 1 run, the first
        # one accepted spends the cap, and chunks 2.. are never dispatched.
        n_chunks = 2 * CHUNKS_PER_WORKER
        drained = [r for r in records if r.index % n_chunks >= 2]
        assert drained
        assert all(
            r.ladder == STEP_LIST_SEED and r.omega_calls == 0 for r in drained
        )
        # The counter covers every block that skipped its search: the
        # drained chunks, plus blocks of the two running chunks that
        # found their worker's copy of the cap already spent.
        skipped = [
            r for r in records
            if r.ladder == STEP_LIST_SEED and r.omega_calls == 0
        ]
        assert len(skipped) < len(records)
        assert telemetry.counters["resilience.run_budget_exhausted"] == len(
            skipped
        )
        assert sorted(r.index for b in batches for r in b) == list(range(40))

    def test_worker_certificate_failure_aborts_unretried(self, monkeypatch):
        from repro.verify import certificate

        real = certificate.check_schedule

        def rejecting(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), ok=False)

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(certificate, "check_schedule", rejecting)
        telemetry = Telemetry()
        with pytest.raises(VerificationError, match="REJECTED"):
            run_population_parallel(
                20, master_seed=SEED, workers=2, verify=True,
                telemetry=telemetry,
            )
        assert telemetry.counters.get("pool.retries", 0) == 0
        assert multiprocessing.active_children() == []
