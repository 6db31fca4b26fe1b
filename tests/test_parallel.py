"""Tests for the parallel population engine (process-pool fan-out).

The contract under test: ``run_population_parallel`` is a drop-in for
``run_population`` — same records, same order, byte-identical once the
wall-clock field is normalized — plus graceful degradation (per-block
timeouts fall back to the list-schedule seed, a broken pool falls back
to the serial runner).
"""

import json
from dataclasses import asdict, replace

import pytest

from repro.experiments.parallel import default_workers, run_population_parallel
from repro.experiments.runner import run_population, schedule_generated_block
from repro.ir.textual import parse_block
from repro.machine.presets import paper_simulation_machine
from repro.resilience import pool
from repro.sched.search import SearchOptions
from repro.synth.generator import GeneratedBlock
from repro.synth.population import sample_population_params
from repro.telemetry import Telemetry

N_BLOCKS = 100
CURTAIL = 20_000
SEED = 2024


def records_json(records):
    """Canonical JSON for a record list, wall-clock zeroed."""
    return json.dumps(
        [asdict(replace(r, elapsed_seconds=0.0)) for r in records],
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial_records():
    """The serial reference run the parallel engine must reproduce."""
    return run_population(N_BLOCKS, curtail=CURTAIL, master_seed=SEED)


class TestEquivalence:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_identical_to_serial(self, serial_records, workers):
        par = run_population_parallel(
            N_BLOCKS, curtail=CURTAIL, master_seed=SEED, workers=workers
        )
        assert par == serial_records
        assert records_json(par) == records_json(serial_records)

    def test_workers_one_takes_serial_path(self, serial_records):
        assert (
            run_population_parallel(
                N_BLOCKS, curtail=CURTAIL, master_seed=SEED, workers=1
            )
            == serial_records
        )

    def test_records_arrive_in_index_order(self, serial_records):
        par = run_population_parallel(
            N_BLOCKS, curtail=CURTAIL, master_seed=SEED, workers=3
        )
        assert [r.index for r in par] == list(range(N_BLOCKS))

    def test_single_block_population(self):
        ser = run_population(1, curtail=CURTAIL, master_seed=SEED)
        par = run_population_parallel(
            1, curtail=CURTAIL, master_seed=SEED, workers=4
        )
        assert par == ser

    def test_telemetry_parity_with_serial(self, serial_records):
        t_ser, t_par = Telemetry(), Telemetry()
        run_population(
            N_BLOCKS, curtail=CURTAIL, master_seed=SEED, telemetry=t_ser
        )
        run_population_parallel(
            N_BLOCKS, curtail=CURTAIL, master_seed=SEED, workers=3,
            telemetry=t_par,
        )
        # Work-shape counters aggregate identically across the pool;
        # only the parallel.* bookkeeping and timers may differ.
        for name, value in t_ser.counters.items():
            if name.startswith(("prune.", "search.", "blocks.")):
                assert t_par.counters[name] == value, name


class TestTimeoutDegradation:
    def test_blocks_over_budget_degrade_to_seed(self):
        par = run_population_parallel(
            20,
            curtail=10**9,  # never curtailed: truncation is timeout-only
            master_seed=SEED,
            workers=2,
            block_timeout=1e-6,
        )
        degraded = [r for r in par if not r.completed]
        # A 1 microsecond budget expires before the first DFS expansion,
        # so every block the root bound cannot prove outright degrades.
        assert degraded
        for r in degraded:
            assert r.final_nops == r.seed_nops
        assert len(par) == 20

    def test_degradation_is_deterministic(self):
        kwargs = dict(
            curtail=10**9, master_seed=SEED, workers=2, block_timeout=1e-6
        )
        assert run_population_parallel(20, **kwargs) == run_population_parallel(
            20, **kwargs
        )

    def test_degraded_blocks_counted(self):
        telemetry = Telemetry()
        run_population_parallel(
            20,
            curtail=10**9,
            master_seed=SEED,
            workers=2,
            block_timeout=1e-6,
            telemetry=telemetry,
        )
        assert telemetry.counters["blocks.degraded"] > 0
        assert telemetry.counters["blocks.degraded"] == telemetry.counters[
            "search.timed_out"
        ]


class TestFallback:
    def test_broken_pool_falls_back_to_serial(
        self, serial_records, monkeypatch
    ):
        class ExplodingProcess:
            def __init__(self, *args, **kwargs):
                raise OSError("no process support in this sandbox")

        monkeypatch.setattr(pool, "Process", ExplodingProcess)
        telemetry = Telemetry()
        par = run_population_parallel(
            N_BLOCKS, curtail=CURTAIL, master_seed=SEED, workers=4,
            telemetry=telemetry,
        )
        assert par == serial_records
        assert telemetry.counters["parallel.fallbacks"] == 1

    def test_default_workers_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1


class TestChunking:
    def test_striping_covers_every_param_once(self):
        params = list(sample_population_params(50, master_seed=SEED))
        n_chunks = 12
        chunks = [params[i::n_chunks] for i in range(n_chunks)]
        flat = [p for chunk in chunks for p in chunk]
        assert sorted(p.index for p in flat) == list(range(50))


class TestEmptyBlocks:
    def test_empty_block_gets_zero_record(self):
        gb = GeneratedBlock(
            block=parse_block("", "empty"),
            program=None,
            statements=3,
            variables=2,
            constants=1,
            seed=0,
        )
        telemetry = Telemetry()
        record = schedule_generated_block(
            7, gb, paper_simulation_machine(), SearchOptions(), telemetry
        )
        assert record.index == 7
        assert record.size == 0
        assert record.completed
        assert record.final_nops == record.initial_nops == 0
        assert telemetry.counters["blocks.empty"] == 1

    def test_population_record_count_is_dense(self, serial_records):
        assert len(serial_records) == N_BLOCKS
        assert [r.index for r in serial_records] == list(range(N_BLOCKS))
