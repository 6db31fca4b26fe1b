"""Tests for the search-telemetry registry and its ``--stats-json`` wiring.

The prune-counter tests are hand-checked: each case is small enough that
the expected counts follow from the search algorithm by inspection (the
derivations are in the comments), so a regression here means the
counters drifted from what the search actually does.
"""

import json

import pytest

from repro.cli import main as compile_main
from repro.experiments.cli import main as experiments_main
from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.prunes import PRUNE_KINDS, prune_counts
from repro.sched.multi import schedule_block_multi
from repro.sched.search import SearchOptions, schedule_block
from repro.sched.splitting import schedule_block_split
from repro.telemetry import SCHEMA, Telemetry

#: Disable every optional prune except alpha-beta + equivalence, and fix
#: candidate order, so the hand-derivations below are exact.
BARE = SearchOptions(
    heuristic_seeds=False,
    lower_bound_prune=False,
    dominance_prune=False,
    cheapest_first=False,
)


class TestPruneCounts:
    def test_fully_populated(self):
        counts = prune_counts(bounds=3)
        assert set(counts) == set(PRUNE_KINDS)
        assert counts["bounds"] == 3
        assert counts["legality"] == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            prune_counts(psychic=1)


class TestRegistry:
    def test_count_and_merge(self):
        a, b = Telemetry(), Telemetry()
        a.count("x", 2)
        b.count("x", 3)
        b.count("y")
        a.merge(b)
        assert a.counters == {"x": 5, "y": 1}

    def test_merge_accepts_payload_dict(self):
        a = Telemetry()
        a.count("x")
        a.add_time("t", 0.5)
        b = Telemetry()
        b.merge(a.as_dict())
        assert b.counters == {"x": 1}
        assert b.timers == {"t": 0.5}

    def test_phase_timer_is_additive(self):
        t = Telemetry()
        with t.phase("p"):
            pass
        with t.phase("p"):
            pass
        assert set(t.timers) == {"phase.p"}
        assert t.timers["phase.p"] >= 0.0

    def test_json_round_trip(self):
        t = Telemetry()
        t.count("prune.bounds", 4)
        t.add_time("phase.population", 1.25)
        payload = json.loads(t.dumps(meta={"workers": 2}))
        assert payload["schema"] == SCHEMA
        assert payload["meta"] == {"workers": 2}
        back = Telemetry()
        back.merge(payload)
        assert back.as_dict() == t.as_dict()

    def test_record_search_zero_fills_prune_keys(self):
        class FakeResult:
            omega_calls = 5
            completed = True
            elapsed_seconds = 0.1
            prune_counts = {"bounds": 2}

        t = Telemetry()
        t.record_search(FakeResult())
        for kind in PRUNE_KINDS:
            assert f"prune.{kind}" in t.counters
        assert t.counters["prune.bounds"] == 2
        assert t.counters["search.runs"] == 1
        assert t.counters["search.omega_calls"] == 5


class TestHandCheckedCounters:
    """Exact prune totals on blocks small enough to derive by hand."""

    def setup_method(self):
        from repro.machine.presets import paper_simulation_machine

        self.machine = paper_simulation_machine()

    def test_independent_constants(self):
        # k independent Const tuples, all interchangeable (no pipeline,
        # no predecessors, identical — empty — successor sets):
        #   * pricing the list-schedule seed costs k omega calls; the
        #     seed is already NOP-free, so best = 0.
        #   * at the root, step [5c] filters k-1 of the k equivalent
        #     candidates (equivalence = k-1) and one Const is pushed
        #     (omega call k+1).
        #   * the 1-tuple prefix already has mu = 0 >= best, so step [6]
        #     cuts it off (alpha_beta = 1) and the search is done.
        k = 5
        text = "\n".join(f"{i + 1}: Const {i + 1}" for i in range(k))
        dag = DependenceDAG(parse_block(text, "consts"))
        result = schedule_block(dag, self.machine, BARE)
        assert result.completed
        assert result.omega_calls == k + 1
        assert result.prune_counts == prune_counts(
            equivalence=k - 1, alpha_beta=1
        )

    def test_serial_chain(self):
        # A 3-tuple dependence chain has exactly one legal order:
        #   * seed pricing costs 3 omega calls (best = 0 NOPs: loads
        #     retire before their consumers need them here).
        #   * at the root, 2 of the 3 tuples are not yet ready
        #     (rho not contained in Phi), so legality = 2; the head is
        #     pushed (omega call 4).
        #   * the prefix's mu = 0 >= best means step [6] stops the
        #     search (alpha_beta = 1).
        text = "1: Const 5\n2: Add 1, 1\n3: Add 2, 2"
        dag = DependenceDAG(parse_block(text, "chain"))
        result = schedule_block(dag, self.machine, BARE)
        assert result.completed
        assert result.omega_calls == 4
        assert result.prune_counts == prune_counts(legality=2, alpha_beta=1)

    def test_curtail_truncation_counted_once(self, figure3_dag):
        result = schedule_block(
            figure3_dag, self.machine, SearchOptions(curtail=5)
        )
        assert not result.completed
        assert result.prune_counts["curtail"] == 1

    def test_timeout_truncation(self, figure3_dag):
        result = schedule_block(
            figure3_dag, self.machine, SearchOptions(time_limit=1e-9)
        )
        assert result.timed_out
        assert not result.completed
        assert result.prune_counts["timeout"] == 1

    def test_registry_accumulates_across_searches(self, figure3_dag):
        telemetry = Telemetry()
        schedule_block(figure3_dag, self.machine, telemetry=telemetry)
        schedule_block(figure3_dag, self.machine, telemetry=telemetry)
        assert telemetry.counters["search.runs"] == 2
        assert telemetry.counters["search.completed"] == 2
        single = schedule_block(figure3_dag, self.machine)
        assert (
            telemetry.counters["search.omega_calls"] == 2 * single.omega_calls
        )


class TestOtherSchedulers:
    def test_multi_pipeline_search_reports(self, figure3_dag, example_machine):
        telemetry = Telemetry()
        result = schedule_block_multi(
            figure3_dag, example_machine, telemetry=telemetry
        )
        assert telemetry.counters["search.runs"] == 1
        assert telemetry.counters["search.omega_calls"] == result.omega_calls
        assert set(result.prune_counts) == set(PRUNE_KINDS)

    def test_split_search_reports(self, figure3_dag, sim_machine):
        telemetry = Telemetry()
        result = schedule_block_split(
            figure3_dag, sim_machine, window=4, telemetry=telemetry
        )
        assert telemetry.counters["search.runs"] == 1
        assert set(result.prune_counts) == set(PRUNE_KINDS)


class TestStatsJson:
    def test_compile_cli_writes_stats(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        rc = compile_main(
            ["-e", "b = 15; a = b * a;", "--stats-json", str(path)]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        for kind in PRUNE_KINDS:
            assert f"prune.{kind}" in payload["counters"]
        assert payload["meta"]["machine"] == "paper-simulation"

    def test_experiments_cli_aggregates_across_workers(
        self, tmp_path, capsys
    ):
        path = tmp_path / "stats.json"
        rc = experiments_main(
            [
                "table7",
                "--blocks",
                "12",
                "--workers",
                "2",
                "--stats-json",
                str(path),
            ]
        )
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        counters = payload["counters"]
        # The five prune classes of the ISSUE contract, present even
        # when zero, aggregated over every worker process.
        for kind in ("legality", "bounds", "equivalence", "alpha_beta", "curtail"):
            assert f"prune.{kind}" in counters
        assert counters["search.runs"] == counters["blocks.scheduled"] == 12
        assert payload["meta"]["workers"] == 2
        assert "phase.population" in payload["timers"]
