"""Tests for the experiment harness (small-scale runs of every table and
figure, checking invariants rather than absolute numbers)."""

import csv
import io

import pytest

from repro.experiments import (
    ablation,
    extension,
    fig1,
    fig4,
    fig5,
    fig6,
    fig7,
    table1,
    table7,
)
from repro.experiments.runner import bucket_by_size, mean, population_size, run_population


@pytest.fixture(scope="module")
def records():
    """One shared small population run for all figure/table tests."""
    return run_population(80, curtail=20_000, master_seed=2024)


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestRunner:
    def test_records_are_consistent(self, records):
        assert len(records) == 80
        for r in records:
            assert r.size > 0
            assert 0 <= r.final_nops <= r.initial_nops or r.final_nops <= r.seed_nops
            assert r.final_nops <= r.seed_nops  # search never loses to its seed
            assert r.omega_calls > 0
            assert r.elapsed_seconds >= 0

    def test_population_size_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert population_size() == 160
        monkeypatch.delenv("REPRO_SCALE")
        assert population_size(default_scale=1.0) == 16_000

    def test_bucket_by_size(self, records):
        buckets = bucket_by_size(records, bucket=5)
        assert sum(len(v) for v in buckets.values()) == len(records)
        for start, rs in buckets.items():
            assert all(start <= r.size < start + 5 for r in rs)

    def test_mean_of_empty(self):
        assert mean([]) != mean([])  # NaN


class TestTable7:
    def test_render_and_invariants(self, records):
        result = table7.Table7Result(records, curtail=20_000)
        text = result.render()
        assert "Table 7" in text and "Percentage of Runs" in text
        complete = result.column(result.complete)
        assert 80.0 <= complete["percentage"] <= 100.0
        # Final NOPs collapse well below initial (the paper's headline).
        assert complete["avg_final_nops"] < 0.5 * complete["avg_initial_nops"]

    def test_csv(self, records):
        rows = parse_csv(table7.Table7Result(records, 20_000).csv())
        assert rows[0][0] == "statistic"
        assert len(rows) == 8  # header + 7 statistics


class TestFigures:
    def test_fig1(self, records):
        result = fig1.Fig1Result(records)
        assert "Figure 1" in result.render()
        assert all(calls >= size for size, calls in result.points())

    def test_fig4(self, records):
        result = fig4.Fig4Result(records)
        series = result.series()
        assert set(series) == {"initial NOPs", "list-schedule NOPs", "final NOPs"}
        slope, _ = result.linear_fit()
        assert 0.2 < slope < 0.8  # paper: ~0.46/instruction
        text = result.render()
        assert "nearly constant" in text or "final NOPs average" in text

    def test_fig5(self, records):
        result = fig5.Fig5Result(records)
        hist = result.histogram()
        assert sum(c for _, c in hist) == len(records)
        assert "Figure 5" in result.render()

    def test_fig6(self, records):
        result = fig6.Fig6Result(records)
        assert result.blocks_per_second > 10  # paper: ~100 on a Sun 3/50
        assert "Figure 6" in result.render()

    def test_fig7(self, records):
        result = fig7.Fig7Result(records)
        assert 0.0 <= result.overall_percentage <= 100.0
        for start, pct, count in result.series():
            assert 0.0 <= pct <= 100.0 and count > 0
        assert "Figure 7" in result.render()

    def test_all_csvs_parse(self, records):
        for result_class in (
            fig1.Fig1Result,
            fig4.Fig4Result,
            fig5.Fig5Result,
            fig6.Fig6Result,
            fig7.Fig7Result,
        ):
            rows = parse_csv(result_class(records).csv())
            assert len(rows) >= 2


class TestTable1:
    def test_small_run(self):
        result = table1.run(sizes=(6, 8, 10), master_seed=1701, curtail=50_000)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.exhaustive_calls >= row.proposed_calls_paper_prunes
            if row.legal_calls > 0:  # not capped
                assert row.exhaustive_calls >= row.legal_calls
        text = result.render()
        assert "Table 1" in text
        rows = parse_csv(result.csv())
        assert rows[0][0] == "size"

    def test_paper_sizes_constant(self):
        assert table1.PAPER_SIZES == (8, 11, 13, 13, 14, 16, 16, 16, 20, 21, 22)


class TestAblation:
    def test_a1(self):
        result = ablation.run_a1(n_blocks=20, curtail=5_000)
        assert result.optimality_consistent
        labels = [r.label for r in result.rows]
        assert "all prunes (default)" in labels
        assert "paper prunes only" in labels
        assert "A1" in result.render()
        assert len(parse_csv(result.csv())) == len(result.rows) + 1

    def test_a2(self):
        result = ablation.run_a2(n_blocks=150, base_curtail=400, multipliers=(1, 5))
        assert len(result.rows) == 2
        # Raising lambda can only help or tie.
        assert result.rows[1].still_truncated <= result.rows[0].still_truncated
        assert result.rows[1].avg_final_nops <= result.rows[0].avg_final_nops + 1e-9
        assert "A2" in result.render()


class TestExtensions:
    def test_x1(self):
        result = extension.run_x1(n_blocks=8, curtail=20_000)
        assert result.joint_never_loses
        assert len(result.rows) == 6  # 3 policies x 2 machines
        assert "X1" in result.render()

    def test_x1_conclusion_follows_the_rows(self):
        def rows(machine, first, joint, wins):
            return [
                extension.X1Row(machine, "first-pipeline (pinned)", first, 0, 0, 0),
                extension.X1Row(machine, "round-robin (pinned)", 3.5, 0, 0, 0),
                extension.X1Row(machine, "joint search (extension)", joint, 0, 0, wins),
            ]

        result = extension.X1Result(
            rows("twins", 3.72, 2.97, 29) + rows("same", 0.5, 0.5, 0),
            n_blocks=100, joint_never_loses=True,
        )
        assert result.conclusion() == (
            "on twins first-pipeline pinning loses to the joint search on "
            "29 of 100 blocks (3.72 against 2.97 average NOPs; round-robin "
            "3.50); on same an optimal order compensates for first-pipeline "
            "pinning (0.50 against 0.50 average NOPs; round-robin 3.50)"
        )
        assert result.render().endswith(result.conclusion())

    def test_x1_gates_the_exit_status(self, monkeypatch, capsys):
        from repro.experiments import cli

        losing = extension.X1Result([], n_blocks=0, joint_never_loses=False)
        monkeypatch.setattr(extension, "run_x1", lambda **_: losing)
        assert cli.main(["extension-x1"]) == 1
        assert "lost to a pinned policy" in capsys.readouterr().err
        monkeypatch.setattr(
            extension, "run_x1",
            lambda **_: extension.X1Result([], n_blocks=0, joint_never_loses=True),
        )
        assert cli.main(["extension-x1"]) == 0

    def test_x2(self):
        result = extension.run_x2(n_blocks=4, curtail=20_000)
        assert len(result.rows) == 3
        mono_paper, mono_full, split = result.rows
        assert split.avg_nops >= mono_full.avg_nops  # optimum is a floor
        assert "X2" in result.render()

    def test_x2_conclusion_follows_the_rows(self):
        def result(full_max):
            return extension.X2Result(
                [extension.X2Row("monolithic, paper prunes", 0.6, 11_408, 50_000, 87),
                 extension.X2Row("monolithic, all prunes", 0.03, 1_824, full_max, 97),
                 extension.X2Row("split (window=20)", 0.77, 175.4, 458, 100)],
                n_blocks=30, avg_size=54.1, window=20,
            )

        bounded = result(50_000).conclusion()
        assert "average 175 omega (max 458) against 1,824 (max 50,000)" in bounded
        assert "+0.74 NOPs per block" in bounded
        assert bounded.endswith("splitting bounds the worst case even against every prune")
        assert result(458).conclusion().endswith(
            "with every prune the monolithic search needs no splitting"
        )


class TestStalls:
    def test_taxonomy_partitions_total_nops(self):
        from repro.experiments import stalls

        result = stalls.run(n_blocks=40, curtail=10_000)
        assert result.n_blocks > 0
        # Optimal never has more stalls of any cause than naive overall.
        assert sum(result.optimal.values()) <= sum(result.naive.values())
        # Dependence dominates naive stalls on this machine.
        assert result.naive.get("dependence", 0) > result.naive.get("conflict", 0)
        # Scheduling removes most of them.
        assert result.removed_pct("dependence") > 80.0
        text = result.render()
        assert "stall cause" in text and "removed" in text
        assert "cause" in result.csv()


class TestKernelsExperimentInCli:
    def test_cli_runs_kernels_and_stalls(self, capsys):
        from repro.experiments.cli import main

        rc = main(["kernels"])
        assert rc == 0
        assert "realistic kernels" in capsys.readouterr().out


class TestMachinesSweep:
    def test_sweep_invariants(self):
        from repro.experiments import machines

        result = machines.run(n_blocks=15, curtail=8_000)
        assert result.n_blocks > 0
        by_name = {r.machine: r for r in result.rows}
        # Optimal never exceeds naive anywhere.
        for row in result.rows:
            assert row.avg_optimal_nops <= row.avg_naive_nops
            assert 0.0 <= row.complete_pct <= 100.0
        # Deeper multipliers cost strictly more naive stalls.
        assert (
            by_name["mul-l2-e1"].avg_naive_nops
            < by_name["mul-l8-e1"].avg_naive_nops
        )
        # Unpipelined variant is never easier than the pipelined one.
        assert (
            by_name["mul-l8-e8"].hidden_pct <= by_name["mul-l8-e1"].hidden_pct
        )
        assert "M —" in result.render() or "M —" in result.render()
        assert "machine" in result.csv()
