"""Tests for the repro-experiments command-line interface."""

import os

import pytest

from repro.experiments.cli import ALL_EXPERIMENTS, main
from repro.experiments.parallel import default_workers, env_workers


class TestArguments:
    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "repro-experiments" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["abc", "-2", "1.5"])
    def test_bad_repro_workers_is_a_parser_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(SystemExit) as exc:
            main(["table1"])
        assert exc.value.code == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_repro_workers_parses_in_one_place(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert env_workers() == default_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert env_workers() == default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert env_workers() is None
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_experiment_registry(self):
        assert "table1" in ALL_EXPERIMENTS
        assert "table7" in ALL_EXPERIMENTS
        for fig in ("fig1", "fig4", "fig5", "fig6", "fig7"):
            assert fig in ALL_EXPERIMENTS


class TestExecution:
    def test_population_experiments_share_one_run(self, capsys):
        rc = main(["table7", "fig5", "--blocks", "25", "--curtail", "4000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[population] scheduling") == 1
        assert "Table 7" in out and "Figure 5" in out

    def test_out_writes_render_and_csv(self, tmp_path, capsys):
        rc = main(
            ["fig5", "--blocks", "20", "--out", str(tmp_path), "--seed", "3"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        text = (tmp_path / "fig5.txt").read_text()
        assert text.startswith("Figure 5")
        # The .txt is the printed table, byte for byte.
        assert f"\n{text}\n" in printed
        assert "bucket_start" in (tmp_path / "csv" / "fig5.csv").read_text()

    def test_engine_reaches_ablation_a2(self, monkeypatch, capsys):
        """``--engine reference`` runs A2's searches on the reference
        engine (and only there: the fast engine never starts)."""
        import functools

        import repro.sched.core as core
        import repro.sched.reference as reference
        from repro.experiments import ablation

        calls = []

        def counted(*args, **kwargs):
            calls.append("reference")
            return run_reference(*args, **kwargs)

        def no_fast(*args, **kwargs):
            raise AssertionError("the fast engine ran")

        run_reference = reference.run_reference_search
        monkeypatch.setattr(reference, "run_reference_search", counted)
        monkeypatch.setattr(core, "run_fast_search", no_fast)
        monkeypatch.setattr(
            ablation, "run_a2", functools.partial(ablation.run_a2, n_blocks=20)
        )
        assert main(["ablation-a2", "--engine", "reference"]) == 0
        assert len(calls) >= 20
        assert "A2" in capsys.readouterr().out

    def test_engine_reaches_every_experiment(self, monkeypatch, capsys):
        from repro.experiments import cli

        class Stub:
            joint_never_loses = True

            def render(self):
                return "stub"

            def csv(self):
                return ""

        seen = {}

        def recorder(name):
            def run(**kwargs):
                seen[name] = kwargs.get("engine")
                return Stub()
            return run

        runners = {
            "table1": (cli.table1, "run"),
            "ablation-a1": (cli.ablation, "run_a1"),
            "ablation-a2": (cli.ablation, "run_a2"),
            "ablation-a3": (cli.prepass, "run_a3"),
            "kernels": (cli.kernels, "run"),
            "loops": (cli.loops, "run"),
            "stalls": (cli.stalls, "run"),
            "machines": (cli.machines, "run"),
            "extension-x1": (cli.extension, "run_x1"),
            "extension-x2": (cli.extension, "run_x2"),
        }
        for name, (module, attr) in runners.items():
            monkeypatch.setattr(module, attr, recorder(name))
        assert main([*runners, "--engine", "reference"]) == 0
        assert seen == dict.fromkeys(runners, "reference")

    def test_non_population_experiment_skips_population(self, capsys):
        rc = main(["table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[population]" not in out
        assert "Table 1" in out
