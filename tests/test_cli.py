"""Tests for the repro-experiments command-line interface."""


import pytest

from repro.experiments.cli import ALL_EXPERIMENTS, main


class TestArguments:
    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "repro-experiments" in capsys.readouterr().out

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

    def test_non_population_experiment_skips_population(self, capsys):
        rc = main(["table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[population]" not in out
        assert "Table 1" in out
