"""The unified ``repro`` entry point."""

from __future__ import annotations

import pytest

from repro import console

ALL_SUBCOMMANDS = ("compile", "experiments", "verify", "bench", "serve")


class TestDispatch:
    @pytest.mark.parametrize("sub", ALL_SUBCOMMANDS)
    def test_every_subcommand_has_help(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            console.main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # Help must advertise the *unified* prog, not the legacy script.
        assert f"repro {sub}" in out

    def test_no_arguments_prints_usage(self, capsys):
        assert console.main([]) == 0
        out = capsys.readouterr().out
        for sub in ALL_SUBCOMMANDS:
            assert sub in out

    def test_help_flag(self, capsys):
        assert console.main(["--help"]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_version(self, capsys):
        import repro

        assert console.main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert console.main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown subcommand" in err and "frobnicate" in err

    def test_registry_matches_dispatch_table(self):
        assert tuple(console.SUBCOMMANDS) == ALL_SUBCOMMANDS

    def test_compile_end_to_end(self, capsys):
        rc = console.main(
            ["compile", "-e", "b = 15; a = b * a;", "--show", "stats"]
        )
        assert rc == 0
        assert "omega calls" in capsys.readouterr().out


    def test_removed_vector_engine_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            console.main(["compile", "-e", "a = 1;", "--engine", "vector"])
        assert exc.value.code == 2
        assert "invalid choice: 'vector'" in capsys.readouterr().err
