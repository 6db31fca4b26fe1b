"""Tests for the repro-compile command-line compiler."""

import pytest

from repro.cli import _parse_memory, main


class TestArguments:
    def test_requires_source(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_both_file_and_expr(self, capsys, tmp_path):
        src = tmp_path / "p.src"
        src.write_text("a = 1;")
        with pytest.raises(SystemExit):
            main([str(src), "-e", "a = 2;"])

    def test_list_machines(self, capsys):
        assert main(["--list-machines"]) == 0
        out = capsys.readouterr().out
        assert "paper-simulation" in out and "paper-example" in out

    def test_memory_parsing(self):
        assert _parse_memory("a=3, b=15") == {"a": 3, "b": 15}
        with pytest.raises(Exception):
            _parse_memory("a")
        with pytest.raises(Exception):
            _parse_memory("a=x")

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/path.src"]) == 2
        assert "repro-compile:" in capsys.readouterr().err

    def test_unknown_machine(self, capsys):
        assert main(["-e", "a = 1;", "--machine", "pdp-11"]) == 2


class TestCompilation:
    def test_expression_to_stdout(self, capsys):
        assert main(["-e", "b = 15; a = b * a;"]) == 0
        out = capsys.readouterr().out
        assert "MUL" in out and "NOP" in out

    def test_show_all(self, capsys):
        assert main(["-e", "b = 15; a = b * a;", "--show", "all"]) == 0
        out = capsys.readouterr().out
        assert "tuple code" in out
        assert "DAG" in out
        assert "schedule (ident@cycle)" in out
        assert "provably optimal" in out

    def test_verify_success(self, capsys):
        rc = main(
            ["-e", "b = 15; a = b * a;", "--verify", "a=3", "--show", "stats"]
        )
        assert rc == 0
        assert "verification" in capsys.readouterr().out

    def test_verify_failure_on_bad_memory(self, capsys):
        # Missing initial value for 'a': the source interpreter faults,
        # which must surface as exit code 1, not a traceback.
        rc = main(["-e", "b = a * 2;", "--verify", "c=1"])
        assert rc == 1
        assert "repro-compile:" in capsys.readouterr().err

    def test_file_and_output(self, tmp_path, capsys):
        src = tmp_path / "p.src"
        src.write_text("x = a + b;")
        out_path = tmp_path / "p.s"
        assert main([str(src), "-o", str(out_path)]) == 0
        assert "LD" in out_path.read_text()

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("x = 1 + 2;"))
        assert main(["-"]) == 0
        assert "LI" in capsys.readouterr().out

    def test_machine_file(self, tmp_path, capsys):
        machine_file = tmp_path / "m.txt"
        machine_file.write_text(
            "machine custom\npipeline loader 1 3 1\nop Load 1\n"
        )
        rc = main(
            ["-e", "x = a; y = x + b;", "--machine", f"@{machine_file}",
             "--show", "stats"]
        )
        assert rc == 0
        assert "NOPs" in capsys.readouterr().out

    @pytest.mark.parametrize("scheduler", ["optimal", "gross", "greedy", "list", "none"])
    def test_every_scheduler(self, scheduler, capsys):
        assert main(["-e", "a = b * c;", "--scheduler", scheduler]) == 0

    @pytest.mark.parametrize(
        "discipline", ["nop-padded", "explicit-interlock", "implicit-interlock"]
    )
    def test_every_discipline(self, discipline, capsys):
        assert main(["-e", "a = b * c;", "--discipline", discipline]) == 0
        out = capsys.readouterr().out
        if discipline == "explicit-interlock":
            assert "[wait=" in out

    def test_register_budget(self, capsys):
        rc = main(
            ["-e", "s = a + b; t = c + d; u = s + t; v = u + a;",
             "--registers", "4", "--show", "stats", "--verify",
             "a=1,b=2,c=3,d=4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "registers used" in out

    def test_no_optimize(self, capsys):
        assert main(["-e", "x = 2 + 3;", "--no-optimize", "--show", "tuples"]) == 0
        out = capsys.readouterr().out
        assert "Add" in out  # folding skipped

    def test_show_timeline_and_explain(self, capsys):
        rc = main(
            ["-e", "b = 15; a = b * a;", "--show", "timeline", "--show", "explain"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "loader" in out and "multiplier" in out
        assert "dependence: waits for tuple" in out

    def test_timeline_and_explain_on_the_chosen_pipelines(self, capsys):
        """A multi-scheduled block renders on the pipelines the
        scheduler chose: paper-example offers Load two loaders."""
        rc = main(
            ["-e", "b = 15; a = b * a;", "--machine", "paper-example", "--scheduler",
             "multi", "--show", "timeline", "--show", "explain"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "loader" in out

    def test_explain_no_stalls(self, capsys):
        rc = main(["-e", "a = b; c = d;", "--show", "explain"])
        assert rc == 0
        assert "no stalls anywhere" in capsys.readouterr().out


class TestTuplesMode:
    def test_tuple_input(self, tmp_path, capsys):
        src = tmp_path / "block.tup"
        src.write_text("1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3\n")
        rc = main([str(src), "--tuples", "--show", "stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "provably optimal" in out

    def test_tuples_never_optimized(self, capsys):
        # x = 2 + 3 as raw tuples must keep its Add (no folding).
        rc = main(
            ["-e", "1: Const 2\n2: Const 3\n3: Add 1, 2\n4: Store #x, 3",
             "--tuples", "--show", "tuples"]
        )
        assert rc == 0
        assert "Add" in capsys.readouterr().out

    def test_tuples_verify_runs_certificate_only(self, capsys):
        # Tuple input has no source semantics to simulate; --verify
        # degrades to the independent certificate check.
        rc = main(
            ["-e", "1: Load #a\n2: Neg 1\n3: Store #b, 2", "--tuples",
             "--verify", "a=1", "--show", "stats"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "certificate re-derived" in out
        assert "source semantics" not in out

    def test_bad_tuple_syntax_is_reported(self, capsys):
        rc = main(["-e", "1: Jump 2", "--tuples"])
        assert rc == 1
        assert "repro-compile:" in capsys.readouterr().err


class TestCompileBlockApi:
    def test_every_scheduler(self, capsys):
        from repro.driver import compile_block
        from repro.ir.textual import parse_block
        from repro.machine.presets import paper_simulation_machine

        block = parse_block("1: Load #a\n2: Mul 1, 1\n3: Store #b, 2")
        machine = paper_simulation_machine()
        spans = {}
        for scheduler in ("optimal", "gross", "greedy", "list", "none"):
            result = compile_block(block, machine, scheduler=scheduler)
            spans[scheduler] = result.issue_span_cycles
        assert spans["optimal"] <= min(spans.values())

    def test_register_budget(self):
        from repro.driver import compile_block
        from repro.frontend.lowering import lower_source
        from repro.machine.presets import paper_simulation_machine

        block = lower_source(
            "s = a + b; t = c + d; u = s + t; v = u + a;"
        )
        result = compile_block(
            block, paper_simulation_machine(), num_registers=4
        )
        assert result.allocation.num_registers_used <= 4

    def test_unknown_scheduler(self):
        from repro.driver import compile_block
        from repro.ir.textual import parse_block
        from repro.machine.presets import paper_simulation_machine

        with pytest.raises(ValueError, match="unknown scheduler"):
            compile_block(
                parse_block("1: Load #a"),
                paper_simulation_machine(),
                scheduler="magic",
            )
