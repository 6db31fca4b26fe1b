"""Tests for multi-block programs: barrier parsing, splitting, and the
compile_program driver (footnote 1 made user-facing)."""

import pytest

from repro import driver
from repro.driver import VerificationError, compile_program, compile_source
from repro.frontend.ast import run_program
from repro.frontend.lowering import lower_program
from repro.frontend.parser import ParseError, parse_program
from repro.ir.ops import Opcode
from repro.machine.machine import MachineDescription
from repro.machine.pipeline import PipelineDesc
from repro.machine.presets import get_machine
from repro.sched.nop_insertion import InitialConditions
from repro.simulator.core import HazardError
from repro.simulator.register_machine import RegisterMachine

#: One slow unpipelined memory unit, shared by Load and Store.
SLOW_MEMORY = MachineDescription(
    "slow-memory",
    [PipelineDesc("memory", 1, latency=6, enqueue_time=6)],
    {Opcode.LOAD: {1}, Opcode.STORE: {1}},
)

#: A Store in block 0 keeps the memory unit busy into block 1.
STRADDLING = "a = x * x; barrier; b = y * y;"


class TestBarrierParsing:
    def test_barrier_statement(self):
        program = parse_program("a = 1; barrier; b = 2;")
        kinds = [type(s).__name__ for s in program]
        assert kinds == ["Assignment", "Barrier", "Assignment"]
        assert program.has_barriers

    def test_barrier_is_reserved(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_program("x = barrier + 1;")

    def test_barrier_requires_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("a = 1; barrier b = 2;")

    def test_rendering(self):
        assert "barrier;" in str(parse_program("a = 1; barrier; b = 2;"))


class TestSplitBlocks:
    def test_three_way_split(self):
        program = parse_program("a = 1; barrier; b = 2; c = 3; barrier; d = 4;")
        blocks = program.split_blocks()
        assert [len(b) for b in blocks] == [1, 2, 1]
        assert not any(b.has_barriers for b in blocks)

    def test_degenerate_barriers_dropped(self):
        program = parse_program("barrier; a = 1; barrier; barrier; b = 2; barrier;")
        blocks = program.split_blocks()
        assert [len(b) for b in blocks] == [1, 1]

    def test_barrier_free_program_is_one_block(self):
        assert len(parse_program("a = 1; b = 2;").split_blocks()) == 1

    def test_semantics_ignore_barriers(self):
        with_b = parse_program("a = 1; barrier; b = a + 1;")
        without = parse_program("a = 1; b = a + 1;")
        assert run_program(with_b, {}) == run_program(without, {})

    def test_variables_skip_barriers(self):
        program = parse_program("a = x; barrier; b = a;")
        assert program.variables_written() == ("a", "b")

    def test_lowering_rejects_barriers(self):
        with pytest.raises(ValueError, match="split_blocks"):
            lower_program(parse_program("a = 1; barrier; b = 2;"))


class TestCompileProgram:
    SOURCE = "a = x * y; barrier; b = a * a; barrier; c = b + a;"
    MEMORY = {"x": 2, "y": 3}

    def test_blocks_and_verification(self, sim_machine):
        compiled = compile_program(
            self.SOURCE, sim_machine, verify_memory=self.MEMORY
        )
        assert len(compiled) == 3
        assert compiled.all_optimal
        assert compiled.total_nops == sum(b.total_nops for b in compiled.blocks)
        assert "; block program.1" in compiled.assembly_text

    def test_matches_source_semantics(self, sim_machine):
        # verify_memory raising nothing IS the assertion; also sanity-check
        # the expected values by hand: a=6, b=36, c=42.
        compiled = compile_program(
            self.SOURCE, sim_machine, verify_memory=self.MEMORY
        )
        expected = run_program(compiled.program, self.MEMORY)
        assert expected["c"] == 42

    def test_register_machine_memory_checked_in_every_block(
        self, sim_machine, monkeypatch
    ):
        # A wrong register in block 1's assembly text surfaces only if
        # the register machine's own stores are compared.
        run_text = RegisterMachine.run_text

        def wrong_b(self, text, memory=None, **kwargs):
            trace = run_text(self, text, memory, **kwargs)
            if "b" in trace.memory:
                wrong = {**trace.memory, "b": trace.memory["b"] + 1}
                trace = trace._replace(memory=wrong)
            return trace

        monkeypatch.setattr(RegisterMachine, "run_text", wrong_b)
        with pytest.raises(VerificationError, match="block 1: .*'b'"):
            compile_program(self.SOURCE, sim_machine, verify_memory=self.MEMORY)

    def test_barrier_free_source_is_single_block(self, sim_machine):
        compiled = compile_program("a = x * y;", sim_machine)
        assert len(compiled) == 1

    def test_empty_program(self, sim_machine):
        compiled = compile_program("", sim_machine)
        assert len(compiled) == 1 and compiled.total_nops == 0

    def test_unknown_scheduler(self, sim_machine):
        with pytest.raises(ValueError, match="unknown scheduler"):
            compile_program("a = 1;", sim_machine, scheduler="magic")

    @pytest.mark.parametrize("scheduler", ["optimal", "gross", "greedy", "list", "none"])
    def test_every_scheduler_verifies(self, scheduler, sim_machine):
        compile_program(
            self.SOURCE,
            sim_machine,
            scheduler=scheduler,
            verify_memory=self.MEMORY,
        )

    @pytest.mark.parametrize("preset", ["paper-example", "asymmetric-units"])
    def test_multi_scheduler_takes_carry_in_conditions(self, preset):
        """Each block's pipeline choice reaches the next block's carry-in
        conditions and both simulators."""
        compiled = compile_program(
            "a = x * y; b = x + y; c = a * b; barrier; d = a * c + b; e = d * d;",
            get_machine(preset),
            scheduler="multi",
            verify_memory=self.MEMORY,
        )
        assert len(compiled) == 2
        assert all(block.pipeline_assignment for block in compiled.blocks)

    def test_register_budget(self, sim_machine):
        source = (
            "s = a + b; t = c + d; u = s + t; barrier; "
            "v = u * u; w = v + s; barrier; r = w - t;"
        )
        memory = {"a": 1, "b": 2, "c": 3, "d": 4}
        compiled = compile_program(
            source, sim_machine, num_registers=4, verify_memory=memory
        )
        for block in compiled.blocks:
            assert block.allocation.num_registers_used <= 4

    def test_carry_out_threads_between_blocks(self):
        """A slow unpipelined memory unit (shared by Load and Store)
        straddling a barrier: block 0's final Store keeps the unit busy
        into block 1, whose leading Load must absorb the carried
        occupancy — more NOPs than on an idle machine."""
        compiled = compile_program(
            STRADDLING, SLOW_MEMORY, verify_memory={"x": 2, "y": 3}
        )
        isolated = compile_source("b = y * y;", SLOW_MEMORY)
        assert compiled.blocks[1].total_nops > isolated.total_nops

    def test_verification_checks_the_hand_off(self, monkeypatch):
        """verify_program runs the blocks as one stream, not under the
        carry-in conditions scheduling used: a block scheduled on an idle
        machine after the straddling Store fails it."""
        monkeypatch.setattr(driver, "_carry_out", lambda result, machine: InitialConditions())
        compile_program(STRADDLING, SLOW_MEMORY)  # compiles, unverified
        with pytest.raises(HazardError, match="under-padded"):
            compile_program(STRADDLING, SLOW_MEMORY, verify_memory={"x": 2, "y": 3})

    def test_barriers_cost_scheduling_freedom(self, sim_machine):
        """The same statements with and without barriers: the partitioned
        program can never need fewer cycles (reordering across the
        boundary is forbidden)."""
        joined = "a = x * y; b = p * q; c = a + b;"
        split = "a = x * y; barrier; b = p * q; barrier; c = a + b;"
        memory = {"x": 2, "y": 3, "p": 4, "q": 5}
        free = compile_program(joined, sim_machine, verify_memory=memory)
        fenced = compile_program(split, sim_machine, verify_memory=memory)
        assert fenced.total_cycles >= free.total_cycles


class TestCliBarrierPath:
    def test_cli_compiles_multi_block(self, capsys):
        from repro.cli import main

        rc = main(
            ["-e", "a = x * y; barrier; b = a * a;",
             "--show", "all", "--verify", "x=2,y=3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "blocks: 2" in out
        assert "block program.0" in out and "block program.1" in out
        assert "verification" in out

    def test_cli_multi_block_verification_failure(self, capsys):
        from repro.cli import main

        rc = main(["-e", "a = x * y; barrier; b = a;", "--verify", "y=1"])
        assert rc == 1
        assert "repro-compile:" in capsys.readouterr().err

    def test_cli_verifies_multi_scheduler_program(self, capsys):
        """Each block is certified on the pipelines the multi scheduler
        chose for it, and under the carry-in conditions they leave."""
        from repro.cli import main

        rc = main(
            ["-e", "a = b + c; d = b + c + a; e = c + d; barrier; f = a + b; g = f + c;",
             "--machine", "paper-example", "--scheduler", "multi",
             "--verify", "a=1,b=2,c=3,d=4", "--show", "asm", "--show", "stats"]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "; verification: simulated output matches source semantics" in captured.out

    def test_cli_certifies_each_block_under_its_recorded_carry_in(self, capsys, monkeypatch):
        import dataclasses

        from repro import cli

        compile_program = cli.compile_program

        def late_a(*args, **kwargs):
            compiled = compile_program(*args, **kwargs)
            first, second = compiled.blocks
            late = InitialConditions(variable_ready={"a": 20})
            return compiled._replace(blocks=(first, dataclasses.replace(second, initial=late)))

        monkeypatch.setattr(cli, "compile_program", late_a)
        rc = cli.main(["-e", "a = x * y; barrier; b = a * a;", "--verify", "x=2,y=3"])
        assert rc == 1
        assert "certificate REJECTED block 1:" in capsys.readouterr().err


def test_compile_block_supports_multi():
    from repro.driver import compile_block
    from repro.ir.textual import parse_block
    from repro.machine.presets import paper_example_machine

    block = parse_block("1: Load #a\n2: Load #b\n3: Add 1, 2\n4: Store #c, 3")
    result = compile_block(block, paper_example_machine(), scheduler="multi")
    assert result.pipeline_assignment is not None
