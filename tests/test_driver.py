"""End-to-end tests for the compiler driver (Figure 2's back end)."""

import pytest

from repro.codegen.assembly import DelayDiscipline
from repro.driver import (
    SCHEDULERS,
    VerificationError,
    compile_source,
    verify_compilation,
)
from repro.machine.presets import (
    deep_memory_machine,
    paper_simulation_machine,
    unpipelined_units_machine,
)

FIGURE3_SOURCE = "{ b = 15; a = b * a; }"


class TestCompileSource:
    def test_figure3_end_to_end(self, sim_machine):
        result = compile_source(
            FIGURE3_SOURCE, sim_machine, verify_memory={"a": 3}
        )
        assert result.search.completed
        assert result.total_nops == 2
        assert result.issue_span_cycles == 7
        assert "MUL" in str(result.assembly)

    def test_every_scheduler_choice(self, sim_machine):
        nops = {}
        for scheduler in SCHEDULERS:
            result = compile_source(
                FIGURE3_SOURCE,
                sim_machine,
                scheduler=scheduler,
                verify_memory={"a": 4},
            )
            nops[scheduler] = result.total_nops
            if scheduler in ("optimal", "ilp"):
                assert result.search is not None
            else:
                assert result.search is None
        assert nops["optimal"] <= min(nops.values())
        assert nops["none"] == max(nops.values())

    def test_unknown_scheduler(self, sim_machine):
        with pytest.raises(ValueError, match="unknown scheduler"):
            compile_source("a = 1;", sim_machine, scheduler="magic")

    def test_optimization_toggle(self, sim_machine):
        source = "x = 2 + 3;"
        optimized = compile_source(source, sim_machine)
        raw = compile_source(source, sim_machine, optimize=False)
        assert len(optimized.block) < len(raw.block)
        assert len(optimized.raw_block) == len(raw.raw_block)

    def test_register_budget_inserts_spills(self, sim_machine):
        source = (
            "s = a + b; t = c + d; u = e + f; "
            "x = s + t; y = x + u; z = y + a;"
        )
        memory = {v: i + 1 for i, v in enumerate("abcdef")}
        result = compile_source(
            source, sim_machine, num_registers=4, verify_memory=memory
        )
        assert result.allocation.num_registers_used <= 4

    def test_disciplines(self, sim_machine):
        for discipline in DelayDiscipline:
            result = compile_source(
                FIGURE3_SOURCE, sim_machine, discipline=discipline
            )
            assert result.assembly.discipline is discipline

    def test_on_every_preset_machine(self):
        source = "p = a * b + c; q = p * p - a; r = q / 2;"
        memory = {"a": 2, "b": 3, "c": 4}
        for machine in (
            paper_simulation_machine(),
            deep_memory_machine(),
            unpipelined_units_machine(),
        ):
            result = compile_source(
                source, machine, verify_memory=memory
            )
            assert result.search.completed

    def test_empty_program(self, sim_machine):
        result = compile_source("", sim_machine)
        assert result.total_nops == 0
        assert len(result.block) == 0


class TestVerification:
    def test_verify_compilation_passes(self, sim_machine):
        result = compile_source(FIGURE3_SOURCE, sim_machine)
        verify_compilation(result, {"a": 3})

    def test_verify_detects_wrong_code(self, sim_machine):
        """Corrupt the compiled block and watch verification catch it."""
        import dataclasses

        result = compile_source("x = a + 1;", sim_machine)
        # Swap the optimized block for one computing something else.
        from repro.frontend.lowering import lower_source
        from repro.ir.dag import DependenceDAG

        wrong_block = lower_source("x = a + 2;")
        broken = dataclasses.replace(
            result,
            block=wrong_block,
            dag=DependenceDAG(wrong_block),
        )
        with pytest.raises(VerificationError, match="variable 'x'"):
            verify_compilation(broken, {"a": 1})

    def test_compile_verify_battery(self, sim_machine):
        """A battery of real little programs, verified end to end."""
        programs = [
            ("a = b; b = a;", {"a": 1, "b": 2}),
            ("x = -y * -y;", {"y": 5}),
            ("m = (a + b) * (a - b);", {"a": 9, "b": 4}),
            ("a = a + 1; a = a + 1; a = a + 1;", {"a": 0}),
            ("h = (x * x + y * y) / 2;", {"x": 3, "y": 4}),
            ("q = a / b; r = q * b;", {"a": 84, "b": 6}),
        ]
        for source, memory in programs:
            result = compile_source(source, sim_machine, verify_memory=memory)
            assert result.search.completed, source


class TestMultiScheduler:
    def test_multi_on_example_machine(self, example_machine):
        """The Tables 2+3 machine is non-deterministic: only the 'multi'
        scheduler accepts it, and verification passes end to end."""
        result = compile_source(
            "x = a + b; y = c + d; z = x + y; w = z * z;",
            example_machine,
            scheduler="multi",
            verify_memory={"a": 1, "b": 2, "c": 3, "d": 4},
        )
        assert result.pipeline_assignment is not None
        # Every assigned pipeline must be viable for its tuple's opcode.
        for ident, pid in result.pipeline_assignment.items():
            op = result.block.by_ident(ident).op
            viable = example_machine.pipelines_for(op)
            assert (pid in viable) if viable else (pid is None)

    def test_optimal_rejects_non_deterministic_machines(self, example_machine):
        with pytest.raises(Exception, match="deterministic"):
            compile_source("x = a + b;", example_machine, scheduler="optimal")

    def test_multi_never_beats_nothing(self, sim_machine):
        """On a deterministic machine, multi degenerates to the core
        search (one choice per op) and matches its optimum."""
        source = "p = a * a; q = b * b; r = p + q;"
        multi = compile_source(source, sim_machine, scheduler="multi")
        optimal = compile_source(source, sim_machine, scheduler="optimal")
        assert multi.total_nops == optimal.total_nops

    @pytest.mark.parametrize("registers", [3, 4, 5])
    @pytest.mark.parametrize("preset", ["paper-example", "asymmetric-units"])
    def test_multi_scheduler_keeps_the_register_budget(self, preset, registers):
        """The joint pipeline search keeps ``max_live``, so allocation
        after it needs no new spills (compile_source and compile_block)."""
        from repro.driver import compile_block
        from repro.machine.presets import get_machine

        source = (
            "a = b + c; d = e + f; g = h + i; j = k + l; "
            "m = a + d; n = g + j; o = m + n;"
        )
        memory = {v: i + 1 for i, v in enumerate("bcefhikl")}
        machine = get_machine(preset)
        compiled = compile_source(
            source, machine, scheduler="multi", num_registers=registers,
            verify_memory=memory,
        )
        assert compiled.allocation.num_registers_used <= registers
        tuples = compile_block(
            compiled.block, machine, scheduler="multi",
            num_registers=registers,
        )
        assert tuples.allocation.num_registers_used <= registers
