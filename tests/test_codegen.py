"""Tests for assembly emission in the three delay disciplines."""

import pytest
from hypothesis import given, settings

from repro.codegen.assembly import (
    DelayDiscipline,
    explicit_stream,
    generate_assembly,
    padded_stream,
)
from repro.ir.dag import DependenceDAG
from repro.regalloc.allocator import allocate_registers
from repro.sched.nop_insertion import compute_timing
from repro.sched.search import schedule_block
from repro.simulator.core import PipelineSimulator

from .strategies import blocks, machines, memories


def compile_figure3(figure3_block, sim_machine, discipline):
    dag = DependenceDAG(figure3_block)
    result = schedule_block(dag, sim_machine)
    allocation = allocate_registers(figure3_block, result.best.order)
    return result.best, allocation, generate_assembly(
        figure3_block, result.best, allocation, discipline
    )


class TestNopPadded:
    def test_figure3(self, figure3_block, sim_machine):
        timing, allocation, asm = compile_figure3(
            figure3_block, sim_machine, DelayDiscipline.NOP_PADDED
        )
        text = str(asm)
        assert text.count("NOP") == timing.total_nops == asm.nop_count
        assert "LD" in text and "MUL" in text and "LI" in text and "ST" in text
        assert asm.instruction_count == 5
        assert asm.num_registers_used == allocation.num_registers_used

    def test_operands_use_allocated_registers(self, figure3_block, sim_machine):
        timing, allocation, asm = compile_figure3(
            figure3_block, sim_machine, DelayDiscipline.NOP_PADDED
        )
        mul_reg_a = allocation.registers[1]
        assert any(
            line.startswith("MUL") and f"R{mul_reg_a}" in line
            for line in asm.lines
        )


class TestExplicitInterlock:
    def test_wait_tags(self, figure3_block, sim_machine):
        timing, _, asm = compile_figure3(
            figure3_block, sim_machine, DelayDiscipline.EXPLICIT_INTERLOCK
        )
        tags = [line for line in asm.lines if line.startswith("[wait=")]
        assert len(tags) == 5
        assert asm.nop_count == 0
        total_wait = sum(
            int(line.split("=")[1].split("]")[0]) for line in tags
        )
        assert total_wait == timing.total_nops


class TestImplicitInterlock:
    def test_bare_instructions(self, figure3_block, sim_machine):
        _, _, asm = compile_figure3(
            figure3_block, sim_machine, DelayDiscipline.IMPLICIT_INTERLOCK
        )
        assert asm.nop_count == 0
        assert not any("wait" in line for line in asm.lines)


class TestStreams:
    def test_padded_stream_layout(self, figure3_dag, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        stream = padded_stream(timing)
        assert stream == [1, 2, 3, None, 4, None, None, None, 5]

    def test_explicit_stream_layout(self, figure3_dag, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        assert explicit_stream(timing) == [
            (1, 0), (2, 0), (3, 0), (4, 1), (5, 3)
        ]


class TestValidation:
    def test_mismatched_orders_rejected(self, figure3_block, sim_machine):
        dag = DependenceDAG(figure3_block)
        timing = compute_timing(dag, (1, 2, 3, 4, 5), sim_machine)
        allocation = allocate_registers(figure3_block, (3, 1, 4, 2, 5))
        with pytest.raises(ValueError, match="different orders"):
            generate_assembly(figure3_block, timing, allocation)

    def test_comment_timing(self, figure3_block, sim_machine):
        dag = DependenceDAG(figure3_block)
        timing = compute_timing(dag, (1, 2, 3, 4, 5), sim_machine)
        allocation = allocate_registers(figure3_block, timing.order)
        asm = generate_assembly(
            figure3_block, timing, allocation, comment_timing=True
        )
        assert any("; t=" in line for line in asm.lines)


@given(blocks(max_size=10), machines(), memories())
@settings(max_examples=60, deadline=None)
def test_emitted_padded_streams_replay_on_the_simulator(block, machine, memory):
    """The padded stream implied by the generated assembly executes
    hazard-free and computes what the interpreter computes."""
    from repro.ir.interp import run_block

    dag = DependenceDAG(block)
    result = schedule_block(dag, machine)
    allocation = allocate_registers(block, result.best.order)
    asm = generate_assembly(block, result.best, allocation)
    assert asm.nop_count == result.final_nops
    sim = PipelineSimulator(block, machine, dag)
    trace = sim.run_padded(padded_stream(result.best), memory)
    assert trace.memory == run_block(block, memory).memory
