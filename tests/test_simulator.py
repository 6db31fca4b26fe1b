"""Tests for the cycle-accurate simulator — and the paper's central
orthogonality claim: hardware interlocks and compiler NOPs cost the same
cycles (section 2.2)."""

import pytest
from hypothesis import given, settings

from repro.codegen.assembly import DelayDiscipline, generate_assembly
from repro.ir.dag import DependenceDAG
from repro.ir.interp import run_block
from repro.ir.textual import parse_block
from repro.regalloc.allocator import allocate_registers
from repro.sched.list_scheduler import list_schedule
from repro.sched.nop_insertion import compute_timing
from repro.sched.search import schedule_block
from repro.simulator.core import (
    NOP,
    HazardError,
    PipelineSimulator,
    simulate_schedule,
)
from repro.simulator.register_machine import RegisterMachine

from .strategies import blocks, machines, memories


class TestImplicitInterlock:
    def test_figure3_program_order(self, figure3_block, sim_machine):
        sim = PipelineSimulator(figure3_block, sim_machine)
        trace = sim.run_implicit((1, 2, 3, 4, 5), {"a": 3})
        # Hardware stalls == compiler NOPs: 5 instructions + 4 stalls.
        assert trace.total_cycles == 9
        assert trace.stall_cycles == 4
        assert trace.memory["a"] == 45 and trace.memory["b"] == 15

    def test_issue_cycles_match_omega(self, figure3_block, sim_machine):
        dag = DependenceDAG(figure3_block)
        order = (3, 1, 4, 2, 5)
        timing = compute_timing(dag, order, sim_machine)
        sim = PipelineSimulator(figure3_block, sim_machine, dag)
        trace = sim.run_implicit(order, {"a": 3})
        assert trace.issue_cycles == timing.issue_times

    def test_illegal_order_rejected(self, figure3_block, sim_machine):
        sim = PipelineSimulator(figure3_block, sim_machine)
        with pytest.raises(ValueError, match="violates"):
            sim.run_implicit((4, 1, 3, 2, 5))

    def test_partial_order_rejected(self, figure3_block, sim_machine):
        sim = PipelineSimulator(figure3_block, sim_machine)
        with pytest.raises(ValueError, match="whole block"):
            sim.run_implicit((1, 2, 3))


class TestNopPadded:
    def test_correctly_padded_stream_runs(self, figure3_block, sim_machine):
        # Program order with the Ω-computed NOPs: 1,2,3,NOP,4,NOP,NOP,NOP,5
        stream = [1, 2, 3, NOP, 4, NOP, NOP, NOP, 5]
        sim = PipelineSimulator(figure3_block, sim_machine)
        trace = sim.run_padded(stream, {"a": 3})
        assert trace.total_cycles == 9
        assert trace.stall_cycles == 4
        assert trace.memory["a"] == 45

    def test_underpadded_stream_faults(self, figure3_block, sim_machine):
        stream = [1, 2, 3, 4, NOP, NOP, NOP, 5]  # Mul issued 1 tick early
        sim = PipelineSimulator(figure3_block, sim_machine)
        with pytest.raises(HazardError, match="not safe"):
            sim.run_padded(stream, {"a": 3})

    def test_overpadded_stream_is_legal(self, figure3_block, sim_machine):
        stream = [1, NOP, NOP, 2, 3, NOP, NOP, 4, NOP, NOP, NOP, NOP, 5]
        sim = PipelineSimulator(figure3_block, sim_machine)
        trace = sim.run_padded(stream, {"a": 3})
        assert trace.memory["a"] == 45

    def test_simulate_schedule_wrapper(self, figure3_block, sim_machine):
        dag = DependenceDAG(figure3_block)
        result = schedule_block(dag, sim_machine)
        trace = simulate_schedule(
            figure3_block, sim_machine, result.best.order, result.best.etas,
            {"a": 3},
        )
        assert trace.total_cycles == result.best.issue_span_cycles
        assert trace.memory["a"] == 45


class TestCompletionDrain:
    def test_completion_includes_last_latency(self, sim_machine):
        block = parse_block("1: Load #a")
        sim = PipelineSimulator(block, sim_machine)
        trace = sim.run_implicit((1,), {"a": 1})
        assert trace.total_cycles == 1
        assert trace.completion_cycle == 2  # load latency drains after issue


# ----------------------------------------------------------------------
# Properties: the simulator *is* the timing model.
# ----------------------------------------------------------------------
@given(blocks(max_size=10), machines(), memories())
@settings(max_examples=100, deadline=None)
def test_interlock_cycles_equal_schedule_length_plus_nops(block, machine, memory):
    """For any legal order: implicit-interlock cycle count == |Pi| + mu(Pi),
    and the memory matches the reference interpreter."""
    dag = DependenceDAG(block)
    order = list_schedule(dag)
    timing = compute_timing(dag, order, machine)
    sim = PipelineSimulator(block, machine, dag)
    trace = sim.run_implicit(order, memory)
    assert trace.total_cycles == timing.issue_span_cycles
    assert trace.stall_cycles == timing.total_nops
    assert trace.issue_cycles == timing.issue_times
    assert trace.memory == run_block(block, memory, order=order).memory


@given(blocks(max_size=10), machines(), memories())
@settings(max_examples=80, deadline=None)
def test_padded_streams_from_omega_never_fault(block, machine, memory):
    """Ω's NOP counts are always sufficient: expanding them into a padded
    stream replays without hazards, in exactly the same cycles."""
    dag = DependenceDAG(block)
    order = list_schedule(dag)
    timing = compute_timing(dag, order, machine)
    trace = simulate_schedule(
        block, machine, timing.order, timing.etas, memory
    )
    assert trace.total_cycles == timing.issue_span_cycles
    assert trace.memory == run_block(block, memory).memory


@given(blocks(max_size=9), machines(), memories())
@settings(max_examples=60, deadline=None)
def test_all_three_disciplines_agree(block, machine, memory):
    """Section 2.2's orthogonality: implicit, explicit, and NOP-padded
    execution of the same schedule take identical cycles and produce
    identical memory (explicit waits run as assembly text on the
    register machine)."""
    dag = DependenceDAG(block)
    order = list_schedule(dag)
    timing = compute_timing(dag, order, machine)
    sim = PipelineSimulator(block, machine, dag)
    implicit = sim.run_implicit(order, memory)
    assembly = generate_assembly(
        block, timing, allocate_registers(block, timing.order),
        DelayDiscipline.EXPLICIT_INTERLOCK,
    )
    explicit = RegisterMachine(machine).run_text(str(assembly), memory)
    padded = simulate_schedule(block, machine, timing.order, timing.etas, memory)
    assert implicit.total_cycles == explicit.total_cycles == padded.total_cycles
    assert implicit.memory == explicit.memory == padded.memory
