"""Tests for inter-block scheduling (footnote 1): carry-in/carry-out
initial conditions and sequence scheduling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dag import DependenceDAG
from repro.ir.ops import Opcode
from repro.ir.textual import parse_block
from repro.machine.machine import MachineDescription
from repro.machine.pipeline import PipelineDesc
from repro.sched.interblock import carry_out, schedule_sequence
from repro.sched.nop_insertion import InitialConditions, compute_timing
from repro.sched.search import schedule_block
from repro.simulator.core import PipelineSimulator
from repro.verify.brute import sequential_etas

from .strategies import blocks, machines


class TestInitialConditions:
    def test_defaults_are_trivial(self):
        conditions = InitialConditions()
        assert conditions.is_trivial

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            InitialConditions(pipe_free={1: -1})
        with pytest.raises(ValueError):
            InitialConditions(variable_ready={"a": -2})

    def test_rendering(self):
        text = str(InitialConditions(pipe_free={2: 3}))
        assert "pipe_free" in text and "2: 3" in text


class TestCarryInTiming:
    def test_busy_pipeline_delays_first_issue(self, sim_machine):
        # Multiplier busy until cycle 2: a leading Mul must wait.
        block = parse_block("1: Const 2\n2: Const 3\n3: Mul 1, 2")
        dag = DependenceDAG(block)
        conditions = InitialConditions(pipe_free={2: 3})
        timing = compute_timing(
            dag, (1, 2, 3), sim_machine, initial=conditions
        )
        # Consts fill cycles 0-1; Mul may issue at 3 (base 2, one NOP).
        assert timing.etas == (0, 0, 1)
        mul_first = compute_timing(
            dag, (1, 2, 3), sim_machine
        )
        assert mul_first.total_nops == 0  # idle machine needs none

    def test_carry_in_delays_even_the_first_instruction(self, sim_machine):
        block = parse_block("1: Load #a")
        dag = DependenceDAG(block)
        conditions = InitialConditions(pipe_free={1: 2})
        timing = compute_timing(dag, (1,), sim_machine, initial=conditions)
        assert timing.etas == (2,)
        assert timing.issue_times == (2,)

    def test_variable_ready_blocks_loads(self, sim_machine):
        block = parse_block("1: Load #pending\n2: Load #free")
        dag = DependenceDAG(block)
        conditions = InitialConditions(variable_ready={"pending": 4})
        best = schedule_block(
            dag, sim_machine, initial_conditions=conditions
        )
        # Optimal order loads the free variable first while waiting.
        assert best.best.order[0] == 2
        assert best.final_nops < compute_timing(
            dag, (1, 2), sim_machine, initial=conditions
        ).total_nops

    def test_sequential_formulation_agrees_under_carry_in(self, sim_machine):
        block = parse_block(
            "1: Load #a\n2: Const 5\n3: Mul 1, 2\n4: Store #x, 3"
        )
        dag = DependenceDAG(block)
        conditions = InitialConditions(
            pipe_free={1: 2, 2: 4}, variable_ready={"a": 3}
        )
        for order in ((1, 2, 3, 4), (2, 1, 3, 4)):
            closed = compute_timing(
                dag, order, sim_machine, initial=conditions
            ).etas
            sequential = sequential_etas(
                dag, order, sim_machine, initial=conditions
            )
            assert closed == sequential

    def test_simulator_agrees_with_omega_under_carry_in(self, sim_machine):
        block = parse_block(
            "1: Load #a\n2: Mul 1, 1\n3: Store #x, 2"
        )
        dag = DependenceDAG(block)
        conditions = InitialConditions(pipe_free={1: 3, 2: 2})
        timing = compute_timing(dag, (1, 2, 3), sim_machine, initial=conditions)
        sim = PipelineSimulator(block, sim_machine, dag, initial=conditions)
        trace = sim.run_implicit((1, 2, 3), {"a": 2})
        assert trace.issue_cycles == timing.issue_times
        assert trace.stall_cycles == timing.total_nops


class TestCarryOut:
    def test_trailing_multiply_occupies_pipeline(self, sim_machine):
        # Mul issues last: the multiplier (enqueue 2) stays busy one cycle
        # into the successor block.
        block = parse_block("1: Const 2\n2: Const 3\n3: Mul 1, 2")
        dag = DependenceDAG(block)
        timing = compute_timing(dag, (1, 2, 3), sim_machine)
        out = carry_out(timing, dag, sim_machine)
        assert out.pipe_free == {2: 1}

    def test_early_multiply_leaves_nothing(self, sim_machine):
        block = parse_block("1: Const 2\n2: Mul 1, 1\n3: Const 4\n4: Const 5")
        dag = DependenceDAG(block)
        timing = compute_timing(dag, (1, 2, 3, 4), sim_machine)
        out = carry_out(timing, dag, sim_machine)
        assert out.pipe_free == {}

    def test_empty_block_carries_nothing(self, sim_machine):
        from repro.ir.block import BasicBlock

        dag = DependenceDAG(BasicBlock([]))
        timing = compute_timing(dag, (), sim_machine)
        assert carry_out(timing, dag, sim_machine).is_trivial


class TestScheduleSequence:
    BLOCKS = [
        "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #x, 3",
        "1: Load #x\n2: Mul 1, 1\n3: Store #y, 2",
        "1: Load #y\n2: Const 1\n3: Add 1, 2\n4: Store #z, 3",
    ]

    def _blocks(self):
        return [parse_block(text, f"b{i}") for i, text in enumerate(self.BLOCKS)]

    def test_sequence_schedules_every_block(self, sim_machine):
        seq = schedule_sequence(self._blocks(), sim_machine)
        assert len(seq) == 3
        assert seq.all_completed
        assert seq.total_nops == sum(r.final_nops for r in seq.results)

    def test_concatenated_stream_is_hazard_free(self, sim_machine):
        """The whole point of footnote 1: each block scheduled under its
        predecessor's carry-out replays back-to-back without hazards."""
        blocks_ = self._blocks()
        seq = schedule_sequence(blocks_, sim_machine)
        memory = {"a": 2, "b": 3}
        origin_ok = True
        for block, result, conditions in zip(
            blocks_, seq.results, seq.conditions
        ):
            sim = PipelineSimulator(
                block, sim_machine, initial=conditions
            )
            stream = []
            for ident, eta in zip(result.best.order, result.best.etas):
                stream.extend([None] * eta)
                stream.append(ident)
            trace = sim.run_padded(stream, memory)  # HazardError on bug
            memory = dict(trace.memory)
        assert memory["z"] == (2 * 3) * (2 * 3) + 1

    def test_carry_in_can_cost_nops_the_isolated_schedule_misses(self):
        """Scheduling block B as if the machine were idle under-pads when
        a long-enqueue pipeline is still busy; the sequence scheduler
        accounts for it (and the simulator proves the isolated schedule
        wrong)."""
        machine = MachineDescription(
            "slow-mult",
            [PipelineDesc("mult", 1, latency=6, enqueue_time=6)],
            {Opcode.MUL: {1}},
        )
        a = parse_block("1: Const 2\n2: Mul 1, 1", "A")
        b = parse_block("1: Const 3\n2: Mul 1, 1", "B")
        seq = schedule_sequence([a, b], machine)
        # Block B must absorb the multiplier still busy from block A.
        assert seq.results[1].final_nops > 0
        # The naive (idle-start) schedule of B has fewer NOPs...
        naive = schedule_block(DependenceDAG(b), machine)
        assert naive.final_nops < seq.results[1].final_nops
        # ...and under-pads: replaying it after A faults on the simulator.
        from repro.simulator.core import HazardError

        sim = PipelineSimulator(
            b, machine, initial=seq.conditions[1]
        )
        stream = []
        for ident, eta in zip(naive.best.order, naive.best.etas):
            stream.extend([None] * eta)
            stream.append(ident)
        with pytest.raises(HazardError):
            sim.run_padded(stream)

    def test_entry_conditions_are_honoured(self, sim_machine):
        blocks_ = self._blocks()[:1]
        entry = InitialConditions(pipe_free={1: 5})
        seq = schedule_sequence(blocks_, sim_machine, entry_conditions=entry)
        assert seq.conditions[0] == entry
        assert seq.results[0].final_nops >= 1  # loads must wait


@given(blocks(min_size=2, max_size=8), machines())
@settings(max_examples=60, deadline=None)
def test_sequence_of_random_blocks_replays_hazard_free(block, machine):
    """Property: schedule the same random block twice back-to-back; the
    second copy's schedule under carry-out must replay cleanly on a
    simulator seeded with those conditions, with matching issue times."""
    seq = schedule_sequence([block, block], machine)
    result = seq.results[1]
    conditions = seq.conditions[1]
    dag = DependenceDAG(block)
    sim = PipelineSimulator(block, machine, dag, initial=conditions)
    stream = []
    for ident, eta in zip(result.best.order, result.best.etas):
        stream.extend([None] * eta)
        stream.append(ident)
    memory = {v: 1 for v in ("a", "b", "c", "d")}
    trace = sim.run_padded(stream, memory)
    assert trace.issue_cycles == result.best.issue_times


@given(
    blocks(min_size=1, max_size=8),
    machines(),
    st.integers(0, 6),
    st.integers(0, 6),
)
@settings(max_examples=80, deadline=None)
def test_sequential_equals_closed_form_under_carry_in(
    block, machine, pipe_delay, var_delay
):
    """The Ω oracle property extended to arbitrary carry-in conditions."""
    conditions = InitialConditions(
        pipe_free={p.ident: pipe_delay for p in machine.pipelines},
        variable_ready={"a": var_delay, "c": max(0, var_delay - 1)},
        tuple_ready={block.idents[-1]: pipe_delay + var_delay},
    )
    dag = DependenceDAG(block)
    from repro.sched.list_scheduler import list_schedule

    for order in (dag.idents, list_schedule(dag)):
        closed = compute_timing(
            dag, order, machine, initial=conditions
        ).etas
        sequential = sequential_etas(
            dag, order, machine, initial=conditions
        )
        assert closed == sequential


@given(blocks(min_size=1, max_size=8), machines(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_simulator_matches_omega_under_carry_in(block, machine, delay):
    conditions = InitialConditions(
        pipe_free={p.ident: delay for p in machine.pipelines},
        tuple_ready={block.idents[-1]: 2 * delay},
    )
    dag = DependenceDAG(block)
    order = dag.idents
    timing = compute_timing(dag, order, machine, initial=conditions)
    sim = PipelineSimulator(block, machine, dag, initial=conditions)
    memory = {v: 1 for v in ("a", "b", "c", "d")}
    trace = sim.run_implicit(order, memory)
    assert trace.issue_cycles == timing.issue_times
    assert trace.stall_cycles == timing.total_nops
