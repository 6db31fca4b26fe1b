"""Tests for the multi-pipeline selection extension (footnote 3)."""

import itertools

import pytest
from hypothesis import given, settings

from repro.ir.dag import DependenceDAG
from repro.ir.ops import Opcode
from repro.ir.textual import parse_block
from repro.machine.machine import MachineDescription, first_pipeline_assignment
from repro.machine.pipeline import PipelineDesc
from repro.machine.presets import asymmetric_units_machine
from repro.sched.multi import round_robin_assignment, schedule_block_multi
from repro.sched.nop_insertion import compute_timing
from repro.sched.search import SearchOptions, schedule_block

from .strategies import blocks


class TestStaticAssignments:
    def test_first_pipeline(self, figure3_dag, example_machine):
        assignment = first_pipeline_assignment(figure3_dag, example_machine)
        assert assignment[3] == 1  # Load -> lowest loader
        assert assignment[4] == 5  # Mul -> multiplier
        assert assignment[1] is None  # Const uses no pipeline

    def test_round_robin_alternates(self, example_machine):
        block = parse_block("1: Load #a\n2: Load #b\n3: Load #c")
        dag = DependenceDAG(block)
        assignment = round_robin_assignment(dag, example_machine)
        assert [assignment[i] for i in (1, 2, 3)] == [1, 2, 1]


class TestJointSearch:
    def test_figure3_on_example_machine(self, figure3_dag, example_machine):
        result = schedule_block_multi(figure3_dag, example_machine)
        assert result.completed
        assert figure3_dag.is_legal_order(result.order)
        # The assignment must be viable for every instruction.
        for ident, pid in result.assignment.items():
            op = figure3_dag.block.by_ident(ident).op
            viable = example_machine.pipelines_for(op)
            assert (pid in viable) if viable else (pid is None)

    def test_never_loses_to_pinned_policies(self, example_machine):
        options = SearchOptions(curtail=200_000)
        texts = [
            "1: Load #a\n2: Load #b\n3: Add 1, 2\n4: Store #c, 3",
            "1: Load #a\n2: Load #b\n3: Add 1, 2\n4: Add 1, 2\n"
            "5: Add 3, 4\n6: Store #c, 5",
            "1: Load #a\n2: Mul 1, 1\n3: Mul 2, 2\n4: Store #a, 3",
        ]
        for text in texts:
            dag = DependenceDAG(parse_block(text))
            joint = schedule_block_multi(dag, example_machine, options)
            for policy in (first_pipeline_assignment, round_robin_assignment):
                pinned = schedule_block(
                    dag, example_machine, options,
                    assignment=policy(dag, example_machine),
                )
                assert joint.total_nops <= pinned.final_nops

    def test_two_loaders_beat_one(self, example_machine):
        """Two adjacent dependent loader users: with one loader pinned and
        enqueue time 1 there is no conflict, but pin both Adds to adder 3
        (enqueue 3!) and the second must stall; the joint search uses the
        second adder instead."""
        text = (
            "1: Load #a\n2: Load #b\n3: Add 1, 2\n4: Add 1, 2\n"
            "5: Store #x, 3\n6: Store #y, 4"
        )
        dag = DependenceDAG(parse_block(text))
        pinned = schedule_block(
            dag,
            example_machine,
            assignment=first_pipeline_assignment(dag, example_machine),
        )
        joint = schedule_block_multi(dag, example_machine)
        assert joint.total_nops < pinned.final_nops

    def test_timing_is_consistent_with_its_assignment(self, example_machine):
        text = "1: Load #a\n2: Load #b\n3: Add 1, 2\n4: Store #c, 3"
        dag = DependenceDAG(parse_block(text))
        result = schedule_block_multi(dag, example_machine)
        recomputed = compute_timing(
            dag, result.order, example_machine, assignment=result.assignment
        )
        assert recomputed.etas == result.etas
        assert recomputed.total_nops == result.total_nops

    def test_single_instruction(self, example_machine):
        dag = DependenceDAG(parse_block("1: Load #a"))
        result = schedule_block_multi(dag, example_machine)
        assert result.completed and result.total_nops == 0

    def test_seed_validation(self, figure3_dag, example_machine):
        with pytest.raises(ValueError, match="permutation"):
            schedule_block_multi(figure3_dag, example_machine, seed=(1, 2))


def _brute_force_multi(dag, machine):
    """Ground truth: minimum NOPs over every (legal order, assignment)."""
    per_tuple_choices = []
    idents = dag.idents
    for ident in idents:
        op = dag.block.by_ident(ident).op
        pids = sorted(machine.pipelines_for(op))
        per_tuple_choices.append(pids if pids else [None])
    best = None
    for order in dag.iter_legal_orders():
        for combo in itertools.product(*per_tuple_choices):
            assignment = dict(zip(idents, combo))
            nops = compute_timing(
                dag, order, machine, assignment=assignment
            ).total_nops
            if best is None or nops < best:
                best = nops
    return best


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "text",
        [
            "1: Load #a\n2: Load #b\n3: Add 1, 2",
            "1: Load #a\n2: Add 1, 1\n3: Add 2, 2\n4: Store #x, 3",
            "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Add 1, 2\n5: Store #x, 4",
        ],
    )
    def test_example_machine(self, text, example_machine):
        dag = DependenceDAG(parse_block(text))
        truth = _brute_force_multi(dag, example_machine)
        result = schedule_block_multi(
            dag, example_machine, SearchOptions(curtail=10_000_000)
        )
        assert result.completed
        assert result.total_nops == truth

    @pytest.mark.parametrize(
        "text",
        [
            "1: Load #a\n2: Mul 1, 1\n3: Mul 2, 2\n4: Store #x, 3",
            "1: Load #a\n2: Mul 1, 1\n3: Mul 1, 1\n4: Add 2, 3\n5: Store #x, 4",
        ],
    )
    def test_asymmetric_machine(self, text):
        machine = asymmetric_units_machine()
        dag = DependenceDAG(parse_block(text))
        truth = _brute_force_multi(dag, machine)
        result = schedule_block_multi(
            dag, machine, SearchOptions(curtail=10_000_000)
        )
        assert result.completed
        assert result.total_nops == truth


@given(blocks(min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_joint_matches_brute_force_on_random_blocks(block):
    machine = MachineDescription(
        "two-units",
        [
            PipelineDesc("u-fast", 1, latency=2, enqueue_time=2),
            PipelineDesc("u-slow", 2, latency=4, enqueue_time=1),
        ],
        {
            Opcode.LOAD: {1, 2},
            Opcode.MUL: {1, 2},
            Opcode.ADD: {2},
            Opcode.SUB: {2},
        },
    )
    dag = DependenceDAG(block)
    truth = _brute_force_multi(dag, machine)
    result = schedule_block_multi(
        dag, machine, SearchOptions(curtail=10_000_000)
    )
    assert result.completed
    assert result.total_nops == truth
