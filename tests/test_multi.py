"""Tests for the multi-pipeline selection extension (footnote 3)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver import compile_source
from repro.ir.dag import DependenceDAG
from repro.ir.ops import Opcode
from repro.ir.textual import parse_block
from repro.machine.machine import MachineDescription, first_pipeline_assignment
from repro.machine.pipeline import PipelineDesc
from repro.machine.presets import PRESETS, asymmetric_units_machine, get_machine
from repro.sched.bounds import downstream_chains, root_bound
from repro.sched.core import _Flat
from repro.sched.multi import round_robin_assignment, schedule_block_multi
from repro.sched.nop_insertion import compute_timing
from repro.sched.reference import RelaxedResolver
from repro.sched.search import SearchOptions, schedule_block
from repro.synth.kernels import KERNELS

from .strategies import blocks
from .test_deadline_bound import carry_ins


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

    def test_extra_incumbent_validation(self, figure3_dag, example_machine):
        order = figure3_dag.idents
        with pytest.raises(ValueError, match="cover the whole block"):
            schedule_block_multi(
                figure3_dag, example_machine, extra_incumbents=[(order[:2], {})]
            )
        # Tuple 3 is a Load: it has two loaders and no unpipelined choice.
        assignment = first_pipeline_assignment(figure3_dag, example_machine)
        with pytest.raises(ValueError, match="cannot execute tuple 3"):
            schedule_block_multi(
                figure3_dag, example_machine,
                extra_incumbents=[(order, {**assignment, 3: None})],
            )


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


def _two_units_machine():
    """Loads and multiplies choose between a fast unit that blocks for
    two cycles and a slow fully pipelined one; adds use the slow one."""
    return MachineDescription(
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


@given(blocks(min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_joint_matches_brute_force_on_random_blocks(block):
    machine = _two_units_machine()
    dag = DependenceDAG(block)
    truth = _brute_force_multi(dag, machine)
    result = schedule_block_multi(
        dag, machine, SearchOptions(curtail=10_000_000)
    )
    assert result.completed
    assert result.total_nops == truth


@given(blocks(min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_relaxed_root_bound_is_admissible(block):
    """The root bound over open pipeline choices (smallest viable
    latency, no pipeline of its own) never exceeds the true optimum."""
    machine = _two_units_machine()
    dag = DependenceDAG(block)
    flat = _Flat(dag, machine, RelaxedResolver(dag, machine), None)
    assert root_bound(flat, downstream_chains(flat)) <= _brute_force_multi(
        dag, machine
    )


@given(blocks(min_size=2, max_size=8), st.data())
@settings(max_examples=40, deadline=None)
def test_joint_never_loses_to_pinned_on_random_blocks(block, data):
    """Under the same carry-in conditions (or none), the joint search
    never loses to a pinned policy, and its NOPs are its own schedule's."""
    for machine in (_two_units_machine(), asymmetric_units_machine()):
        dag = DependenceDAG(block)
        initial = data.draw(st.one_of(st.none(), carry_ins(machine, dag)))
        joint = schedule_block_multi(dag, machine, initial_conditions=initial)
        assert joint.completed
        assert joint.total_nops == compute_timing(
            dag, joint.order, machine, assignment=joint.assignment,
            initial=initial,
        ).total_nops
        for policy in (first_pipeline_assignment, round_robin_assignment):
            pinned = schedule_block(
                dag, machine, assignment=policy(dag, machine),
                initial_conditions=initial,
            )
            assert pinned.completed
            assert joint.total_nops <= pinned.final_nops


_DETERMINISTIC = [
    name for name in sorted(PRESETS) if get_machine(name).is_deterministic
]


@pytest.mark.parametrize("preset", _DETERMINISTIC)
def test_deterministic_presets_match_the_block_search(preset):
    """With one pipeline per tuple the joint search is the block search:
    every kernel gets the same NOPs and both complete."""
    machine = get_machine(preset)
    for kernel in KERNELS:
        block = compile_source(
            kernel.source, get_machine("paper-simulation"), scheduler="none"
        ).block
        dag = DependenceDAG(block)
        joint = schedule_block_multi(dag, machine)
        core = schedule_block(dag, machine)
        assert (joint.total_nops, joint.completed) == (
            core.final_nops,
            core.completed,
        ), kernel.name
