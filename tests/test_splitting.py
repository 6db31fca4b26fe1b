"""Tests for the block-splitting extension (section 5.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import ladder_schedule
from repro.ir.dag import DependenceDAG
from repro.ir.ops import Opcode
from repro.ir.textual import parse_block
from repro.machine.machine import MachineDescription, first_pipeline_assignment
from repro.machine.pipeline import PipelineDesc
from repro.resilience.budget import DEFAULT_SPLIT_CURTAIL, BlockBudget, BudgetManager
from repro.resilience.ladder import STEP_LIST_SEED, STEP_SPLIT
from repro.sched.list_scheduler import list_schedule
from repro.sched.nop_insertion import (
    IncrementalTimingState,
    InitialConditions,
    SigmaResolver,
    compute_timing,
)
from repro.sched.search import ENGINES, SearchOptions, schedule_block
from repro.sched.splitting import _carry_in, schedule_block_split, window_dag
from repro.synth.generator import generate_block

from .strategies import any_machines, blocks, machines
from .test_deadline_bound import carry_ins
from .test_hot_core import _fields


class TestBasics:
    def test_figure3_single_window_equals_search(self, figure3_dag, sim_machine):
        split = schedule_block_split(figure3_dag, sim_machine, window=20)
        full = schedule_block(figure3_dag, sim_machine)
        assert split.total_nops == full.final_nops == 2
        assert [len(w) for w in split.windows] == [5]

    def test_windows_partition_the_block(self, sim_machine):
        gb = generate_block(statements=25, variables=8, constants=4, seed=3)
        dag = DependenceDAG(gb.block)
        split = schedule_block_split(dag, sim_machine, window=7)
        flat = [i for w in split.windows for i in w]
        assert sorted(flat) == sorted(dag.idents)
        assert all(len(w) <= 7 for w in split.windows)

    def test_result_is_a_legal_schedule(self, sim_machine):
        gb = generate_block(statements=20, variables=6, constants=4, seed=9)
        dag = DependenceDAG(gb.block)
        split = schedule_block_split(dag, sim_machine, window=6)
        assert dag.is_legal_order(split.timing.order)
        recomputed = compute_timing(dag, split.timing.order, sim_machine)
        assert recomputed.etas == split.timing.etas

    def test_window_must_be_positive(self, figure3_dag, sim_machine):
        with pytest.raises(ValueError):
            schedule_block_split(figure3_dag, sim_machine, window=0)

    def test_seed_validation(self, figure3_dag, sim_machine):
        with pytest.raises(ValueError, match="permutation"):
            schedule_block_split(figure3_dag, sim_machine, seed=(1, 2))

    def test_empty_block(self, sim_machine):
        from repro.ir.block import BasicBlock

        dag = DependenceDAG(BasicBlock([]))
        split = schedule_block_split(dag, sim_machine)
        assert split.total_nops == 0
        assert split.windows == ()


class TestQuality:
    def test_windows_can_cost_more_than_the_seed(self):
        """Each window is optimal only from the state the earlier windows
        leave: window 1 here saves a NOP over its seed slice and leaves
        window 2 two more, so the stitched schedule costs 9 NOPs against
        the list seed's 8."""
        machine = MachineDescription(
            "loader-5", [PipelineDesc("loader", 1, 5, 1)], {Opcode.LOAD: {1}}
        )
        dag = DependenceDAG(parse_block(
            "1: Const 7\n2: Copy 1\n3: Copy 1\n4: Load #a\n5: Load #b\n6: Copy 5"
        ))
        initial = InitialConditions(variable_ready={"a": 6, "b": 8}, tuple_ready={1: 6})
        seeded = compute_timing(dag, list_schedule(dag), machine, initial=initial)
        split = schedule_block_split(dag, machine, window=4, initial_conditions=initial)
        assert (split.total_nops, seeded.total_nops) == (9, 8)

    def test_ladder_keeps_the_seed_over_a_costlier_split(self):
        """The degradation ladder publishes the split rung only when it
        beats the list seed; here the windows cost 2 NOPs, the seed 1."""
        machine = MachineDescription(
            "alu-4", [PipelineDesc("alu", 1, 4, 2)], {Opcode.ADD: {1}}
        )
        dag = DependenceDAG(parse_block(
            "1: Const 0\n2: Add 1, 1\n3: Add 1, 1\n4: Copy 3\n5: Copy 1\n6: Const 0"
        ))
        assert schedule_block_split(dag, machine, window=4).total_nops == 2
        out = _timed_out_ladder(dag, machine)
        assert out.degraded and out.ladder == STEP_LIST_SEED
        assert out.final_nops == out.result.initial_nops == 1
        assert out.timing == out.result.initial

    def test_at_least_optimal(self, sim_machine):
        """Windowed cost can never beat the true optimum."""
        for seed in (4, 5):
            gb = generate_block(statements=10, variables=5, constants=3, seed=seed)
            if len(gb.block) < 2:
                continue
            dag = DependenceDAG(gb.block)
            optimum = schedule_block(dag, sim_machine).final_nops
            split = schedule_block_split(dag, sim_machine, window=4)
            assert split.total_nops >= optimum


def _timed_out_ladder(dag, machine):
    """``ladder_schedule`` on a search that times out at once (the root
    bounds, which could prove the seed optimal first, are off), with
    4-instruction split windows."""
    budget = BudgetManager(block=BlockBudget(wall_clock=1e-9), split_window=4).start()
    options = budget.options_for_block(SearchOptions(
        lower_bound_prune=False, heuristic_seeds=False, dominance_prune=False
    ))
    return ladder_schedule(dag, machine, options, budget=budget)


@given(blocks(min_size=2, max_size=14), machines())
@settings(max_examples=40, deadline=None)
def test_ladder_publishes_the_split_only_below_the_seed(block, machine):
    """What holds in place of "never worse than the seed": a timed-out
    block publishes the cheaper of its split windows and its list seed,
    the seed on a tie."""
    dag = DependenceDAG(block)
    out = _timed_out_ladder(dag, machine)
    if not out.degraded:
        return
    seed_nops = out.result.initial_nops
    if out.ladder == STEP_SPLIT:
        assert out.final_nops < seed_nops
    else:
        assert out.ladder == STEP_LIST_SEED
        assert (out.timing, out.final_nops) == (out.result.initial, seed_nops)
        split = schedule_block_split(
            dag, machine, window=4, curtail_per_window=DEFAULT_SPLIT_CURTAIL
        )
        assert split.total_nops >= seed_nops


@given(blocks(min_size=2, max_size=14), machines())
@settings(max_examples=60, deadline=None)
def test_split_schedules_are_always_legal_and_consistent(block, machine):
    dag = DependenceDAG(block)
    split = schedule_block_split(dag, machine, window=4)
    assert dag.is_legal_order(split.timing.order)
    assert (
        compute_timing(dag, split.timing.order, machine).total_nops
        == split.total_nops
    )
    # Window sizes respect the cap and cover the block.
    sizes = [len(w) for w in split.windows]
    assert sum(sizes) == len(dag)
    assert all(size <= 4 for size in sizes)


def test_split_honours_carry_in_conditions(sim_machine):
    """Window scheduling over a non-idle machine: the first window's
    leading loads must absorb the carried loader occupancy."""
    from repro.sched.nop_insertion import InitialConditions

    gb = generate_block(statements=12, variables=6, constants=3, seed=13)
    dag = DependenceDAG(gb.block)
    idle = schedule_block_split(dag, sim_machine, window=5)
    busy = schedule_block_split(
        dag,
        sim_machine,
        window=5,
        initial_conditions=InitialConditions(pipe_free={1: 6, 2: 6}),
    )
    assert busy.total_nops >= idle.total_nops
    assert dag.is_legal_order(busy.timing.order)


class TestWindowSearch:
    """Each window is one block search over its sub-DAG, started from
    the committed windows' state."""

    def _window(self):
        gb = generate_block(statements=12, variables=6, constants=3, seed=13)
        dag = DependenceDAG(gb.block)
        return dag, list_schedule(dag)[5:11]

    def test_window_dag_keeps_the_inner_dependences(self):
        dag, members = self._window()
        sub = window_dag(dag, members)
        inside = set(members)
        assert sub.idents == tuple(sorted(members, key=dag.block.position_of))
        for i in sub.idents:
            assert sub.rho(i) == dag.rho(i) & inside
            assert sub.successors(i) == dag.successors(i) & inside
        # Operands still name producers of earlier windows.
        assert any(r not in inside for t in sub.block for r in t.value_refs)

    def test_every_engine_searches_a_window(self, sim_machine):
        """References leaving the sub-block are never looked up: every
        engine, the reference one included, searches it, bit for bit."""
        dag, members = self._window()
        sub = window_dag(dag, members)
        runs = [
            schedule_block(
                sub, sim_machine, SearchOptions(engine=engine), seed=members
            )
            for engine in ENGINES
        ]
        assert all(_fields(r) == _fields(runs[0]) for r in runs)
        assert sub.is_legal_order(runs[0].best.order)


@given(blocks(min_size=2, max_size=14), any_machines(), st.data())
@settings(max_examples=40, deadline=None)
def test_split_under_carry_in_is_exact_and_engine_independent(block, machine, data):
    """Under random carry-in conditions every engine splits identically,
    and each window's carry-in prices the committed windows exactly: Ω
    over the window's sub-DAG from its carry-in gives the same etas as Ω
    over the whole block."""
    dag = DependenceDAG(block)
    assignment = (
        None if machine.is_deterministic else first_pipeline_assignment(dag, machine)
    )
    initial = data.draw(carry_ins(machine, dag))
    runs = [
        schedule_block_split(
            dag, machine, window=4, assignment=assignment,
            initial_conditions=initial, engine=engine,
        )
        for engine in ENGINES
    ]
    split = runs[0]
    for other in runs[1:]:
        assert other.timing == split.timing
        assert other.omega_calls == split.omega_calls
        assert other.all_windows_completed == split.all_windows_completed
        assert dict(other.prune_counts) == dict(split.prune_counts)
    prefix = IncrementalTimingState(dag, SigmaResolver(dag, machine, assignment), initial)
    start = 0
    for members in split.windows:
        order = split.timing.order[start:start + len(members)]
        local = compute_timing(
            window_dag(dag, members), order, machine, assignment,
            initial=_carry_in(prefix, members),
        )
        assert local.etas == split.timing.etas[start:start + len(members)]
        for ident in order:
            prefix.push(ident)
        start += len(members)
