"""Tests for the schedule-analysis helpers (timeline, stall attribution,
utilization)."""

from hypothesis import given, settings

from repro.analysis import (
    explain_schedule,
    pipeline_utilization,
    render_timeline,
    stall_breakdown,
)
from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.sched.nop_insertion import InitialConditions, compute_timing
from repro.sched.search import schedule_block

from .strategies import blocks, machines


class TestRenderTimeline:
    def test_figure3_timeline(self, figure3_block, figure3_dag, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        text = render_timeline(figure3_block, sim_machine, timing, dag=figure3_dag)
        lines = text.splitlines()
        assert "loader" in lines[0] and "multiplier" in lines[0]
        # One row per cycle through the drain of the last result.
        body = lines[2:]
        assert len(body) >= timing.issue_span_cycles
        assert any("(nop)" in line for line in body)
        assert any("#" in line for line in body)

    def test_enqueue_window_marked(self, sim_machine):
        # Mul enqueue time 2: the issue cycle is '#', the next '='.
        block = parse_block("1: Const 2\n2: Mul 1, 1\n3: Store #x, 2")
        dag = DependenceDAG(block)
        timing = compute_timing(dag, (1, 2, 3), sim_machine)
        text = render_timeline(block, sim_machine, timing, dag=dag)
        mul_cycle = timing.issue_times[1]
        rows = text.splitlines()[2:]
        assert "#" in rows[mul_cycle]
        assert "=" in rows[mul_cycle + 1]
        assert "-" in rows[mul_cycle + 2]  # latency tail

    def test_carry_in_rendered(self, sim_machine):
        block = parse_block("1: Load #a")
        dag = DependenceDAG(block)
        conditions = InitialConditions(pipe_free={1: 2})
        timing = compute_timing(dag, (1,), sim_machine, initial=conditions)
        text = render_timeline(
            block, sim_machine, timing, initial=conditions, dag=dag
        )
        rows = text.splitlines()[2:]
        assert "=" in rows[0] and "=" in rows[1]  # carried busy window

    def test_empty_schedule(self, sim_machine):
        from repro.ir.block import BasicBlock

        block = BasicBlock([])
        dag = DependenceDAG(block)
        timing = compute_timing(dag, (), sim_machine)
        text = render_timeline(block, sim_machine, timing, dag=dag)
        assert "cycle" in text


class TestExplainSchedule:
    def test_dependence_stall_attributed(self, figure3_dag, figure3_block, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        explanations = explain_schedule(
            figure3_block, sim_machine, timing, dag=figure3_dag
        )
        by_ident = {e.ident: e for e in explanations}
        assert by_ident[4].cause == "dependence"  # Mul waits on the Load
        assert "tuple 3" in by_ident[4].detail
        assert by_ident[5].cause == "dependence"  # Store waits on the Mul
        assert by_ident[1].cause == "none"

    def test_conflict_stall_attributed(self, sim_machine):
        block = parse_block(
            "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Mul 1, 2"
        )
        dag = DependenceDAG(block)
        timing = compute_timing(dag, (1, 2, 3, 4), sim_machine)
        explanations = explain_schedule(block, sim_machine, timing, dag=dag)
        last = explanations[-1]
        assert last.cause == "conflict"
        assert "pipeline 2" in last.detail

    def test_carry_in_attributed(self, sim_machine):
        block = parse_block("1: Load #a")
        dag = DependenceDAG(block)
        conditions = InitialConditions(pipe_free={1: 3})
        timing = compute_timing(dag, (1,), sim_machine, initial=conditions)
        explanations = explain_schedule(
            block, sim_machine, timing, initial=conditions, dag=dag
        )
        assert explanations[0].cause == "carry-in"
        assert explanations[0].eta == 3

    def test_variable_carry_in_attributed(self, sim_machine):
        block = parse_block("1: Load #pending")
        dag = DependenceDAG(block)
        conditions = InitialConditions(variable_ready={"pending": 4})
        timing = compute_timing(dag, (1,), sim_machine, initial=conditions)
        explanations = explain_schedule(
            block, sim_machine, timing, initial=conditions, dag=dag
        )
        assert explanations[0].cause == "carry-in"
        assert "pending" in explanations[0].detail

    def test_tuple_carry_in_attributed(self, sim_machine):
        block = parse_block("1: Const 2\n2: Const 3\n3: Add 1, 2")
        dag = DependenceDAG(block)
        conditions = InitialConditions(tuple_ready={2: 5})
        timing = compute_timing(dag, (1, 2, 3), sim_machine, initial=conditions)
        explanations = explain_schedule(
            block, sim_machine, timing, initial=conditions, dag=dag
        )
        assert explanations[1].cause == "carry-in"
        assert explanations[1].eta == 4
        assert "tuple 2" in explanations[1].detail

    def test_breakdown_sums_to_total(self, figure3_dag, figure3_block, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        explanations = explain_schedule(
            figure3_block, sim_machine, timing, dag=figure3_dag
        )
        breakdown = stall_breakdown(explanations)
        assert sum(breakdown.values()) == timing.total_nops

    def test_rendering(self, figure3_dag, figure3_block, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        explanations = explain_schedule(
            figure3_block, sim_machine, timing, dag=figure3_dag
        )
        texts = [str(e) for e in explanations]
        assert any("no stall" in t for t in texts)
        assert any("NOP" in t for t in texts)


class TestUtilization:
    def test_figure3(self, figure3_block, figure3_dag, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        util = pipeline_utilization(
            figure3_block, sim_machine, timing, dag=figure3_dag
        )
        assert set(util) == {1, 2}
        assert 0.0 < util[1] <= 1.0  # one load
        assert 0.0 < util[2] <= 1.0  # one mul

    def test_unused_pipeline_is_zero(self, sim_machine):
        block = parse_block("1: Load #a")
        dag = DependenceDAG(block)
        timing = compute_timing(dag, (1,), sim_machine)
        util = pipeline_utilization(block, sim_machine, timing, dag=dag)
        assert util[2] == 0.0


@given(blocks(min_size=1, max_size=10), machines())
@settings(max_examples=60, deadline=None)
def test_explanations_always_account_for_every_nop(block, machine):
    """Property: the per-cause breakdown partitions the schedule's NOPs,
    and every positive-eta instruction gets a non-'none' cause."""
    dag = DependenceDAG(block)
    result = schedule_block(dag, machine)
    explanations = explain_schedule(block, machine, result.best, dag=dag)
    assert sum(e.eta for e in explanations) == result.final_nops
    for e in explanations:
        if e.eta > 0:
            assert e.cause in ("dependence", "conflict", "carry-in")
            assert e.detail
    # The timeline must render without error for any schedule.
    render_timeline(block, machine, result.best, dag=dag)
