"""Tests for the postpass-scheduling comparison (sections 1 / 3.4)."""

import pytest
from hypothesis import given, settings

from repro.frontend.lowering import lower_source
from repro.ir.dag import DependenceDAG, DependenceEdge
from repro.ir.textual import parse_block
from repro.machine.presets import paper_simulation_machine
from repro.postpass.registers import (
    compare_prepass_postpass,
    postpass_dag,
    register_reuse_edges,
)
from repro.regalloc.allocator import allocate_registers
from repro.sched.exhaustive import count_legal_orders
from repro.sched.search import SearchOptions

from .strategies import blocks


class TestExtraEdges:
    def test_extra_edges_constrain_the_dag(self, figure3_block):
        plain = DependenceDAG(figure3_block)
        constrained = DependenceDAG(
            figure3_block, extra_edges=[DependenceEdge(2, 3, "anti")]
        )
        assert 2 in constrained.rho(3)
        assert 2 not in plain.rho(3)
        assert count_legal_orders(constrained) < count_legal_orders(plain)

    def test_backward_extra_edge_rejected(self, figure3_block):
        with pytest.raises(ValueError, match="backward"):
            DependenceDAG(
                figure3_block, extra_edges=[DependenceEdge(4, 1, "anti")]
            )

    def test_unknown_tuple_rejected(self, figure3_block):
        with pytest.raises(ValueError, match="outside the block"):
            DependenceDAG(
                figure3_block, extra_edges=[DependenceEdge(1, 99, "anti")]
            )

    def test_duplicate_of_true_edge_is_deduplicated(self, figure3_block):
        plain = DependenceDAG(figure3_block)
        doubled = DependenceDAG(
            figure3_block, extra_edges=[DependenceEdge(1, 4, "flow")]
        )
        assert len(doubled.edges) == len(plain.edges)


class TestReuseEdges:
    def test_register_reuse_serializes_independent_work(self):
        # Two independent load-mul-store chains; with 2 registers the
        # allocator reuses them across the chains, serializing them.
        block = lower_source("p = a * a; q = b * b;")
        allocation = allocate_registers(block)  # program order
        edges = register_reuse_edges(block, allocation)
        assert edges  # reuse must occur
        kinds = {e.kind for e in edges}
        assert kinds <= {"anti", "output"}

    def test_no_reuse_no_edges(self):
        # A single tiny chain never reuses a register.
        block = parse_block("1: Load #a\n2: Neg 1\n3: Store #b, 2")
        allocation = allocate_registers(block)
        # Neg's result may reuse Load's register (operand dies); that is
        # real reuse and yields edges parallel to the true dependence.
        dag, _ = postpass_dag(block)
        plain = DependenceDAG(block)
        assert count_legal_orders(dag) <= count_legal_orders(plain)

    def test_postpass_dag_is_always_consistent(self):
        block = lower_source("x = a * b; y = c * d; z = x + y;")
        dag, allocation = postpass_dag(block)
        assert dag.is_legal_order(block.idents)  # program order survives


class TestComparison:
    def test_penalty_on_independent_chains(self, sim_machine):
        """The paper's canonical scenario: two independent multiplies that
        a tight register file forces into sequence."""
        block = lower_source("p = a * a; q = b * b;")
        comparison = compare_prepass_postpass(block, sim_machine)
        assert comparison.prepass.completed and comparison.postpass.completed
        assert comparison.delay_penalty > 0

    def test_penalty_never_negative(self, sim_machine):
        """Postpass-legal schedules are a subset of prepass-legal ones
        (the fixed allocation witnesses the register budget), so postpass
        can never win."""
        from repro.synth.generator import generate_block

        for seed in range(15):
            gb = generate_block(10, 5, 3, seed=seed)
            if len(gb.block) < 2:
                continue
            comparison = compare_prepass_postpass(gb.block, sim_machine)
            assert comparison.delay_penalty >= 0, gb.block.name

    def test_generous_registers_shrink_the_penalty(self, sim_machine):
        """With a huge register file the program-order allocator still
        reuses (it recycles the lowest free register), but a fair
        comparison point: more registers => no more artificial pressure
        from spill-constrained budgets."""
        block = lower_source(
            "p = a * a; q = b * b; r = c * c; s = p + q; t = s + r;"
        )
        tight = compare_prepass_postpass(block, sim_machine, 4)
        loose = compare_prepass_postpass(block, sim_machine, 16)
        assert loose.postpass.final_nops <= tight.postpass.final_nops


class TestExperimentA3:
    def test_small_run(self):
        from repro.experiments.prepass import run_a3

        result = run_a3(n_blocks=15, register_files=(None, 4), curtail=10_000)
        assert result.penalty_never_negative
        assert len(result.rows) == 2
        text = result.render()
        assert "A3" in text and "penalty" in text
        assert "registers" in result.csv()


@given(blocks(min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_postpass_never_beats_prepass(block):
    machine = paper_simulation_machine()
    comparison = compare_prepass_postpass(
        block, machine, options=SearchOptions(curtail=200_000)
    )
    if comparison.prepass.completed and comparison.postpass.completed:
        assert comparison.delay_penalty >= 0
