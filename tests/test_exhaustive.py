"""Tests for the exhaustive baselines (section 2.3)."""

import itertools
import math

from hypothesis import given, settings

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.sched.exhaustive import (
    count_legal_orders,
    exhaustive_search_size,
    iter_legal_orders,
    legal_only_search,
)
from repro.sched.nop_insertion import compute_timing

from .strategies import blocks, machines


class TestExhaustiveSize:
    def test_factorials(self):
        assert exhaustive_search_size(8) == 40_320
        assert exhaustive_search_size(11) == 39_916_800
        assert exhaustive_search_size(15) == 1_307_674_368_000  # "5 years"

    def test_matches_math(self):
        for n in range(10):
            assert exhaustive_search_size(n) == math.factorial(n)


class TestLegalOnlySearch:
    def test_figure3_optimum(self, figure3_dag, sim_machine):
        result = legal_only_search(figure3_dag, sim_machine)
        assert result.optimal_nops == 2
        assert result.exhausted
        assert result.omega_calls == count_legal_orders(figure3_dag)

    def test_matches_brute_force_over_permutations(self, sim_machine):
        block = parse_block(
            "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3"
        )
        dag = DependenceDAG(block)
        best = min(
            compute_timing(dag, perm, sim_machine).total_nops
            for perm in itertools.permutations(dag.idents)
            if dag.is_legal_order(perm)
        )
        assert legal_only_search(dag, sim_machine).optimal_nops == best

    def test_limit_truncates(self, figure3_dag, sim_machine):
        result = legal_only_search(figure3_dag, sim_machine, limit=2)
        assert not result.exhausted
        assert result.omega_calls == 2

    def test_single_instruction(self, sim_machine):
        dag = DependenceDAG(parse_block("1: Load #a"))
        result = legal_only_search(dag, sim_machine)
        assert result.optimal_nops == 0
        assert result.omega_calls == 1

    def test_count_helper(self, figure3_dag):
        assert count_legal_orders(figure3_dag) == sum(1 for _ in iter_legal_orders(figure3_dag))


@given(blocks(min_size=2, max_size=6), machines())
@settings(max_examples=60, deadline=None)
def test_legal_search_is_truly_optimal(block, machine):
    """Cross-validation against raw permutation enumeration."""
    dag = DependenceDAG(block)
    result = legal_only_search(dag, machine)
    brute = min(
        compute_timing(dag, perm, machine, check_legality=False).total_nops
        for perm in itertools.permutations(dag.idents)
        if dag.is_legal_order(perm)
    )
    assert result.optimal_nops == brute
