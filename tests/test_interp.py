"""Unit and property tests for the reference interpreter."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.ir.block import BasicBlock
from repro.ir.dag import DependenceDAG
from repro.ir.interp import (
    UndefinedVariableError,
    blocks_equivalent,
    run_block,
)
from repro.ir.textual import parse_block
from repro.ir.tuples import const, div, store
from repro.sched.exhaustive import iter_legal_orders

from .strategies import blocks, memories


class TestBasics:
    def test_figure3_semantics(self, figure3_block):
        result = run_block(figure3_block, {"a": 3})
        assert result["b"] == 15
        assert result["a"] == 45
        assert result.tuple_values[4] == 45

    def test_undefined_variable(self):
        block = parse_block("1: Load #missing")
        with pytest.raises(UndefinedVariableError):
            run_block(block)

    def test_store_then_load_sees_new_value(self):
        block = parse_block(
            "1: Const 7\n2: Store #a, 1\n3: Load #a\n4: Store #b, 3"
        )
        result = run_block(block, {"a": 0})
        assert result["b"] == 7

    def test_division_is_exact(self):
        block = BasicBlock([const(1, 1), const(2, 3), div(3, 1, 2), store(4, "x", 3)])
        assert run_block(block)["x"] == Fraction(1, 3)

    def test_division_by_zero_raises(self):
        block = BasicBlock([const(1, 1), const(2, 0), div(3, 1, 2)])
        with pytest.raises(ZeroDivisionError):
            run_block(block)

    def test_initial_memory_is_not_mutated(self):
        block = parse_block("1: Const 9\n2: Store #a, 1")
        memory = {"a": 1}
        run_block(block, memory)
        assert memory == {"a": 1}

    def test_explicit_order(self, figure3_block):
        # Legal reorder: Load before Const.
        result = run_block(figure3_block, {"a": 3}, order=(3, 1, 4, 2, 5))
        assert result["a"] == 45 and result["b"] == 15

    def test_illegal_order_surfaces_as_keyerror(self, figure3_block):
        with pytest.raises(KeyError):
            run_block(figure3_block, {"a": 3}, order=(4, 1, 3, 2, 5))


class TestEquivalence:
    def test_equivalent_blocks(self):
        a = parse_block("1: Const 2\n2: Const 3\n3: Add 1, 2\n4: Store #x, 3")
        b = parse_block("1: Const 5\n2: Store #x, 1")
        assert blocks_equivalent(a, b, {})

    def test_inequivalent_blocks(self):
        a = parse_block("1: Const 5\n2: Store #x, 1")
        b = parse_block("1: Const 6\n2: Store #x, 1")
        assert not blocks_equivalent(a, b, {})

    def test_fraction_int_normalization(self):
        a = parse_block("1: Const 4\n2: Const 2\n3: Div 1, 2\n4: Store #x, 3")
        b = parse_block("1: Const 2\n2: Store #x, 1")
        assert blocks_equivalent(a, b, {})


@given(blocks(max_size=10), memories())
@settings(max_examples=80)
def test_any_legal_reorder_preserves_memory(block, memory):
    """The foundational scheduling-correctness property: executing a block
    in any dependence-legal order leaves identical memory."""
    dag = DependenceDAG(block)
    baseline = run_block(block, memory).memory
    for order in _some_orders(dag, 10):
        assert run_block(block, memory, order=order).memory == baseline


def _some_orders(dag, k):
    import itertools

    return itertools.islice(iter_legal_orders(dag), k)
