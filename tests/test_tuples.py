"""Unit tests for tuple instructions and operands."""

import pytest

from repro.ir.ops import Opcode
from repro.ir.tuples import (
    ConstOperand,
    IRTuple,
    RefOperand,
    VarOperand,
    add,
    const,
    copy,
    div,
    load,
    mul,
    neg,
    store,
    sub,
)


class TestOperands:
    def test_var_operand_requires_name(self):
        with pytest.raises(ValueError):
            VarOperand("")

    def test_ref_operand_starts_at_one(self):
        with pytest.raises(ValueError):
            RefOperand(0)

    def test_operand_rendering(self):
        assert str(VarOperand("x")) == "#x"
        assert str(ConstOperand(15)) == '"15"'
        assert str(RefOperand(3)) == "3"

    def test_operands_are_hashable_and_equal_by_value(self):
        assert VarOperand("x") == VarOperand("x")
        assert len({RefOperand(1), RefOperand(1), RefOperand(2)}) == 2


class TestShapeValidation:
    def test_const_requires_literal(self):
        with pytest.raises(ValueError):
            IRTuple(1, Opcode.CONST, RefOperand(1))
        with pytest.raises(ValueError):
            IRTuple(1, Opcode.CONST, ConstOperand(1), ConstOperand(2))

    def test_load_requires_variable(self):
        with pytest.raises(ValueError):
            IRTuple(1, Opcode.LOAD, ConstOperand(1))

    def test_store_requires_var_and_ref(self):
        with pytest.raises(ValueError):
            IRTuple(2, Opcode.STORE, VarOperand("a"), ConstOperand(1))
        with pytest.raises(ValueError):
            IRTuple(2, Opcode.STORE, RefOperand(1), RefOperand(1))

    def test_binary_requires_two_refs(self):
        with pytest.raises(ValueError):
            IRTuple(2, Opcode.ADD, RefOperand(1))
        with pytest.raises(ValueError):
            IRTuple(2, Opcode.MUL, RefOperand(1), VarOperand("a"))

    def test_unary_requires_single_ref(self):
        with pytest.raises(ValueError):
            IRTuple(2, Opcode.NEG, RefOperand(1), RefOperand(1))

    def test_ident_starts_at_one(self):
        with pytest.raises(ValueError):
            const(0, 5)


class TestAccessors:
    def test_value_refs(self):
        assert add(3, 1, 2).value_refs == (1, 2)
        assert store(2, "a", 1).value_refs == (1,)
        assert const(1, 5).value_refs == ()
        assert load(1, "a").value_refs == ()

    def test_variable(self):
        assert load(1, "a").variable == "a"
        assert store(2, "b", 1).variable == "b"
        assert const(1, 5).variable is None
        assert add(3, 1, 2).variable is None

    def test_rendering_matches_paper_notation(self):
        assert str(const(1, 15)) == '1: Const "15"'
        assert str(store(2, "b", 1)) == "2: Store #b, 1"
        assert str(load(3, "a")) == "3: Load #a"
        assert str(mul(4, 1, 3)) == "4: Mul 1, 3"

    def test_constructors_cover_all_binary_ops(self):
        assert sub(3, 1, 2).op is Opcode.SUB
        assert div(3, 1, 2).op is Opcode.DIV
        assert neg(2, 1).op is Opcode.NEG
        assert copy(2, 1).op is Opcode.COPY

    def test_tuples_are_immutable(self):
        t = add(3, 1, 2)
        with pytest.raises(AttributeError):
            t.ident = 5
