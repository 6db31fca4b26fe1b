"""Unit tests for the opcode vocabulary."""

from fractions import Fraction

import pytest

from repro.ir.ops import (
    BINARY_ARITHMETIC,
    VALUE_PRODUCING_OPCODES,
    Opcode,
    parse_opcode,
)


class TestClassification:
    def test_arity(self):
        assert Opcode.CONST.arity == 1
        assert Opcode.LOAD.arity == 1
        assert Opcode.STORE.arity == 2
        assert Opcode.NEG.arity == 1
        for op in BINARY_ARITHMETIC:
            assert op.arity == 2

    def test_store_is_the_only_non_value_op(self):
        assert not Opcode.STORE.produces_value
        assert Opcode.STORE not in VALUE_PRODUCING_OPCODES
        for op in Opcode:
            if op is not Opcode.STORE:
                assert op.produces_value
                assert op in VALUE_PRODUCING_OPCODES

    def test_memory_classification(self):
        assert not Opcode.LOAD.writes_memory
        assert Opcode.STORE.writes_memory
        assert not Opcode.ADD.writes_memory

    def test_commutativity(self):
        assert Opcode.ADD.is_commutative
        assert Opcode.MUL.is_commutative
        assert not Opcode.SUB.is_commutative
        assert not Opcode.DIV.is_commutative


class TestEvaluation:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (Opcode.ADD, 2, 3, 5),
            (Opcode.SUB, 2, 3, -1),
            (Opcode.MUL, 4, -3, -12),
            (Opcode.NEG, 7, None, -7),
            (Opcode.COPY, 9, None, 9),
        ],
    )
    def test_arithmetic(self, op, a, b, expected):
        assert op.evaluate(a, b) == expected

    def test_division_is_exact(self):
        assert Opcode.DIV.evaluate(1, 3) == Fraction(1, 3)
        assert Opcode.DIV.evaluate(6, 3) == 2

    def test_division_by_zero_faults(self):
        with pytest.raises(ZeroDivisionError):
            Opcode.DIV.evaluate(1, 0)

    def test_non_evaluable_opcodes(self):
        with pytest.raises(ValueError):
            Opcode.LOAD.evaluate(1)
        with pytest.raises(ValueError):
            Opcode.STORE.evaluate(1, 2)
        with pytest.raises(ValueError):
            Opcode.CONST.evaluate(1)


class TestParsing:
    @pytest.mark.parametrize("text", ["Mul", "mul", "MUL", "  mul "])
    def test_case_insensitive(self, text):
        assert parse_opcode(text) is Opcode.MUL

    def test_every_opcode_round_trips(self):
        for op in Opcode:
            assert parse_opcode(op.value) is op

    def test_unknown_opcode(self):
        with pytest.raises(ValueError, match="unknown opcode"):
            parse_opcode("Jump")
