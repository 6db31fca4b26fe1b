"""Tests for the front end: lexer, parser, AST evaluation, lowering."""

from fractions import Fraction

import pytest

from repro.frontend.ast import Binary, Constant, Unary, evaluate_expr, run_program
from repro.frontend.lexer import LexError, TokenKind, tokenize
from repro.frontend.lowering import lower_program, lower_source
from repro.frontend.parser import ParseError, parse_expression, parse_program
from repro.ir.interp import run_block
from repro.ir.ops import Opcode
from repro.ir.textual import format_block


class TestLexer:
    def test_token_stream(self):
        tokens = tokenize("a = b * 15;")
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.IDENT,
            TokenKind.ASSIGN,
            TokenKind.IDENT,
            TokenKind.STAR,
            TokenKind.NUMBER,
            TokenKind.SEMI,
            TokenKind.EOF,
        ]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a = 1;\nbb = 2;")
        bb = [t for t in tokens if t.text == "bb"][0]
        assert (bb.line, bb.column) == (2, 1)

    def test_comments(self):
        tokens = tokenize("a = 1; // trailing\n/* block\ncomment */ b = 2;")
        idents = [t.text for t in tokens if t.kind is TokenKind.IDENT]
        assert idents == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("/* oops")

    def test_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a = 1 $ 2;")


class TestParser:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, Binary) and expr.op == "+"
        assert isinstance(expr.right, Binary) and expr.right.op == "*"

    def test_left_associativity(self):
        expr = parse_expression("8 - 4 - 2")
        assert evaluate_expr(expr, {}) == 2

    def test_parentheses(self):
        assert evaluate_expr(parse_expression("(1 + 2) * 3"), {}) == 9

    def test_unary_minus(self):
        assert evaluate_expr(parse_expression("--5"), {}) == 5
        assert evaluate_expr(parse_expression("-(2 + 3)"), {}) == -5

    def test_braced_and_unbraced_programs(self):
        braced = parse_program("{ a = 1; }")
        plain = parse_program("a = 1;")
        assert braced.statements == plain.statements

    @pytest.mark.parametrize(
        "source",
        ["a = ;", "a 1;", "= 1;", "a = 1", "{ a = 1;", "a = (1;", "a = 1 +;"],
    )
    def test_errors(self, source):
        with pytest.raises(ParseError):
            parse_program(source)

    def test_error_reports_location(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_program("a = ;")


class TestAstSemantics:
    def test_run_program(self):
        program = parse_program("b = 15; a = b * a;")
        env = run_program(program, {"a": 3})
        assert env == {"a": 45, "b": 15}

    def test_exact_division(self):
        env = run_program(parse_program("x = 1 / 3;"), {})
        assert env["x"] == Fraction(1, 3)

    def test_variables_read_and_written(self):
        program = parse_program("b = 15; a = b * a; c = d;")
        loads = [t.variable for t in lower_program(program) if t.op is Opcode.LOAD]
        assert loads == ["a", "d"]
        assert program.variables_written() == ("b", "a", "c")

    def test_bad_operators_rejected(self):
        with pytest.raises(ValueError):
            Binary("%", Constant(1), Constant(2))
        with pytest.raises(ValueError):
            Unary("+", Constant(1))

    def test_program_rendering(self):
        program = parse_program("a = b + 1;")
        assert "a = (b + 1);" in str(program)


class TestLowering:
    def test_figure3_exactly(self):
        """The paper's Figure 3: source and tuple code, verbatim."""
        block = lower_source("{ b = 15; a = b * a; }")
        assert format_block(block) == (
            '1: Const "15"\n'
            "2: Store #b, 1\n"
            "3: Load #a\n"
            "4: Mul 1, 3\n"
            "5: Store #a, 4"
        )

    def test_load_on_first_reference_only(self):
        block = lower_source("a = b + b; c = b;")
        loads = [t for t in block if t.op is Opcode.LOAD]
        assert len(loads) == 1  # b loaded once, reused thereafter

    def test_naive_lowering_reloads_every_time(self):
        block = lower_source("a = b + b; c = b;", reuse_values=False)
        loads = [t for t in block if t.op is Opcode.LOAD]
        assert len(loads) == 3

    def test_assignment_forwards_value(self):
        # After a = expr, reads of a use the expression's tuple directly.
        block = lower_source("a = b + 1; c = a;")
        assert not any(
            t.op is Opcode.LOAD and t.variable == "a" for t in block
        )

    def test_unary_lowering(self):
        block = lower_source("a = -b;")
        assert any(t.op is Opcode.NEG for t in block)

    def test_lowering_preserves_semantics(self):
        source = "b = 15; a = b * a; c = (a - b) / 2; a = a + c;"
        program = parse_program(source)
        memory = {"a": 7, "c": 1}
        expected = run_program(program, memory)
        for reuse in (True, False):
            block = lower_program(program, reuse_values=reuse)
            got = run_block(block, memory).memory
            assert {k: Fraction(v) for k, v in got.items()} == {
                k: Fraction(v) for k, v in expected.items()
            }

    def test_lowering_leaves_no_reference_cycle(self):
        """The recursive expression lowering frees its builder by
        reference counting: with the collector off, one call leaves
        nothing for ``gc.collect()``."""
        import gc

        program = parse_program("b = 15; a = b * a; c = -(a - b) / 2;")
        gc.collect()
        gc.disable()
        try:
            lower_program(program)
            assert gc.collect() == 0
        finally:
            gc.enable()
