"""Tests for the synthetic benchmark generator (section 5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.ast import Binary, Constant, Unary, run_program
from repro.frontend.lowering import lower_program
from repro.ir.interp import run_block
from repro.synth.generator import (
    generate_block,
    generate_program,
    variable_names,
)
from repro.synth.stats import OPERATOR_FREQUENCIES, STATEMENT_FREQUENCIES, GeneratorProfile


class TestProfiles:
    def test_default_frequencies_sum_to_one(self):
        assert abs(sum(STATEMENT_FREQUENCIES.values()) - 1.0) < 1e-9
        assert abs(sum(OPERATOR_FREQUENCIES.values()) - 1.0) < 1e-9

    def test_bad_frequencies_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GeneratorProfile(statement_frequencies=(("copy", 0.5),))
        with pytest.raises(ValueError, match="non-negative"):
            GeneratorProfile(
                statement_frequencies=(("copy", 1.5), ("const", -0.5))
            )
        with pytest.raises(ValueError, match="constant_range"):
            GeneratorProfile(constant_range=0)

    def test_exclude_division_renormalizes(self):
        profile = GeneratorProfile(exclude_division=True)
        operators = dict(profile.operators())
        assert "/" not in operators
        assert abs(sum(operators.values()) - 1.0) < 1e-9


class TestGenerateProgram:
    def test_deterministic_for_a_seed(self):
        a = generate_program(10, 4, 3, seed=42)
        b = generate_program(10, 4, 3, seed=42)
        assert str(a) == str(b)

    def test_different_seeds_differ(self):
        a = generate_program(10, 4, 3, seed=1)
        b = generate_program(10, 4, 3, seed=2)
        assert str(a) != str(b)

    def test_respects_statement_count(self):
        assert len(generate_program(17, 4, 3, seed=0)) == 17

    def test_variable_pool(self):
        program = generate_program(30, 3, 3, seed=5)
        pool = set(variable_names(3))
        assert set(program.variables_written()) <= pool
        assert set(lower_program(program).variables) <= pool

    def test_constant_pool_size(self):
        program = generate_program(60, 4, 2, seed=9)
        constants = set()

        def walk(e):
            if isinstance(e, Constant):
                constants.add(e.value)
            elif isinstance(e, Unary):
                walk(e.operand)
            elif isinstance(e, Binary):
                walk(e.left), walk(e.right)

        for stmt in program:
            walk(stmt.value)
        assert len(constants) <= 2

    def test_constants_are_nonzero(self):
        program = generate_program(80, 4, 8, seed=3)
        text = str(program)
        assert " 0;" not in text

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_program(0, 4, 3, seed=0)
        with pytest.raises(ValueError):
            generate_program(5, 0, 3, seed=0)
        with pytest.raises(ValueError):
            generate_program(5, 4, 0, seed=0)

    def test_exclude_division(self):
        profile = GeneratorProfile(exclude_division=True)
        program = generate_program(100, 4, 3, seed=11, profile=profile)
        assert "/" not in str(program)


class TestGenerateBlock:
    def test_block_provenance(self):
        gb = generate_block(8, 4, 3, seed=21)
        assert gb.statements == 8 and gb.seed == 21
        assert len(gb) == len(gb.block)

    def test_optimized_is_no_larger_than_raw(self):
        raw = generate_block(12, 5, 3, seed=4, optimize=False)
        opt = generate_block(12, 5, 3, seed=4, optimize=True)
        assert len(opt.block) <= len(raw.block)

    def test_block_matches_program_semantics(self):
        profile = GeneratorProfile(exclude_division=True)
        gb = generate_block(10, 4, 3, seed=8, profile=profile)
        memory = {v: i + 1 for i, v in enumerate(variable_names(4))}
        expected = run_program(gb.program, memory)
        got = run_block(gb.block, memory).memory
        for var in gb.program.variables_written():
            assert got[var] == expected[var]

    def test_custom_name(self):
        gb = generate_block(5, 4, 3, seed=1, name="my-block")
        assert gb.block.name == "my-block"


@given(st.integers(1, 25), st.integers(1, 6), st.integers(1, 6), st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_generated_blocks_are_always_valid(statements, variables, constants, seed):
    gb = generate_block(statements, variables, constants, seed)
    # BasicBlock construction validates; additionally the DAG must build.
    from repro.ir.dag import DependenceDAG

    DependenceDAG(gb.block)
