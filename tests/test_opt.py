"""Tests for the section-3.1 optimizer, ``repro.opt``.

Each behaviour is one row built by :func:`case`: a source, the exact
block ``optimize_block`` must return for it, and the check that both
leave the same final memory (or both fault).
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.ast import run_program
from repro.frontend.lowering import lower_program, lower_source
from repro.ir.block import BasicBlock
from repro.ir.interp import run_block
from repro.ir.ops import Opcode
from repro.ir.textual import format_block, parse_block
from repro.opt import number_values, optimize_block, remove_dead
from repro.synth.generator import generate_program
from repro.synth.kernels import KERNELS
from repro.synth.population import sample_population
from repro.synth.stats import GeneratorProfile


def final_memory(block, memory):
    """What ``block`` leaves in memory, or ``"fault"`` when it divides by
    zero."""
    try:
        return run_block(block, memory).memory
    except ZeroDivisionError:
        return "fault"


def case(source, expected, reuse_values=True):
    """A test: ``source`` (statements, or a tuple of tuple-text lines)
    optimizes to exactly the tuple lines ``expected``, and computes the
    same memory as before from every variable set to 7, then to 0."""

    def test(self):
        if isinstance(source, str):
            block = lower_source(source, reuse_values=reuse_values)
        else:
            block = parse_block("\n".join(source))
        out = optimize_block(block)
        assert out.tuples == parse_block("\n".join(expected)).tuples
        for value in (7, 0):
            memory = {t.variable: value for t in block if t.op is Opcode.LOAD}
            assert final_memory(out, memory) == final_memory(block, memory)

    return test


class TestConstantFolding:
    test_folds_arithmetic = case("x = 2 + 3 * 4;", ("1: Const 14", "2: Store #x, 1"))
    # Figure 3's own behaviour: b = 15 makes the later read of b use the Const.
    test_propagates_through_stores = case(
        "b = 15; a = b * a;",
        ("1: Const 15", "2: Store #b, 1", "3: Load #a", "4: Mul 1, 3", "5: Store #a, 4"),
        reuse_values=False,
    )
    test_copy_elimination = case(
        ("1: Const 5", "2: Copy 1", "3: Copy 2", "4: Store #x, 3"),
        ("1: Const 5", "2: Store #x, 1"),
    )
    test_double_negation = case(
        ("1: Load #a", "2: Neg 1", "3: Neg 2", "4: Store #x, 3"),
        ("1: Load #a", "2: Store #x, 1"),
    )
    test_division_by_zero_not_folded = case(
        "x = 1 / 0;", ("1: Const 1", "2: Const 0", "3: Div 1, 2", "4: Store #x, 3")
    )
    test_non_integral_division_not_folded = case(
        "x = 1 / 3;", ("1: Const 1", "2: Const 3", "3: Div 1, 2", "4: Store #x, 3")
    )
    test_integral_division_folded = case("x = 6 / 3;", ("1: Const 2", "2: Store #x, 1"))


class TestCSE:
    # Naive lowering re-loads a and b; both loads and the Mul merge.
    test_merges_identical_expressions = case(
        "x = a * b; y = a * b;",
        ("1: Load #a", "2: Load #b", "3: Mul 1, 2", "4: Store #x, 3", "5: Store #y, 3"),
        reuse_values=False,
    )
    test_commutative_canonicalization = case(
        "x = a * b; y = b * a;",
        ("1: Load #a", "2: Load #b", "3: Mul 1, 2", "4: Store #x, 3", "5: Store #y, 3"),
    )
    test_subtraction_not_commuted = case(
        "x = a - b; y = b - a;",
        ("1: Load #a", "2: Load #b", "3: Sub 1, 2", "4: Store #x, 3", "5: Sub 2, 1",
         "6: Store #y, 5"),
    )
    # The second load reads the stored 1, not the first load's a.
    test_loads_not_merged_across_stores = case(
        ("1: Load #a", "2: Const 1", "3: Store #a, 2", "4: Load #a", "5: Add 1, 4",
         "6: Store #x, 5"),
        ("1: Load #a", "2: Const 1", "3: Store #a, 2", "4: Add 1, 2", "5: Store #x, 4"),
    )
    test_const_pooling = case(
        "x = 5 + a; y = 5 + b;",
        ("1: Const 5", "2: Load #a", "3: Add 1, 2", "4: Store #x, 3", "5: Load #b",
         "6: Add 1, 5", "7: Store #y, 6"),
    )


class TestDCE:
    test_removes_unused_values = case(
        ("1: Load #a", "2: Load #b", "3: Store #x, 1"), ("1: Load #a", "2: Store #x, 1")
    )
    test_removes_dead_stores = case("x = 1; x = 2;", ("1: Const 2", "2: Store #x, 1"))
    # y keeps the 1 that was read; the first store of x is then dead.
    test_keeps_store_read_before_overwrite = case(
        ("1: Const 1", "2: Store #x, 1", "3: Load #x", "4: Store #y, 3", "5: Const 2",
         "6: Store #x, 5"),
        ("1: Const 1", "2: Store #y, 1", "3: Const 2", "4: Store #x, 3"),
    )
    test_keeps_unused_division_for_its_fault = case(
        ("1: Const 1", "2: Const 0", "3: Div 1, 2", "4: Store #x, 1"),
        ("1: Const 1", "2: Const 0", "3: Div 1, 2", "4: Store #x, 1"),
    )

    def test_backward_walk_keeps_store_read_before_overwrite(self):
        # The backward walk alone, where the load is still there.
        text = "1: Const 1\n2: Store #x, 1\n3: Load #x\n4: Store #y, 3\n5: Const 2\n6: Store #x, 5"
        assert remove_dead(parse_block(text)).tuples == parse_block(text).tuples


class TestPeephole:
    @pytest.mark.parametrize(
        "source,survivor_ops",
        [
            ("y = x + 0;", 0),
            ("y = 0 + x;", 0),
            ("y = x - 0;", 0),
            ("y = x * 1;", 0),
            ("y = 1 * x;", 0),
            ("y = x / 1;", 0),
        ],
    )
    def test_identities(self, source, survivor_ops):
        out = optimize_block(lower_source(source))
        assert out.tuples == parse_block("1: Load #x\n2: Store #y, 1").tuples
        arith = [t for t in out if t.op not in (Opcode.CONST, Opcode.LOAD, Opcode.STORE)]
        assert len(arith) == survivor_ops

    test_x_minus_x = case("y = x - x;", ("1: Const 0", "2: Store #y, 1"))
    test_multiply_by_zero = case("y = x * 0;", ("1: Const 0", "2: Store #y, 1"))
    test_strength_reduction = case(
        "y = x * 2;", ("1: Load #x", "2: Add 1, 1", "3: Store #y, 2")
    )
    # x / x is NOT rewritten to 1: x may be zero.
    test_division_identity_preserves_faults = case(
        "y = x / x;", ("1: Load #x", "2: Div 1, 1", "3: Store #y, 2")
    )


class TestManager:
    def test_figure3_is_already_optimal(self, figure3_block):
        assert optimize_block(figure3_block).tuples == figure3_block.renumbered().tuples

    # Peephole exposes folding, which exposes CSE and DCE: z = a, y = 0, x = a.
    test_cascading_passes = case(
        "x = a * 1 + 0; y = x - x; z = y + a;",
        ("1: Load #a", "2: Const 0", "3: Store #x, 1", "4: Store #y, 2", "5: Store #z, 1"),
    )
    test_report_counts = case("x = 2 + 3;", ("1: Const 5", "2: Store #x, 1"))

    def test_empty_block(self):
        assert len(optimize_block(BasicBlock([]))) == 0


# ----------------------------------------------------------------------
# Semantics preservation on random programs (the paper's front end must
# never change observable behaviour).
# ----------------------------------------------------------------------
@given(
    statements=st.integers(2, 15),
    variables=st.integers(1, 6),
    constants=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=120, deadline=None)
def test_full_pipeline_preserves_semantics(statements, variables, constants, seed):
    profile = GeneratorProfile(exclude_division=True)
    program = generate_program(statements, variables, constants, seed, profile)
    block = lower_program(program)
    optimized = optimize_block(block)
    memory = {f"v{i}": i + 1 for i in range(variables)}
    expected = run_program(program, memory)
    got = run_block(optimized, memory).memory
    for var in program.variables_written():
        assert got[var] == expected[var], var


@given(
    statements=st.integers(2, 12),
    seed=st.integers(0, 10_000),
    zero=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_each_pass_individually_preserves_semantics(statements, seed, zero):
    """Each walk alone keeps the final memory, and keeps a division
    fault: these programs divide, and one variable may start at 0."""
    program = generate_program(statements, 4, 3, seed)
    block = lower_program(program)
    memory = {f"v{i}": 0 if i == zero else 2 * i + 1 for i in range(4)}
    want = final_memory(block, memory)
    for walk in (number_values, remove_dead, optimize_block):
        assert final_memory(walk(block), memory) == want, walk.__name__


@given(
    statements=st.integers(2, 10),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=60, deadline=None)
def test_passes_are_idempotent(statements, seed):
    """Each walk maps its own output to itself (a canonical form)."""
    program = generate_program(statements, 4, 3, seed)
    block = lower_program(program)
    for walk in (number_values, remove_dead):
        once = walk(block)
        assert walk(once).tuples == once.tuples, walk.__name__


@given(
    statements=st.integers(2, 10),
    seed=st.integers(0, 5_000),
)
@settings(max_examples=40, deadline=None)
def test_optimizer_fixpoint_is_stable(statements, seed):
    """optimize_block() output is a fixpoint of optimize_block()."""
    program = generate_program(statements, 4, 3, seed)
    block = lower_program(program)
    first = optimize_block(block)
    assert optimize_block(first).tuples == first.tuples


def test_optimized_inputs_are_stable():
    """The optimizer's output on the 10 kernels and the first 1,000
    Table-7 blocks (seed 1990) is pinned, so a change to it shows here
    before it moves the benchmark's or Table 7's inputs."""
    texts = [format_block(optimize_block(lower_source(k.source))) for k in KERNELS]
    texts += [format_block(gb.block) for gb in sample_population(1000, 1990)]
    assert len(texts) == 1010
    digest = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
    assert digest == "dedc330a7b86769c03d7ee595e4a1658443c4be82be7560f5d2a0e8671ff750f"
