"""Shared IR leaves: the program's own passes and the generator build
each immutable leaf once, and the client input paths build fresh ones.

A generated population holds many blocks at once; sharing one
``RefOperand`` per reference number, one name tuple per pool size and
one AST leaf per name or constant is what keeps it small.  The tables
behind that sharing must not grow with client-supplied input.
"""

import hashlib
import pickle

import pytest

from repro.frontend.ast import Binary, Constant, Unary, VarRead
from repro.frontend.parser import parse_program
from repro.ir import tuples
from repro.ir.block import BlockBuilder
from repro.ir.dag import DependenceDAG
from repro.ir.loop import concatenate_iterations
from repro.ir.ops import Opcode
from repro.ir.textual import format_block, parse_block
from repro.ir.tuples import RefOperand, ref_operand
from repro.machine.presets import get_machine
from repro.opt import optimize_block
from repro.sched.search import schedule_block
from repro.synth import generator
from repro.synth.generator import generate_program, variable_names
from repro.synth.population import (
    PopulationSpec,
    generate_from_params,
    sample_population_params,
)

#: Two uses of 1 and of 3, reference numbers with gaps.
_GAPPED = "5: Load #a\n7: Load #b\n9: Add 5, 7\n11: Mul 5, 9\n12: Sub 9, 11\n14: Store #c, 12"

#: sha256 of the first 2,000 seed-1990 population blocks (name, source
#: program and formatted block), computed before the leaves were shared.
_POPULATION_SHA256 = "76fe58f8df8adf05090e253b0e1faa4ebc3d6c9a3d26ab345688d2e0230d9ec8"


def _assert_shared(block):
    """Every reference operand of ``block`` is the shared one."""
    uses = 0
    for t in block:
        for operand in t.operands:
            if isinstance(operand, RefOperand):
                assert operand is ref_operand(operand.ref), (t, operand)
                uses += 1
    assert uses > len({r for t in block for r in t.value_refs})  # some number repeats


def _table_sizes():
    return (
        len(tuples._REFS),
        len(generator._READS),
        len(generator._CONSTANTS),
        variable_names.cache_info().currsize,
    )


def _leaves(program):
    out = []

    def walk(expr):
        if isinstance(expr, (VarRead, Constant)):
            out.append(expr)
        elif isinstance(expr, Unary):
            walk(expr.operand)
        elif isinstance(expr, Binary):
            walk(expr.left)
            walk(expr.right)

    for statement in program:
        walk(statement.value)
    return out


class TestReferenceOperands:
    def test_builder_shares(self):
        b = BlockBuilder()
        x, y = b.emit_load("a"), b.emit_load("b")
        s = b.emit_binary(Opcode.ADD, x, y)
        p = b.emit_binary(Opcode.MUL, x, s)
        b.emit_unary(Opcode.NEG, p)
        b.emit_store("c", s)
        block = b.build()
        _assert_shared(block)
        assert block[2].alpha is block[3].alpha

    def test_renumbered_shares(self):
        parsed = parse_block(_GAPPED)
        renumbered = parsed.renumbered()
        _assert_shared(renumbered)
        assert renumbered[2].alpha is renumbered[3].alpha  # both reference 1

    def test_optimizer_shares(self):
        block = parse_block(
            "1: Load #a\n2: Load #b\n3: Add 1, 2\n4: Add 2, 1\n5: Mul 3, 4\n"
            "6: Mul 5, 1\n7: Store #c, 6\n8: Store #d, 3"
        )
        optimized = optimize_block(block)
        assert len(optimized) < len(block)  # the commuted Add was reused
        _assert_shared(optimized)

    def test_unrolling_grows_no_table(self):
        """An unrolled copy is as long as the trip count a source chose,
        and is dropped after its check: it keeps fresh operands."""
        body = parse_block(_GAPPED).renumbered()
        before = len(tuples._REFS)
        unrolled = concatenate_iterations(body, 1000)
        assert max(unrolled.idents) == 1000 * len(body)
        assert len(tuples._REFS) == before

    def test_shared_constructor_rejects_zero(self):
        before = len(tuples._REFS)
        with pytest.raises(ValueError):
            ref_operand(0)
        assert len(tuples._REFS) == before

    def test_equality_hash_and_pickle_unchanged(self):
        shared = ref_operand(3)
        fresh = RefOperand(3)
        assert shared == fresh and hash(shared) == hash(fresh)
        assert pickle.loads(pickle.dumps(shared)) == fresh


class TestGeneratorLeaves:
    def test_one_name_tuple_per_count(self):
        assert variable_names(5) is variable_names(5)
        assert variable_names(3)[0] is variable_names(5)[0]

    def test_programs_share_leaves(self):
        first = _leaves(generate_program(12, 3, 2, seed=1))
        second = _leaves(generate_program(12, 3, 2, seed=2))
        by_key = {}
        for leaf in first + second:
            key = (type(leaf), getattr(leaf, "name", None), getattr(leaf, "value", None))
            assert by_key.setdefault(key, leaf) is leaf, leaf
        assert len(first) + len(second) > len(by_key)
        assert any(isinstance(leaf, Constant) for leaf in by_key.values())

    def test_population_text_unchanged(self):
        spec = PopulationSpec()
        digest = hashlib.sha256()
        for params in sample_population_params(2000, 1990, spec):
            gb = generate_from_params(params, spec)
            text = f"{gb.block.name}\n{gb.program}\n{format_block(gb.block)}\n\n"
            digest.update(text.encode())
        assert digest.hexdigest() == _POPULATION_SHA256


def test_client_input_grows_no_table():
    """The daemon's and perf's input path (``parse_block``, then the
    search) and the source parser build fresh leaves."""
    generator.generate_block(4, 3, 2, seed=0)  # the tables are not empty
    before = _table_sizes()
    block = parse_block(
        "1000000: Load #fresh_name\n1000001: Const 987654321\n"
        "1000002: Add 1000000, 1000001\n1000003: Store #other_fresh_name, 1000002"
    )
    schedule_block(DependenceDAG(block), get_machine("paper-simulation"))
    parse_program("zq9 = xq7 * 31337; zq9 = -zq9;")
    assert _table_sizes() == before
