"""Shared IR leaves: the program's own passes and the generator build
each immutable leaf once, and the client input paths build fresh ones.

A generated population holds many blocks at once; sharing one operand
per reference number, variable name and constant value, one name tuple
per pool size and one AST leaf per name or constant, and keeping no
source program per block, is what keeps it small.  The tables behind
that sharing must not grow with client-supplied input.
"""

import hashlib
import pickle
from ast import literal_eval

import pytest

from repro.frontend.ast import Binary, Constant, Program, Unary, VarRead
from repro.frontend.lowering import lower_program
from repro.frontend.parser import parse_program
from repro.ir import tuples
from repro.ir.block import BlockBuilder
from repro.ir.dag import DependenceDAG
from repro.ir.loop import concatenate_iterations
from repro.ir.ops import Opcode
from repro.ir.textual import format_block, parse_block
from repro.ir.tuples import (
    ConstOperand,
    RefOperand,
    VarOperand,
    const_operand,
    ref_operand,
    var_operand,
)
from repro.machine.presets import get_machine
from repro.opt import optimize_block
from repro.sched.search import schedule_block
from repro.synth import generator
from repro.synth.generator import GeneratedBlock, generate_program, variable_names
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

#: sha256 of ``repr`` of the same 2,000 source programs (every field of
#: every AST node), computed while each block still held its program.
_PROGRAMS_SHA256 = "473115af11c1961b511a0792c38184089639f7f853b886f9ab214ad318155363"


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
        len(tuples._VARS),
        len(tuples._CONSTS),
        len(generator._READS),
        len(generator._CONSTANTS),
        variable_names.cache_info().currsize,
    )


def _lower(source):
    return lower_program(parse_program(source))


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
        """The programs ``gb.program`` regenerates equal, and print as,
        the ones the blocks were lowered from."""
        spec = PopulationSpec()
        digest, programs = hashlib.sha256(), hashlib.sha256()
        for params in sample_population_params(2000, 1990, spec):
            gb = generate_from_params(params, spec)
            assert gb.source is None
            program = gb.program
            text = f"{gb.block.name}\n{program}\n{format_block(gb.block)}\n\n"
            digest.update(text.encode())
            programs.update(repr(program).encode())
        assert digest.hexdigest() == _POPULATION_SHA256
        assert programs.hexdigest() == _PROGRAMS_SHA256

    def test_given_program_is_kept(self):
        block = generator.generate_block(4, 3, 2, seed=5).block
        given = Program([])
        gb = GeneratedBlock(block, given, 4, 3, 2, 5)
        assert gb.program is given
        assert GeneratedBlock(block, None, 4, 3, 2, 5).program == generate_program(4, 3, 2, 5)

    def test_perf_first_call_construction(self):
        """perf's set-up script builds its block positionally, with an
        empty program; run that line as written."""
        from .test_import_budget import _perf_constant

        script = literal_eval(_perf_constant("workloads.py", "FIRST_CALL"))
        (line,) = [s.strip() for s in script.splitlines() if s.strip().startswith("gb = ")]
        scope = {"p": {"text": _GAPPED, "name": "b0"}, "parse_block": parse_block,
                 "Program": Program, "GeneratedBlock": GeneratedBlock}
        exec(line, scope)
        assert scope["gb"].program == Program([]) and len(scope["gb"]) == 6


class TestOperandTables:
    def test_builder_and_optimizer_share(self):
        first, second = BlockBuilder(), BlockBuilder()
        for b in (first, second):
            b.emit_store("a", b.emit_binary(Opcode.ADD, b.emit_load("a"), b.emit_const(6)))
        one, two = first.build(), second.build()
        for x, y in zip(one, two):
            assert all(p is q for p, q in zip(x.operands, y.operands)), (x, y)
        folded = optimize_block(_lower("c = 2 * 3; d = c + a;"))
        assert folded[0].alpha is const_operand(6)
        assert folded[-1].alpha is var_operand("d")

    def test_client_helpers_build_fresh(self):
        assert parse_block("1: Load #a")[0].alpha is not var_operand("a")
        assert parse_block("1: Const 6")[0].alpha is not const_operand(6)
        assert tuples.load(1, "a").alpha is not var_operand("a")
        assert tuples.const(1, 6).alpha is not const_operand(6)
        assert tuples.store(2, "a", 1).alpha is not var_operand("a")

    def test_tables_stop_at_their_bound(self, monkeypatch):
        """A source with more distinct names, values and tuples than a
        table holds fills each table to its bound, and lowers and
        optimizes to the same block as ever."""
        for table in ("_REFS", "_VARS", "_CONSTS"):
            monkeypatch.setattr(tuples, table, {})
        n = tuples.SHARED_MAX + 40
        source = " ".join(f"x{i} = {i + 1000};" for i in range(n))
        block = optimize_block(_lower(source))
        assert [len(getattr(tuples, t)) for t in ("_REFS", "_VARS", "_CONSTS")] == [
            tuples.SHARED_MAX] * 3
        assert block.renumbered() == block and len(block) == 2 * n
        assert str(block[-1]) == f"{2 * n}: Store #x{n - 1}, {2 * n - 1}"
        assert block[-1].alpha == VarOperand(f"x{n - 1}")
        assert block[-2].alpha == ConstOperand(n + 999)
        assert n + 999 not in tuples._CONSTS  # past the bound: built fresh


def test_held_population_keeps_no_waste(monkeypatch):
    """300 held seed-1990 blocks: no dense block carries an index dict,
    no generated block holds a ``Program``, and there is at most one
    operand object per variable name and per constant value."""
    for table in ("_VARS", "_CONSTS"):
        monkeypatch.setattr(tuples, table, {})
    spec = PopulationSpec()
    held = [generate_from_params(p, spec) for p in sample_population_params(300, 1990, spec)]
    objects = {VarOperand: set(), ConstOperand: set()}
    keys = {VarOperand: set(), ConstOperand: set()}
    for gb in held:
        assert gb.block.idents == tuple(range(1, len(gb.block) + 1))
        assert not hasattr(gb.block, "__dict__") and gb.block._index is None
        assert not any(isinstance(v, Program) for v in gb._asdict().values())
        for t in gb.block:
            kind = type(t.alpha)
            if kind in objects:
                objects[kind].add(id(t.alpha))
                keys[kind].add(t.alpha.name if kind is VarOperand else t.alpha.value)
    for kind in objects:
        assert 0 < len(objects[kind]) <= len(keys[kind])


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
