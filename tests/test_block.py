"""Unit tests for basic blocks and the block builder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.block import BasicBlock, BlockBuilder, BlockValidationError
from repro.ir.ops import Opcode
from repro.ir.tuples import add, const, load, mul, store

from .strategies import blocks


def simple_block() -> BasicBlock:
    return BasicBlock(
        [const(1, 15), store(2, "b", 1), load(3, "a"), mul(4, 1, 3), store(5, "a", 4)],
        "fig3",
    )


class TestValidation:
    def test_duplicate_reference_numbers(self):
        with pytest.raises(BlockValidationError, match="duplicate"):
            BasicBlock([const(1, 1), const(1, 2)])

    def test_unknown_reference(self):
        with pytest.raises(BlockValidationError, match="unknown tuple 9"):
            BasicBlock([const(1, 1), add(2, 1, 9)])

    def test_forward_reference(self):
        with pytest.raises(BlockValidationError, match="does not precede"):
            BasicBlock([add(1, 2, 2), const(2, 1)])

    def test_reference_to_store_result(self):
        with pytest.raises(BlockValidationError, match="produces no value"):
            BasicBlock([const(1, 1), store(2, "a", 1), store(3, "b", 2)])

    def test_empty_block_is_fine(self):
        assert len(BasicBlock([])) == 0


class TestAccess:
    def test_container_protocol(self):
        block = simple_block()
        assert len(block) == 5
        assert [t.ident for t in block] == [1, 2, 3, 4, 5]
        assert block[0].op is Opcode.CONST
        assert 3 in block and 9 not in block

    def test_by_ident_and_position(self):
        block = simple_block()
        assert block.by_ident(4).op is Opcode.MUL
        assert block.position_of(4) == 3
        with pytest.raises(KeyError):
            block.by_ident(42)

    def test_variable_views(self):
        block = simple_block()
        assert block.stored_variables == ("b", "a")
        assert block.variables == ("b", "a")

    def test_idents(self):
        assert simple_block().idents == (1, 2, 3, 4, 5)


class TestTransformations:
    def test_reordered_keeps_reference_numbers(self):
        block = simple_block()
        shuffled = BasicBlock.unchecked(block.by_ident(i) for i in [3, 1, 4, 2, 5])
        assert shuffled.idents == (3, 1, 4, 2, 5)
        assert shuffled.by_ident(4).value_refs == (1, 3)

    def test_renumbered_is_dense_and_consistent(self):
        block = BasicBlock(
            [const(2, 15), load(5, "a"), mul(9, 2, 5), store(12, "a", 9)]
        )
        dense = block.renumbered()
        assert dense.idents == (1, 2, 3, 4)
        assert dense.by_ident(3).value_refs == (1, 2)
        assert dense.by_ident(4).value_refs == (3,)

    def test_without_removes_tuples(self):
        block = simple_block()
        trimmed = block.without([2])
        assert trimmed.idents == (1, 3, 4, 5)

    def test_without_rejects_dangling_uses(self):
        block = simple_block()
        with pytest.raises(BlockValidationError):
            block.without([1])  # tuple 4 still references 1


class TestBuilder:
    def test_builder_numbers_sequentially(self):
        b = BlockBuilder("built")
        c = b.emit_const(15)
        s = b.emit_store("b", c)
        ld = b.emit_load("a")
        m = b.emit_binary(Opcode.MUL, c, ld)
        b.emit_store("a", m)
        block = b.build()
        assert block.idents == (1, 2, 3, 4, 5)
        assert str(block) == str(simple_block())

    def test_builder_unary(self):
        b = BlockBuilder()
        c = b.emit_const(3)
        n = b.emit_unary(Opcode.NEG, c)
        assert b.build().by_ident(n).value_refs == (c,)


@given(blocks(max_size=12))
@settings(max_examples=60)
def test_generated_blocks_always_validate(block):
    """The strategy itself must only produce valid blocks (meta-test)."""
    # Re-validating by reconstruction must not raise.
    BasicBlock(block.tuples, block.name)


@given(blocks(max_size=12))
@settings(max_examples=60)
def test_renumbered_preserves_shape(block):
    dense = block.renumbered()
    assert len(dense) == len(block)
    assert dense.idents == tuple(range(1, len(block) + 1))
    for old, new in zip(block, dense):
        assert old.op is new.op


# ----------------------------------------------------------------------
# Lookups without an index dict on dense blocks
# ----------------------------------------------------------------------
def _validation_error(tuples):
    """The message a dict-indexed validation of ``tuples`` raises, or None."""
    index = {t.ident: pos for pos, t in enumerate(tuples)}
    if len(index) != len(tuples):
        seen = set()
        for t in tuples:
            if t.ident in seen:
                return f"duplicate tuple reference number {t.ident}"
            seen.add(t.ident)
    for pos, t in enumerate(tuples):
        for ref in t.value_refs:
            target = index.get(ref)
            if target is None:
                return f"tuple {t.ident} references unknown tuple {ref}"
            if target >= pos:
                return (f"tuple {t.ident} references tuple {ref} which does "
                        "not precede it in program order")
            if not tuples[target].op.produces_value:
                return (f"tuple {t.ident} references tuple {ref} "
                        f"({tuples[target].op.value}) which produces no value")
    return None


def _assert_lookups_match_a_dict(block):
    """``by_ident``, ``position_of`` and ``in`` answer as a plain
    ident -> position dict does."""
    index = {t.ident: pos for pos, t in enumerate(block.tuples)}
    dense = list(index) == list(range(1, len(block) + 1))
    assert (block._index is None) == dense
    top = max(index, default=0)
    for ident in set(index) | {-1, 0, 1, len(block), len(block) + 1, top + 1}:
        assert (ident in block) == (ident in index)
        if ident in index:
            assert block.position_of(ident) == index[ident]
            assert block.by_ident(ident) is block.tuples[index[ident]]
            continue
        with pytest.raises(KeyError) as caught:
            block.position_of(ident)
        assert caught.value.args == (ident,)
        with pytest.raises(KeyError, match=f"no tuple numbered {ident} in {block.name}"):
            block.by_ident(ident)


class TestLookupParity:
    @settings(max_examples=80, deadline=None)
    @given(blocks(min_size=0, max_size=12), st.data())
    def test_dense_and_windows(self, block, data):
        from repro.ir.dag import DependenceDAG
        from repro.sched.splitting import window_dag

        _assert_lookups_match_a_dict(block)
        start = data.draw(st.integers(0, len(block)))
        stop = data.draw(st.integers(start, len(block)))
        _assert_lookups_match_a_dict(BasicBlock.unchecked(block.tuples[start:stop], "window"))
        order = data.draw(st.permutations(block.tuples))
        scheduled = BasicBlock.unchecked(order, "scheduled")
        assert scheduled.idents == tuple(t.ident for t in order)
        _assert_lookups_match_a_dict(scheduled)
        members = data.draw(st.sets(st.sampled_from(block.idents))) if len(block) else set()
        _assert_lookups_match_a_dict(window_dag(DependenceDAG(block), sorted(members)).block)

    @settings(max_examples=80, deadline=None)
    @given(blocks(min_size=1, max_size=12), st.data())
    def test_parsed_text_with_gaps(self, block, data):
        from repro.ir.textual import format_block, parse_block

        from .strategies import ident_renamings, rename_block

        renamed = rename_block(block, data.draw(ident_renamings(block)))
        parsed = parse_block(format_block(renamed), "gapped")
        assert parsed.idents == renamed.idents
        _assert_lookups_match_a_dict(parsed)
        _assert_lookups_match_a_dict(parsed.renumbered())

    @settings(max_examples=150, deadline=None)
    @given(blocks(min_size=1, max_size=8), st.data())
    def test_validation_messages(self, block, data):
        """Duplicate, unknown and forward references are rejected with
        the messages of a dict-indexed validation."""
        from repro.ir.tuples import IRTuple, RefOperand

        span = st.integers(1, len(block) + 2)
        idents = [data.draw(span) for _ in block]

        def perturb(o):
            return RefOperand(data.draw(span)) if isinstance(o, RefOperand) else o

        tuples = [IRTuple(i, t.op, perturb(t.alpha), perturb(t.beta))
                  for i, t in zip(idents, block)]
        want = _validation_error(tuples)
        if want is None:
            _assert_lookups_match_a_dict(BasicBlock(tuples))
        else:
            with pytest.raises(BlockValidationError) as caught:
                BasicBlock(tuples)
            assert str(caught.value) == want
