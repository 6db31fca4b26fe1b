"""Tests for liveness, linear-scan allocation, and the spill pre-pass."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.ast import run_program
from repro.frontend.lowering import lower_program, lower_source
from repro.ir.dag import DependenceDAG
from repro.ir.interp import run_block
from repro.ir.textual import parse_block
from repro.regalloc.allocator import AllocationError, allocate_registers
from repro.regalloc.liveness import live_ranges, max_live, pressure_profile
from repro.regalloc.spill import SPILL_PREFIX, insert_spill_code
from repro.sched.search import schedule_block
from repro.synth.generator import generate_program
from repro.synth.stats import GeneratorProfile

from .strategies import blocks


class TestLiveness:
    def test_figure3_ranges(self, figure3_block):
        ranges = live_ranges(figure3_block)
        assert ranges[1].start == 0 and ranges[1].end == 3  # Const used by Mul
        assert ranges[4].start == 3 and ranges[4].end == 4
        assert 2 not in ranges  # Store produces no value

    def test_unused_value_is_dead(self):
        block = parse_block("1: Load #a\n2: Load #b\n3: Store #x, 1")
        ranges = live_ranges(block)
        assert ranges[2].is_dead
        assert not ranges[2].overlaps(ranges[1])

    def test_pressure_profile(self, figure3_block):
        profile = pressure_profile(figure3_block)
        assert len(profile) == 5
        assert max(profile) == max_live(figure3_block)

    def test_max_live_figure3(self, figure3_block):
        # Const(1) and Load(3) are simultaneously live before the Mul.
        assert max_live(figure3_block) == 2

    def test_ranges_respect_custom_order(self, figure3_block):
        order = (3, 1, 4, 2, 5)
        ranges = live_ranges(figure3_block, order)
        assert ranges[3].start == 0  # Load now first

    def test_empty_block(self):
        from repro.ir.block import BasicBlock

        assert max_live(BasicBlock([])) == 0


class TestAllocator:
    def test_figure3_uses_two_registers(self, figure3_block):
        allocation = allocate_registers(figure3_block)
        assert allocation.num_registers_used == 2

    def test_destination_may_reuse_operand_register(self):
        # Mul's operands die at the Mul: its result can take one of them.
        block = parse_block(
            "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #x, 3"
        )
        allocation = allocate_registers(block)
        assert allocation.num_registers_used == 2
        registers = allocation.registers
        assert registers[3] in {registers[1], registers[2]}

    def test_live_values_get_distinct_registers(self, figure3_block):
        allocation = allocate_registers(figure3_block)
        ranges = live_ranges(figure3_block)
        values = list(allocation.registers)
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                if ranges[a].overlaps(ranges[b]):
                    assert allocation.registers[a] != allocation.registers[b]

    def test_register_limit_enforced(self):
        # Three simultaneously live loads cannot fit two registers.
        block = parse_block(
            "1: Load #a\n2: Load #b\n3: Load #c\n"
            "4: Add 1, 2\n5: Add 4, 3\n6: Store #x, 5"
        )
        with pytest.raises(AllocationError, match="spill pre-pass"):
            allocate_registers(block, num_registers=2)
        allocate_registers(block, num_registers=3)  # fits exactly

    def test_unused_result_frees_immediately(self):
        block = parse_block("1: Load #a\n2: Load #b\n3: Store #x, 2")
        allocation = allocate_registers(block, num_registers=1)
        assert allocation.num_registers_used == 1


class TestSpillPrePass:
    def _pressure_block(self):
        # With value reuse, s/t/u/a stay live across the later sums:
        # program-order pressure is 5 unspilled.
        source = (
            "s = a + b; t = c + d; u = e + f; "
            "x = s + t; y = x + u; z = y + a;"
        )
        block = lower_source(source, reuse_values=True)
        assert max_live(block) == 5
        return block

    def test_reduces_pressure_to_budget(self):
        block = self._pressure_block()
        for k in (3, 4, 5):
            report = insert_spill_code(block, k)
            assert max_live(report.block) <= k

    def test_preserves_semantics(self):
        block = self._pressure_block()
        memory = {v: i + 2 for i, v in enumerate("abcdef")}
        expected = run_block(block, memory).memory
        report = insert_spill_code(block, 3)
        got = run_block(report.block, memory).memory
        for var in "stuxyz":
            assert got[var] == expected[var]

    def test_spill_report_counts(self):
        report = insert_spill_code(self._pressure_block(), 3)
        assert report.reloads > 0

    def test_no_spills_when_registers_suffice(self, figure3_block):
        report = insert_spill_code(figure3_block, 8)
        assert report.spill_stores == report.reloads == 0
        assert report.block.renumbered().tuples == figure3_block.renumbered().tuples

    def test_clean_loads_need_no_store(self):
        # All pressure comes from Loads of never-restored variables:
        # eviction is free, only reloads appear.
        source = "x = (a + b) + (c + d); y = (a + c) + (b + d);"
        block = lower_source(source, reuse_values=False)
        report = insert_spill_code(block, 3)
        assert max_live(report.block) <= 3
        assert report.spill_stores == 0

    def test_rejects_tiny_register_files(self, figure3_block):
        with pytest.raises(ValueError, match="at least 3"):
            insert_spill_code(figure3_block, 2)

    def test_spill_temporaries_cannot_collide_with_source_names(self):
        assert SPILL_PREFIX.startswith(".")

    def test_spilled_block_allocates_within_budget_in_program_order(self):
        block = self._pressure_block()
        report = insert_spill_code(block, 4)
        allocation = allocate_registers(report.block, num_registers=4)
        assert allocation.num_registers_used <= 4


@given(
    statements=st.integers(3, 14),
    seed=st.integers(0, 5_000),
    k=st.integers(3, 5),
)
@settings(max_examples=80, deadline=None)
def test_spill_pass_property(statements, seed, k):
    """For random programs: pressure <= k and semantics intact."""
    profile = GeneratorProfile(exclude_division=True)
    program = generate_program(statements, 6, 3, seed, profile)
    block = lower_program(program, reuse_values=True)
    report = insert_spill_code(block, k)
    assert max_live(report.block) <= k
    memory = {f"v{i}": 3 * i + 1 for i in range(6)}
    expected = run_program(program, memory)
    got = run_block(report.block, memory).memory
    for var in program.variables_written():
        assert got[var] == expected[var]


@given(blocks(max_size=12))
@settings(max_examples=80, deadline=None)
def test_allocation_over_scheduled_order_is_conflict_free(block):
    """Allocate over an arbitrary optimal schedule and verify no two
    overlapping values share a register."""
    from repro.machine.presets import paper_simulation_machine

    dag = DependenceDAG(block)
    result = schedule_block(dag, paper_simulation_machine())
    order = result.best.order
    allocation = allocate_registers(block, order)
    ranges = live_ranges(block, order)
    values = list(allocation.registers)
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            if ranges[a].overlaps(ranges[b]):
                assert allocation.registers[a] != allocation.registers[b]
