"""Tests for the independent schedule-certificate checker.

The checker (``repro.verify.certificate``) re-derives dependences, σ
and Ω timing from the raw tuples and machine tables without importing
anything from ``repro.sched``; these tests pin it to the paper's
worked Figure-3 numbers, show it *rejects* hand-mutated schedules, and
cross-check it against ``compute_timing`` on random inputs — the
differential property that makes the certificate an oracle.
"""

import pytest
from hypothesis import given, settings

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.pipeline import PipelineDesc
from repro.sched.list_scheduler import program_order
from repro.sched.nop_insertion import compute_timing
from repro.sched.search import schedule_block
from repro.verify.brute import brute_force_optimum
from repro.verify.certificate import check_schedule, derive_dependences

from .strategies import blocks, machines

PROGRAM_ORDER = (1, 2, 3, 4, 5)
PROGRAM_ETAS = (0, 0, 0, 1, 3)  # Figure 3 program order: 4 NOPs
OPTIMAL_ORDER = (3, 1, 4, 2, 5)
OPTIMAL_ETAS = (0, 0, 0, 0, 2)  # Figure 3 optimal: 2 NOPs


class TestFigure3Certification:
    def test_program_order_certified(self, figure3_block, sim_machine):
        report = check_schedule(
            figure3_block, sim_machine, PROGRAM_ORDER, PROGRAM_ETAS
        )
        assert report.ok
        assert report.required_etas == PROGRAM_ETAS
        assert report.required_nops == 4

    def test_optimal_order_certified(self, figure3_block, sim_machine):
        report = check_schedule(
            figure3_block, sim_machine, OPTIMAL_ORDER, OPTIMAL_ETAS
        )
        assert report.ok
        assert report.required_nops == 2

    def test_illegal_order_rejected(self, figure3_block, sim_machine):
        # Mul (4) before the Load (3) it consumes.
        report = check_schedule(
            figure3_block, sim_machine, (4, 1, 3, 2, 5), (0,) * 5
        )
        assert not report.ok
        assert any(v.kind == "dependence" for v in report.violations)

    def test_dependences_rederived_not_imported(self, figure3_block):
        preds = derive_dependences(figure3_block)
        # Store #b after Const; Mul after Const and Load; Store #a after
        # Mul AND after the Load of #a (anti-dependence).
        assert preds[2] == frozenset({1})
        assert preds[4] == frozenset({1, 3})
        assert preds[5] == frozenset({3, 4})


class TestMutationRejection:
    """The acceptance-style property: hand-corrupt a certified schedule
    and the certificate must catch it."""

    def test_swapped_instructions_rejected(self, figure3_block, sim_machine):
        # Swap the last two instructions of the optimal order but keep
        # the old eta stream: the Store #b (2) slides into the Store #a
        # slot and vice versa.
        mutated = (3, 1, 4, 5, 2)
        report = check_schedule(figure3_block, sim_machine, mutated, OPTIMAL_ETAS)
        assert not report.ok
        assert any(v.kind == "under-padded" for v in report.violations)

    def test_shifted_issue_slot_rejected(self, figure3_block, sim_machine):
        # Steal one NOP from the final Store: the hardware would read
        # the multiplier's result a tick early.
        report = check_schedule(
            figure3_block, sim_machine, OPTIMAL_ORDER, (0, 0, 0, 0, 1)
        )
        assert not report.ok
        [violation] = report.violations
        assert violation.kind == "under-padded"
        assert violation.ident == 5

    def test_extra_padding_rejected_by_default(self, figure3_block, sim_machine):
        report = check_schedule(
            figure3_block, sim_machine, OPTIMAL_ORDER, (0, 1, 0, 0, 2)
        )
        assert not report.ok
        assert any(v.kind == "over-padded" for v in report.violations)

    def test_extra_padding_accepted_when_not_minimal(
        self, figure3_block, sim_machine
    ):
        # Over-padded streams execute correctly; require_minimal=False is
        # the executable-not-optimal notion of legality.
        report = check_schedule(
            figure3_block,
            sim_machine,
            OPTIMAL_ORDER,
            (0, 1, 0, 0, 2),
            require_minimal=False,
        )
        assert report.ok
        assert report.claimed_nops == 3
        assert report.required_nops == 2

    def test_padding_shifts_downstream_requirements(
        self, figure3_block, sim_machine
    ):
        # Over-padding early can *reduce* the NOPs needed later: the
        # certificate must judge each position against the stream as
        # written.  Two extra NOPs after the Mul absorb the final
        # Store's latency wait entirely, so nothing is required there.
        report = check_schedule(
            figure3_block,
            sim_machine,
            OPTIMAL_ORDER,
            (0, 0, 0, 2, 0),
            require_minimal=False,
        )
        assert report.ok
        assert report.required_etas == (0, 0, 0, 0, 0)

    def test_negative_eta_rejected(self, figure3_block, sim_machine):
        report = check_schedule(
            figure3_block, sim_machine, OPTIMAL_ORDER, (0, 0, 0, -1, 3)
        )
        assert not report.ok
        assert any(v.kind == "permutation" for v in report.violations)

    def test_non_permutation_rejected(self, figure3_block, sim_machine):
        report = check_schedule(
            figure3_block, sim_machine, (1, 2, 3, 4, 4), (0,) * 5
        )
        assert not report.ok

    def test_eta_length_mismatch_rejected(self, figure3_block, sim_machine):
        report = check_schedule(
            figure3_block, sim_machine, PROGRAM_ORDER, (0, 0, 0)
        )
        assert not report.ok


class TestSigmaViolations:
    """Assignment checking on the non-deterministic example machine
    (Loads may run on pipeline 1 or 2)."""

    def test_ambiguous_op_needs_assignment(self, figure3_block, example_machine):
        report = check_schedule(
            figure3_block, example_machine, PROGRAM_ORDER, PROGRAM_ETAS
        )
        assert not report.ok
        assert any(v.kind == "assignment" for v in report.violations)

    def test_explicit_assignment_accepted(self, figure3_block, example_machine):
        assignment = {1: None, 2: None, 3: 1, 4: 5, 5: None}
        timing = compute_timing(
            DependenceDAG(figure3_block),
            PROGRAM_ORDER,
            example_machine,
            assignment=assignment,
        )
        report = check_schedule(
            figure3_block,
            example_machine,
            timing.order,
            timing.etas,
            assignment=assignment,
        )
        assert report.ok

    def test_unknown_pipeline_rejected(self, figure3_block, example_machine):
        report = check_schedule(
            figure3_block, example_machine, PROGRAM_ORDER, PROGRAM_ETAS,
            assignment={1: None, 2: None, 3: 42, 4: 5, 5: None},
        )
        assert any("unknown pipeline" in v.detail for v in report.violations)

    def test_wrong_pipeline_class_rejected(self, figure3_block, example_machine):
        # Pipeline 1 is a loader; tuple 4 is a Mul.
        report = check_schedule(
            figure3_block, example_machine, PROGRAM_ORDER, PROGRAM_ETAS,
            assignment={1: None, 2: None, 3: 1, 4: 1, 5: None},
        )
        assert any("cannot execute" in v.detail for v in report.violations)


class TestCarryInConditions:
    def test_pipe_free_delays_first_issue(self, sim_machine):
        block = parse_block("1: Load #a")
        report = check_schedule(
            block, sim_machine, (1,), (3,), pipe_free={1: 3}
        )
        assert report.ok and report.required_etas == (3,)

    def test_variable_ready_delays_touch(self, sim_machine):
        block = parse_block("1: Load #a")
        report = check_schedule(
            block, sim_machine, (1,), (0,), variable_ready={"a": 2}
        )
        assert not report.ok
        assert report.required_etas == (2,)


class TestMachineModelValidation:
    """The ISSUE's 'zero-latency pipes' and 'enqueue > latency' shapes are
    invalid by construction; pin the constructor rejections so the
    adversarial gallery can safely stay inside the legal boundary."""

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError):
            PipelineDesc("bad", 1, latency=0, enqueue_time=0)

    def test_zero_enqueue_rejected(self):
        with pytest.raises(ValueError):
            PipelineDesc("bad", 1, latency=2, enqueue_time=0)

    def test_enqueue_beyond_latency_rejected(self):
        with pytest.raises(ValueError):
            PipelineDesc("bad", 1, latency=2, enqueue_time=3)


class TestBruteForce:
    def test_figure3_optimum(self, figure3_block, sim_machine):
        result = brute_force_optimum(figure3_block, sim_machine)
        assert result.best_nops == 2
        assert result.exhausted
        assert result.orders_seen == 7  # the block's full legal-order count

    def test_matches_search(self, figure3_block, sim_machine):
        dag = DependenceDAG(figure3_block)
        search = schedule_block(dag, sim_machine)
        assert search.completed
        brute = brute_force_optimum(figure3_block, sim_machine)
        assert brute.best_nops == search.final_nops

    def test_limit_stops_enumeration(self, figure3_block, sim_machine):
        result = brute_force_optimum(figure3_block, sim_machine, limit=3)
        assert not result.exhausted
        assert result.orders_seen == 3


# ----------------------------------------------------------------------
# The differential property: on any (block, machine), the scheduler
# stack's Ω timing and the certificate's independent re-derivation agree.
# ----------------------------------------------------------------------
@given(blocks(max_size=10), machines())
@settings(max_examples=150, deadline=None)
def test_compute_timing_always_certifies(block, machine):
    dag = DependenceDAG(block)
    timing = compute_timing(dag, program_order(dag), machine)
    report = check_schedule(block, machine, timing.order, timing.etas)
    assert report.ok, report.summary()
    assert report.required_etas == timing.etas
    assert report.required_nops == timing.total_nops


@given(blocks(max_size=8), machines())
@settings(max_examples=60, deadline=None)
def test_stolen_nop_never_certifies(block, machine):
    """Removing one NOP from any stalled schedule must be caught."""
    dag = DependenceDAG(block)
    timing = compute_timing(dag, program_order(dag), machine)
    stalls = [k for k, eta in enumerate(timing.etas) if eta > 0]
    if not stalls:
        return
    etas = list(timing.etas)
    etas[stalls[-1]] -= 1
    report = check_schedule(block, machine, timing.order, etas)
    assert not report.ok
    assert any(v.kind == "under-padded" for v in report.violations)
