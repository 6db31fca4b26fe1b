"""Modulo software pipelining: MII bounds, kernel search, certificates.

Every schedule the search emits is re-checked here through the
*independent* steady-state certificate
(:func:`repro.verify.certificate.check_steady_state`) — the checker that
shares no code with ``repro.sched`` — and, on small bodies, against the
complete brute-force II enumeration.  The headline claim of the loop
tier is also pinned: on the paper's simulation machine the modulo
scheduler beats the steady state of the plain list schedule outright.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.frontend import lower_loop, parse_program
from repro.machine.presets import PRESETS, get_machine
from repro.sched.nop_insertion import ScheduleTiming
from repro.sched.pipelining import (
    min_initiation_interval,
    modulo_feasible,
    schedule_loop,
    steady_state_offsets,
)
from repro.sched.search import ScheduleRequest, SearchOptions
from repro.synth.loops import LOOP_KERNELS, get_loop_kernel
from repro.telemetry import Telemetry
from repro.verify.brute import brute_force_min_ii
from repro.verify.certificate import check_steady_state

MACHINE_NAMES = tuple(sorted(PRESETS))


def _lower(source: str):
    prog = parse_program(source)
    return lower_loop(prog.statements[0], name="test")


# ---------------------------------------------------------------------------
# MII
# ---------------------------------------------------------------------------


def test_mii_hand_example():
    # 6 body tuples on paper-simulation: single issue forces ResMII 6;
    # the a->a recurrence (Load..Store round trip) gives RecMII 4.
    loop = get_loop_kernel("scaled-update").lower()
    report = min_initiation_interval(loop, get_machine("paper-simulation"))
    assert report.res_mii == 6
    assert report.rec_mii == 4
    assert report.mii == 6


def test_mii_recurrence_bound_dominates():
    # One long serial recurrence, tiny body: rec wins over res.
    loop = get_loop_kernel("decay").lower()
    report = min_initiation_interval(loop, get_machine("paper-simulation"))
    assert report.rec_mii > report.res_mii
    assert report.mii == report.rec_mii


@pytest.mark.parametrize("machine_name", MACHINE_NAMES)
@pytest.mark.parametrize("kernel", LOOP_KERNELS, ids=lambda k: k.name)
def test_mii_is_a_true_lower_bound(kernel, machine_name):
    loop = kernel.lower()
    machine = get_machine(machine_name)
    result = schedule_loop(loop, machine)
    assert result.ii >= min_initiation_interval(loop, machine).mii


# ---------------------------------------------------------------------------
# The search, certified, over the whole kernel x preset grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("machine_name", MACHINE_NAMES)
@pytest.mark.parametrize("kernel", LOOP_KERNELS, ids=lambda k: k.name)
def test_kernels_scheduled_and_certified(kernel, machine_name):
    loop = kernel.lower()
    machine = get_machine(machine_name)
    result = schedule_loop(loop, machine)
    assert result.ii <= result.list_ii
    assert result.ii >= result.mii
    assert modulo_feasible(
        loop, machine, result.offsets, result.ii,
        assignment=result.assignment,
    )
    certificate = check_steady_state(
        loop.body, machine, result.offsets, result.ii,
        assignment=result.assignment,
    )
    assert certificate.ok, certificate.summary()
    # Every kernel x preset pair is proven optimal within the budget.
    assert result.completed, str(result)


@pytest.mark.parametrize(
    "name, ii", (("indexed-accumulate", 12), ("coupled-triple", 16))
)
def test_deep_memory_kernels_proven(name, ii):
    # Both once ran out of placement budget (at II 19 and 17); branching
    # only on constrained tuples, with closure pruning, settles them.
    result = schedule_loop(
        get_loop_kernel(name).lower(), get_machine("deep-memory")
    )
    assert result.ii == ii
    assert result.completed


def test_free_tuples_cost_no_placements():
    # No tuple shares a dependence cycle with another (each Store only
    # recurs on itself) and no enqueue window can collide on
    # deep-memory, so every tuple is free: the kernel at MII is filled
    # without a single placement attempt.
    loop = _lower("for i in 0..8 { b = c + d; e = b * c; }")
    result = schedule_loop(loop, get_machine("deep-memory"))
    assert result.searched
    assert result.ii == result.mii < result.list_ii
    assert result.placements == 0
    assert result.completed


def test_strict_win_over_list_schedule():
    # The acceptance-criteria kernel: modulo overlap recovers II 6 on
    # the paper's simulation machine where the list steady state needs 9.
    loop = get_loop_kernel("scaled-update").lower()
    result = schedule_loop(loop, get_machine("paper-simulation"))
    assert result.ii == 6
    assert result.list_ii == 9
    assert result.ii < result.list_ii
    assert result.completed  # II == MII: proven optimal
    assert result.searched


@pytest.mark.parametrize("machine_name", ("paper-simulation", "scalar"))
@pytest.mark.parametrize(
    "name", ("scaled-update", "geo-sum", "horner-stream", "decay")
)
def test_brute_force_agrees_on_small_bodies(name, machine_name):
    loop = get_loop_kernel(name).lower()
    machine = get_machine(machine_name)
    result = schedule_loop(loop, machine)
    brute = brute_force_min_ii(
        loop.body, machine, assignment=result.assignment
    )
    assert brute.min_ii <= result.ii
    if result.completed:
        assert brute.min_ii == result.ii


def test_steady_state_offsets_are_feasible():
    loop = get_loop_kernel("geo-sum").lower()
    machine = get_machine("paper-simulation")
    from repro.ir.dag import DependenceDAG
    from repro.sched.list_scheduler import list_schedule

    order = list_schedule(DependenceDAG(loop.body))
    ii, offsets = steady_state_offsets(loop, machine, order)
    assert modulo_feasible(loop, machine, offsets, ii)


# ---------------------------------------------------------------------------
# Corruption is caught (scheduler-side check and independent certificate)
# ---------------------------------------------------------------------------


def _corruptions(offsets, ii):
    idents = sorted(offsets)
    # Slot collision: force two tuples into the same residue class.
    a, b = idents[0], idents[1]
    collided = dict(offsets)
    collided[b] = collided[a] + ii
    yield collided, ii
    # Dependence violation: issue everything at once.
    yield {z: 0 if z == idents[0] else k for k, z in enumerate(idents)}, ii
    # II below the single-issue bound.
    yield dict(offsets), len(idents) - 1


def test_corrupted_offsets_rejected_everywhere():
    loop = get_loop_kernel("scaled-update").lower()
    machine = get_machine("paper-simulation")
    result = schedule_loop(loop, machine)
    for bad_offsets, bad_ii in _corruptions(result.offsets, result.ii):
        assert not modulo_feasible(loop, machine, bad_offsets, bad_ii)
        report = check_steady_state(
            loop.body, machine, bad_offsets, bad_ii,
            assignment=result.assignment,
        )
        assert not report.ok


def test_empty_loop_rejected():
    # Loop bodies are non-empty by construction through the front end;
    # the entry point still guards the degenerate hand-built case.
    from repro.ir.block import BasicBlock
    from repro.ir.loop import LoopBlock

    empty = LoopBlock(
        body=BasicBlock(tuples=(), name="empty"),
        carried=(),
        loop_var=None,
        start=0,
        stop=0,
    )
    with pytest.raises(ValueError, match="empty"):
        schedule_loop(empty, get_machine("scalar"))


# ---------------------------------------------------------------------------
# Result anatomy: stream, prologue/epilogue, ScheduleOutcome protocol
# ---------------------------------------------------------------------------


def test_stream_has_no_cycle_collisions():
    loop = get_loop_kernel("scaled-update").lower()
    result = schedule_loop(loop, get_machine("paper-simulation"))
    trips = 5
    stream = result.stream(trips)
    cycles = [c for c, _, _ in stream]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles)
    assert len(stream) == trips * len(loop.body)
    # Instance (z, i) issues at exactly i*II + offset(z).
    for cycle, iteration, z in stream:
        assert cycle == iteration * result.ii + result.offsets[z]


def test_prologue_epilogue_partition_the_ramp():
    loop = get_loop_kernel("horner-stream").lower()
    result = schedule_loop(loop, get_machine("deep-memory"))
    assert result.stage_count >= 2  # otherwise nothing to fill/drain
    trips = result.stage_count + 2
    stream = result.stream(trips)
    fill = (result.stage_count - 1) * result.ii
    assert result.prologue(trips) == [e for e in stream if e[0] < fill]
    assert result.epilogue(trips) == [
        e for e in stream if e[0] >= trips * result.ii
    ]


def test_modulo_result_satisfies_schedule_outcome_protocol():
    loop = get_loop_kernel("geo-sum").lower()
    result = schedule_loop(loop, get_machine("paper-simulation"))
    assert result.provenance == "modulo"
    assert result.objective == result.ii
    assert isinstance(result.schedule, ScheduleTiming)
    assert result.elapsed_seconds >= 0
    assert isinstance(result.completed, bool)
    assert sorted(result.schedule.order) == sorted(loop.body.idents)
    assert "II" in str(result)
    assert "stage" in result.kernel_text or "nop" in result.kernel_text


def test_kernel_window_holds_each_tuple_once():
    loop = get_loop_kernel("coupled-triple").lower()
    result = schedule_loop(loop, get_machine("paper-simulation"))
    kernel = result.kernel
    assert len(kernel) == result.ii
    placed = [z for z in kernel if z is not None]
    assert sorted(placed) == sorted(loop.body.idents)


def test_telemetry_records_loop_time():
    telemetry = Telemetry()
    loop = get_loop_kernel("decay").lower()
    schedule_loop(loop, get_machine("scalar"), telemetry=telemetry)
    assert telemetry.timers.get("time.schedule_loop", 0) > 0


def test_telemetry_explains_the_proof():
    telemetry = Telemetry()
    loop = get_loop_kernel("geo-sum").lower()
    machine = get_machine("paper-example")
    result = schedule_loop(loop, machine, telemetry=telemetry)
    assert result.ii == result.mii + 1  # MII itself was refuted
    counters = telemetry.counters
    assert counters["loop.placements"] == result.placements > 0
    assert counters["loop.refuted"] == 1
    assert counters["loop.budget_exhausted"] == 0
    assert counters["loop.proven"] == 1

    telemetry = Telemetry()
    result = schedule_loop(
        loop, machine, telemetry=telemetry, placement_budget=1
    )
    assert not result.completed
    assert telemetry.counters["loop.budget_exhausted"] == 1
    assert telemetry.counters["loop.proven"] == 0


# ---------------------------------------------------------------------------
# The unified request form
# ---------------------------------------------------------------------------


def test_schedule_loop_accepts_request():
    loop = get_loop_kernel("scaled-update").lower()
    machine = get_machine("paper-simulation")
    legacy = schedule_loop(loop, machine)
    request = ScheduleRequest(problem=loop, machine=machine)
    via_request = schedule_loop(request)
    assert via_request.ii == legacy.ii
    assert via_request.offsets == legacy.offsets
    assert via_request.completed == legacy.completed


def test_schedule_loop_rejects_request_plus_kwargs():
    loop = get_loop_kernel("decay").lower()
    machine = get_machine("scalar")
    request = ScheduleRequest(problem=loop, machine=machine)
    with pytest.raises(ValueError, match="not both"):
        schedule_loop(request, machine=machine)


def test_schedule_loop_rejects_block_request():
    from repro.ir import parse_block

    block = parse_block("1: Load #a\n2: Store #a, 1")
    request = ScheduleRequest(
        problem=block, machine=get_machine("scalar")
    )
    with pytest.raises(TypeError, match="LoopBlock"):
        schedule_loop(request)


# ---------------------------------------------------------------------------
# Differential fuzz: random loops, searched II <= list II, all certified
# ---------------------------------------------------------------------------

_FUZZ_VARS = ("a", "b", "c")


@st.composite
def random_loops(draw):
    n_stmts = draw(st.integers(1, 3))
    stmts = []
    for _ in range(n_stmts):
        target = draw(st.sampled_from(_FUZZ_VARS))
        lhs = draw(st.sampled_from(_FUZZ_VARS + ("i",)))
        rhs = draw(st.sampled_from(_FUZZ_VARS))
        op = draw(st.sampled_from(("+", "-", "*")))
        stmts.append(f"{target} = {lhs} {op} {rhs};")
    trips = draw(st.integers(2, 6))
    return f"for i in 0..{trips} {{ {' '.join(stmts)} }}"


@settings(max_examples=25, deadline=None)
@given(
    source=random_loops(),
    machine_name=st.sampled_from(MACHINE_NAMES),
)
def test_fuzz_searched_never_loses_and_always_certifies(source, machine_name):
    loop = _lower(source)
    machine = get_machine(machine_name)
    result = schedule_loop(loop, machine)
    assert result.ii <= result.list_ii, source
    certificate = check_steady_state(
        loop.body, machine, result.offsets, result.ii,
        assignment=result.assignment,
    )
    assert certificate.ok, f"{source}\n{certificate.summary()}"


# ---------------------------------------------------------------------------
# Differential against the complete brute-force enumeration
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    source=random_loops(),
    machine_name=st.sampled_from(("paper-simulation", "deep-memory")),
)
def test_fuzz_search_matches_brute_force(source, machine_name):
    loop = _lower(source)
    assume(len(loop.body) <= 7)
    machine = get_machine(machine_name)
    result = schedule_loop(loop, machine)
    brute = brute_force_min_ii(
        loop.body, machine, assignment=result.assignment
    )
    assert result.ii >= brute.min_ii, source
    if result.completed:
        assert result.ii == brute.min_ii, source
