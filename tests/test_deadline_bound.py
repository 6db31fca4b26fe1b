"""The release-deadline lower bound of the block search.

* The root bound is one function (``repro.sched.bounds.root_bound``, with
  ``root_lower_bound`` as its wrapper): every engine's preamble proves a
  block by bound exactly when the first incumbent meets it.
* It is admissible: never above the brute-force optimum, with carry-in
  conditions and under a register budget.
* Switching ``lower_bound_prune`` on never costs a result: a completed
  search without the bounds returns the same schedule with the bounds,
  in no more Omega calls, and the bounds never lose completion.
* Every kernel x preset pair completes at the default options, and the
  engines agree on it bit for bit.
* The root bound's pipeline-position term is admissible on its own (on
  every preset, with carry-in conditions and pinned assignments), and a
  search stops at the first improvement that meets the root bound.
* Under per-tuple and per-variable carry-in releases every engine's
  search is exact, with the paper's prune set too: the 5c equivalence
  prune never merges candidates whose releases differ.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dag import DependenceDAG
from repro.ir.ops import Opcode
from repro.ir.textual import parse_block
from repro.machine.machine import MachineDescription, first_pipeline_assignment
from repro.machine.pipeline import PipelineDesc
from repro.machine.presets import PRESETS, get_machine
from repro.sched.bounds import downstream_chains, position_lateness
from repro.sched.core import _Flat
from repro.sched.nop_insertion import InitialConditions, SigmaResolver, compute_timing
from repro.sched.search import (
    ENGINES,
    SearchOptions,
    root_lower_bound,
    schedule_block,
)
from repro.verify.brute import brute_force_optimum
from repro.verify.certificate import check_schedule

from .strategies import VARIABLES, any_machines, blocks
from .test_differential import kernel_blocks
from .test_hot_core import _fields


def _assignment_for(dag, machine):
    if machine.is_deterministic:
        return None
    return first_pipeline_assignment(dag, machine)


def _first_incumbent(dag, machine, assignment, initial=None):
    """NOPs of the incumbent the search starts from: a one-call curtail
    stops the DFS before it can improve on the priced seeds."""
    return schedule_block(
        dag,
        machine,
        SearchOptions(curtail=1, lower_bound_prune=False),
        assignment=assignment,
        initial_conditions=initial,
    ).best.total_nops


def _position_term(dag, machine, assignment=None, initial=None):
    """The root bound's pipeline-position term alone, clamped at zero."""
    flat = _Flat(dag, machine, SigmaResolver(dag, machine, assignment), initial)
    return max(0, position_lateness(flat, downstream_chains(flat)))


@st.composite
def pinned_assignments(draw, dag, machine):
    """Each tuple pinned to a random pipeline among those its operation
    may use (none when it uses none)."""
    return {
        t.ident: (
            draw(st.sampled_from(sorted(machine.pipelines_for(t.op))))
            if machine.pipelines_for(t.op) else None
        )
        for t in dag.block
    }


@st.composite
def carry_ins(draw, machine, dag=None):
    """Random carry-in conditions: busy pipelines, late variables and,
    given ``dag``, late tuples."""
    pipe_free = {
        p.ident: draw(st.integers(1, 8))
        for p in machine.pipelines
        if draw(st.booleans())
    }
    variable_ready = {
        v: draw(st.integers(1, 8)) for v in VARIABLES if draw(st.booleans())
    }
    tuple_ready = {
        i: draw(st.integers(1, 8))
        for i in (dag.idents if dag is not None else ())
        if draw(st.booleans())
    }
    return InitialConditions(
        pipe_free=pipe_free, variable_ready=variable_ready, tuple_ready=tuple_ready
    )


@settings(max_examples=80, deadline=None)
@given(block=blocks(min_size=2, max_size=9), machine=any_machines(),
       data=st.data())
def test_proved_by_bound_iff_incumbent_meets_root_bound(block, machine, data):
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    initial = data.draw(st.one_of(st.none(), carry_ins(machine)))
    bound = root_lower_bound(dag, machine, assignment, initial)
    first = _first_incumbent(dag, machine, assignment, initial)
    for engine in ENGINES:
        result = schedule_block(
            dag, machine, SearchOptions(engine=engine),
            assignment=assignment, initial_conditions=initial,
        )
        assert result.proved_by_bound == (first <= bound), engine
        assert bound <= result.final_nops or not result.completed, engine


def _legal_orders(dag):
    for order in itertools.permutations(dag.idents):
        if dag.is_legal_order(order):
            yield order


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=25, deadline=None)
@given(block=blocks(max_size=6))
def test_root_bound_admissible_on_presets(preset, block):
    machine = get_machine(preset)
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    optimum = brute_force_optimum(block, machine, assignment).best_nops
    assert root_lower_bound(dag, machine, assignment) <= optimum
    assert _position_term(dag, machine, assignment) <= optimum


@settings(max_examples=60, deadline=None)
@given(block=blocks(max_size=6), machine=any_machines(), data=st.data())
def test_root_bound_admissible_with_carry_in(block, machine, data):
    """Carry-in conditions delay releases, never below the optimum: each
    order's timing is certified minimal by the independent checker."""
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    initial = data.draw(carry_ins(machine))
    optimum = None
    for order in _legal_orders(dag):
        timing = compute_timing(dag, order, machine, assignment, initial=initial)
        report = check_schedule(
            block, machine, timing.order, timing.etas, assignment,
            pipe_free=initial.pipe_free,
            variable_ready=initial.variable_ready,
        )
        assert report.ok, report
        if optimum is None or timing.total_nops < optimum:
            optimum = timing.total_nops
    assert root_lower_bound(dag, machine, assignment, initial) <= optimum
    assert _position_term(dag, machine, assignment, initial) <= optimum


@settings(max_examples=60, deadline=None)
@given(block=blocks(min_size=2, max_size=6), machine=any_machines(),
       paper=st.booleans(), data=st.data())
def test_search_is_optimal_under_carry_in_releases(block, machine, paper, data):
    """With per-tuple and per-variable releases, every engine's search
    completes at the minimum over all legal orders, under the default
    prune set and the paper's (whose 5c prune must see releases), and
    the certificate accepts the schedule with the same releases."""
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    initial = data.draw(carry_ins(machine, dag))
    optimum = min(
        compute_timing(dag, order, machine, assignment, initial=initial).total_nops
        for order in _legal_orders(dag)
    )
    options = SearchOptions.paper() if paper else SearchOptions()
    for engine in ENGINES:
        result = schedule_block(
            dag, machine, replace(options, engine=engine),
            assignment=assignment, initial_conditions=initial,
        )
        assert result.completed and result.final_nops == optimum, engine
        report = check_schedule(
            block, machine, result.best.order, result.best.etas, assignment,
            pipe_free=initial.pipe_free,
            variable_ready=initial.variable_ready,
            tuple_ready=initial.tuple_ready,
        )
        assert report.ok and report.required_nops == optimum, report


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "options", [SearchOptions(), SearchOptions.paper()], ids=["default", "paper"]
)
def test_equivalence_prune_respects_releases(engine, options):
    """Two no-pipeline loads feeding one add are interchangeable only
    while neither has a carry-in release.  With ``a`` ready at cycle 5,
    order (1, 2, 3) needs 5 NOPs and (2, 1, 3) needs 4."""
    machine = MachineDescription(
        "unpipelined-load", [PipelineDesc("alu", 1, latency=2, enqueue_time=1)],
        {Opcode.ADD: {1}},
    )
    dag = DependenceDAG(parse_block("1: Load #a\n2: Load #b\n3: Add 1, 2"))
    result = schedule_block(
        dag, machine, replace(options, engine=engine),
        initial_conditions=InitialConditions(variable_ready={"a": 5}),
    )
    assert result.completed
    assert result.final_nops == 4
    assert result.best.order == (2, 1, 3)


@settings(max_examples=60, deadline=None)
@given(block=blocks(max_size=7), machine=any_machines(),
       max_live=st.integers(3, 5))
def test_root_bound_admissible_under_register_budget(block, machine, max_live):
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    options = SearchOptions(lower_bound_prune=False, max_live=max_live)
    try:
        result = schedule_block(dag, machine, options, assignment=assignment)
    except ValueError:
        return  # program order itself exceeds the budget: nothing to bound
    assert result.completed
    assert root_lower_bound(dag, machine, assignment) <= result.final_nops
    bounded = schedule_block(
        dag, machine, SearchOptions(max_live=max_live), assignment=assignment
    )
    assert (bounded.best.order, bounded.best.etas) == (
        result.best.order, result.best.etas
    )


@settings(max_examples=60, deadline=None)
@given(block=blocks(min_size=2, max_size=11), machine=any_machines(),
       curtail=st.sampled_from([200, 2_000, 50_000]), data=st.data())
def test_bounds_on_never_worse_than_off(block, machine, curtail, data):
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    initial = data.draw(st.one_of(st.none(), carry_ins(machine)))
    for engine in ENGINES:
        on, off = (
            schedule_block(
                dag, machine,
                SearchOptions(
                    curtail=curtail, engine=engine, lower_bound_prune=flag
                ),
                assignment=assignment, initial_conditions=initial,
            )
            for flag in (True, False)
        )
        if off.completed:
            assert (on.best.order, on.best.etas) == (
                off.best.order, off.best.etas
            ), engine
        assert on.omega_calls <= off.omega_calls, engine
        assert on.completed >= off.completed, engine
        assert on.final_nops <= off.final_nops, engine


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_kernel_completes_and_engines_agree(preset):
    machine = get_machine(preset)
    for name, block in kernel_blocks():
        dag = DependenceDAG(block)
        assignment = _assignment_for(dag, machine)
        results = [
            schedule_block(
                dag, machine, SearchOptions(engine=engine),
                assignment=assignment,
            )
            for engine in ENGINES
        ]
        assert results[0].completed, (name, preset)
        assert all(_fields(r) == _fields(results[0]) for r in results), (
            name, preset,
        )


@settings(max_examples=80, deadline=None)
@given(block=blocks(min_size=2, max_size=7), machine=any_machines(), data=st.data())
def test_position_term_admissible_with_pinned_assignments(block, machine, data):
    dag = DependenceDAG(block)
    assignment = data.draw(pinned_assignments(dag, machine))
    optimum = brute_force_optimum(block, machine, assignment).best_nops
    assert _position_term(dag, machine, assignment) <= optimum


def _dot4():
    return dict(kernel_blocks())["dot4"]


def test_position_term_closes_dot4_at_the_root():
    """dot4 on the paper's simulation machine: the release-deadline
    sweeps give 1 NOP, the optimum is 2 (the next test), and the
    position term (its latency step included) reaches it."""
    dag = DependenceDAG(_dot4())
    machine = get_machine("paper-simulation")
    assert _position_term(dag, machine) == 2
    assert root_lower_bound(dag, machine) == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_search_stops_when_an_improvement_meets_the_root_bound(engine):
    """Every heuristic incumbent of dot4 needs 4 NOPs; the DFS finds 2
    and stops there instead of exhausting a space 50x larger."""
    machine = get_machine("paper-simulation")
    dag = DependenceDAG(_dot4())
    result = schedule_block(dag, machine, SearchOptions(engine=engine))
    assert result.completed and not result.proved_by_bound
    assert result.initial_nops == 4 and result.final_nops == 2
    assert result.omega_calls <= 100
    # The paper's prune set has no lower bounds, so it searches on.
    paper = schedule_block(dag, machine, replace(SearchOptions.paper(), engine=engine))
    assert paper.final_nops == 2 and paper.omega_calls > 1_000
