"""The release-deadline lower bound of the block search.

* The root bound is one function (``repro.sched.core.root_bound``, with
  ``root_lower_bound`` as its wrapper): every engine's preamble proves a
  block by bound exactly when the first incumbent meets it.
* It is admissible: never above the brute-force optimum, with carry-in
  conditions and under a register budget.
* Switching ``lower_bound_prune`` on never costs a result: a completed
  search without the bounds returns the same schedule with the bounds,
  in no more Omega calls, and the bounds never lose completion.
* Every kernel x preset pair completes at the default options, and the
  engines agree on it bit for bit.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.dag import DependenceDAG
from repro.machine.machine import first_pipeline_assignment
from repro.machine.presets import PRESETS, get_machine
from repro.sched.nop_insertion import InitialConditions, compute_timing
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


@st.composite
def carry_ins(draw, machine):
    """Random carry-in conditions: busy pipelines and late variables."""
    pipe_free = {
        p.ident: draw(st.integers(1, 8))
        for p in machine.pipelines
        if draw(st.booleans())
    }
    variable_ready = {
        v: draw(st.integers(1, 8)) for v in VARIABLES if draw(st.booleans())
    }
    return InitialConditions(pipe_free=pipe_free, variable_ready=variable_ready)


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
