"""The ILP optimality backend, bottom-up.

Three layers, mirroring the package:

* the **simplex** solver on hand-solved tableaux — phase-1 starts,
  bound flips, infeasibility, the bound-override hooks branch and bound
  relies on;
* the **encoder** — issue windows, the encoder-owned Ω repricing, and
  the encode → solve → decode round trip certifying under the
  independent checker;
* the **backend** — ``schedule_block(backend="ilp")`` equals the
  exhaustive brute-force optimum on every random block small enough to
  enumerate (the cross-solver differential property).
"""

import math

import pytest
from hypothesis import assume, given, settings

from repro.ilp import (
    INFEASIBLE,
    OPTIMAL,
    IlpOptions,
    LinearProgram,
    ModelTables,
    TimeIndexedModel,
    schedule_block_ilp,
    solve,
)
from repro.ilp.simplex import PIVOT_LIMIT, UNBOUNDED
from repro.ir.dag import COUNT_CAPPED, DependenceDAG
from repro.sched.core import _Flat
from repro.sched.nop_insertion import SigmaResolver
from repro.sched.search import SearchOptions, schedule_block
from repro.verify.brute import brute_force_optimum
from repro.verify.certificate import check_schedule

from .strategies import any_machines, blocks

#: Legal-order cap under which brute force is cheap enough for a test.
ENUM_CAP = 600


# ----------------------------------------------------------------------
# Simplex on hand-solved programs
# ----------------------------------------------------------------------
def test_simplex_box_constrained_lp():
    # min -x - 2y  s.t.  x + y <= 1.5,  x, y in [0, 1].
    # Optimum by hand: y = 1 (cheaper), x = 0.5, objective -2.5.
    lp = LinearProgram()
    x = lp.add_variable(0.0, 1.0, objective=-1.0)
    y = lp.add_variable(0.0, 1.0, objective=-2.0)
    lp.add_row({x: 1.0, y: 1.0}, "<=", 1.5)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-2.5)
    assert sol.x[x] == pytest.approx(0.5)
    assert sol.x[y] == pytest.approx(1.0)


def test_simplex_phase1_start():
    # min 2x + 3y  s.t.  x + y >= 4,  x in [0, 3], y in [0, 10].
    # The slack basis violates the >= row, forcing a phase-1 artificial.
    # Optimum by hand: x = 3, y = 1, objective 9.
    lp = LinearProgram()
    x = lp.add_variable(0.0, 3.0, objective=2.0)
    y = lp.add_variable(0.0, 10.0, objective=3.0)
    lp.add_row({x: 1.0, y: 1.0}, ">=", 4.0)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(9.0)
    assert sol.x == (pytest.approx(3.0), pytest.approx(1.0))


def test_simplex_equality_row():
    # min x  s.t.  x + y == 2,  x, y in [0, 1.5]  →  x = 0.5, y = 1.5.
    lp = LinearProgram()
    x = lp.add_variable(0.0, 1.5, objective=1.0)
    y = lp.add_variable(0.0, 1.5)
    lp.add_row({x: 1.0, y: 1.0}, "==", 2.0)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.5)
    assert sol.x[y] == pytest.approx(1.5)


def test_simplex_infeasible():
    lp = LinearProgram()
    x = lp.add_variable(0.0, 1.0)
    y = lp.add_variable(0.0, 1.0)
    lp.add_row({x: 1.0, y: 1.0}, ">=", 5.0)
    assert solve(lp).status == INFEASIBLE


def test_simplex_bound_flip_without_rows():
    # min -x with x in [0, 1] and no rows: the optimum is reached by a
    # pure bound flip (no basis exists to pivot on).
    lp = LinearProgram()
    x = lp.add_variable(0.0, 1.0, objective=-1.0)
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.x[x] == pytest.approx(1.0)


def test_simplex_unbounded_is_reported():
    lp = LinearProgram()
    lp.add_variable(0.0, objective=-1.0)  # no upper bound, no rows
    assert solve(lp).status == UNBOUNDED


def test_simplex_pivot_limit():
    lp = LinearProgram()
    x = lp.add_variable(0.0, 3.0, objective=1.0)
    lp.add_row({x: 1.0}, ">=", 2.0)  # needs at least one phase-1 pivot
    assert solve(lp, pivot_limit=0).status == PIVOT_LIMIT


def test_simplex_bound_overrides_fix_variables():
    # The branch-and-bound hook: the same immutable program solved under
    # different bound overrides, without mutation.
    lp = LinearProgram()
    x = lp.add_variable(0.0, 1.0, objective=-1.0)
    y = lp.add_variable(0.0, 1.0, objective=-1.0)
    lp.add_row({x: 1.0, y: 1.0}, "<=", 1.0)
    free = solve(lp)
    assert free.objective == pytest.approx(-1.0)
    fixed = solve(lp, upper=[0.0, 1.0])  # branch x = 0
    assert fixed.status == OPTIMAL
    assert fixed.x[x] == pytest.approx(0.0)
    assert fixed.x[y] == pytest.approx(1.0)
    # Contradictory overrides (lo > up) are detected before any pivot.
    clash = solve(lp, lower=[1.0, 0.0], upper=[0.0, 1.0])
    assert clash.status == INFEASIBLE
    assert clash.pivots == 0


def test_program_validation():
    lp = LinearProgram()
    with pytest.raises(ValueError, match="finite lower bound"):
        lp.add_variable(-math.inf)
    with pytest.raises(ValueError, match="empty bound interval"):
        lp.add_variable(1.0, 0.0)
    x = lp.add_variable(0.0, 1.0)
    with pytest.raises(ValueError, match="unknown row sense"):
        lp.add_row({x: 1.0}, "<", 1.0)
    with pytest.raises(ValueError, match="unknown column"):
        lp.add_row({x + 1: 1.0}, "<=", 1.0)


def test_ilp_options_validation():
    with pytest.raises(ValueError, match="max_nodes"):
        IlpOptions(max_nodes=0)
    with pytest.raises(ValueError, match="pivot limits"):
        IlpOptions(node_pivot_limit=0)
    with pytest.raises(ValueError, match="time limit"):
        IlpOptions(time_limit=0.0)
    with pytest.raises(ValueError, match="integrality tolerance"):
        IlpOptions(integrality_tol=0.7)


# ----------------------------------------------------------------------
# Encoder: windows, repricing, round trip
# ----------------------------------------------------------------------
def _tables_for(block, machine):
    dag = DependenceDAG(block)
    resolver = SigmaResolver(dag, machine)
    return dag, ModelTables(_Flat(dag, machine, resolver, None))


def test_timing_of_matches_search_pricing(figure3_block, sim_machine):
    dag, tables = _tables_for(figure3_block, sim_machine)
    search = schedule_block(dag, sim_machine)
    dense = [tables.flat.index_of[i] for i in search.best.order]
    timing = tables.timing_of(dense)
    assert timing.order == search.best.order
    assert timing.etas == search.best.etas
    assert timing.total_nops == search.final_nops


def test_issue_windows_admit_the_optimum(figure3_block, sim_machine):
    dag, tables = _tables_for(figure3_block, sim_machine)
    search = schedule_block(dag, sim_machine)
    assert search.completed
    horizon = search.best.issue_times[-1]
    model = TimeIndexedModel(tables, horizon)
    assert model.z_lower >= len(dag) - 1
    assert model.z_lower <= horizon
    # Every issue cycle of the proven-optimal schedule falls inside its
    # instruction's [est, lst] window — the windows cut no optimum off.
    for ident, t in zip(search.best.order, search.best.issue_times):
        k = tables.flat.index_of[ident]
        assert model.est[k] <= t <= model.lst[k]
        assert (k, t) in model.col_of


def test_decode_recovers_a_known_schedule(figure3_block, sim_machine):
    dag, tables = _tables_for(figure3_block, sim_machine)
    search = schedule_block(dag, sim_machine)
    model = TimeIndexedModel(tables, search.best.issue_times[-1])
    x = [0.0] * (len(model.slot_of) + 1)
    dense = [tables.flat.index_of[i] for i in search.best.order]
    for k, t in zip(dense, search.best.issue_times):
        x[model.col_of[(k, t)]] = 1.0
    assert model.fractional_col(tuple(x)) is None
    assert model.decode(tuple(x)) == dense
    # And the repriced decode certifies under the independent checker.
    timing = tables.timing_of(model.decode(tuple(x)))
    cert = check_schedule(
        figure3_block, sim_machine, timing.order, timing.etas
    )
    assert cert.ok, cert.summary()


def test_fractional_solutions_are_flagged(figure3_block, sim_machine):
    _, tables = _tables_for(figure3_block, sim_machine)
    model = TimeIndexedModel(tables, 12)
    x = [0.0] * (len(model.slot_of) + 1)
    x[0] = 0.5
    assert model.fractional_col(tuple(x)) == 0
    with pytest.raises(ValueError, match="one-slot-per-instruction"):
        model.decode(tuple(x))


def test_too_small_horizon_raises(figure3_block, sim_machine):
    _, tables = _tables_for(figure3_block, sim_machine)
    with pytest.raises(ValueError, match="no issue window"):
        TimeIndexedModel(tables, 2)


# ----------------------------------------------------------------------
# Backend: end to end and differential against brute force
# ----------------------------------------------------------------------
def test_ilp_backend_on_figure3(figure3_block, sim_machine):
    dag = DependenceDAG(figure3_block)
    search = schedule_block(dag, sim_machine)
    ilp = schedule_block_ilp(dag, sim_machine)
    assert ilp.completed
    assert ilp.final_nops == search.final_nops == 2
    assert ilp.lower_bound == ilp.final_nops
    assert ilp.optimality_gap == 0
    assert ilp.lp_relaxation <= ilp.final_nops + 1e-6
    assert ilp.nodes >= 1
    cert = check_schedule(
        figure3_block, sim_machine, ilp.best.order, ilp.best.etas
    )
    assert cert.ok, cert.summary()
    assert cert.required_nops == ilp.final_nops


def test_ilp_backend_trivial_block(sim_machine):
    from repro.ir import parse_block

    dag = DependenceDAG(parse_block("1: Load #a"))
    ilp = schedule_block_ilp(dag, sim_machine)
    assert ilp.completed
    assert ilp.nodes == 0
    assert ilp.lower_bound == ilp.final_nops


def test_ilp_backend_rejects_register_budget(figure3_block, sim_machine):
    dag = DependenceDAG(figure3_block)
    with pytest.raises(ValueError, match="max_live"):
        schedule_block(
            dag, sim_machine, SearchOptions(max_live=4), backend="ilp"
        )


def test_unknown_backend_rejected(figure3_block, sim_machine):
    dag = DependenceDAG(figure3_block)
    with pytest.raises(ValueError, match="unknown scheduling backend"):
        schedule_block(dag, sim_machine, backend="simplex")


def test_ilp_never_worse_than_its_seed(figure3_block, sim_machine):
    dag = DependenceDAG(figure3_block)
    # Seed with the worst list order (program order): the ILP must match
    # or improve it, and its `initial` records the seed's pricing.
    seed = tuple(dag.idents)
    ilp = schedule_block_ilp(dag, sim_machine, seed=seed)
    assert ilp.initial.order == seed
    assert ilp.final_nops <= ilp.initial_nops


@given(blocks(max_size=6), any_machines())
@settings(max_examples=25, deadline=None)
def test_ilp_matches_brute_force_optimum(block, machine):
    """The cross-solver differential property: on every block small
    enough to enumerate, the ILP's proven optimum equals independent
    exhaustive enumeration, and its schedule certifies."""
    if not machine.is_deterministic:
        machine = machine.fixed_assignment()
    dag = DependenceDAG(block)
    assume(dag.count_legal_orders(cap=ENUM_CAP) != COUNT_CAPPED)
    ilp = schedule_block_ilp(
        dag, machine, ilp_options=IlpOptions(max_nodes=600)
    )
    brute = brute_force_optimum(block, machine)
    assert brute.exhausted
    # Incumbent above the optimum, certified bound below it — and when
    # branch and bound completes the three collapse to one number.
    assert ilp.final_nops >= brute.best_nops
    assert ilp.lower_bound <= brute.best_nops
    assert ilp.lp_relaxation <= brute.best_nops + 1e-6
    if ilp.completed:
        assert ilp.final_nops == brute.best_nops
        assert ilp.lower_bound == ilp.final_nops
    cert = check_schedule(block, machine, ilp.best.order, ilp.best.etas)
    assert cert.ok, cert.summary()
    assert cert.required_nops == ilp.final_nops
