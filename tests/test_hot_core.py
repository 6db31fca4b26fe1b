"""The flattened hot core (`repro.sched.core`) against the reference engine.

The fast and native engines' contract is *bit-for-bit* equality with
the recursive reference — every ``SearchResult`` field except wall time.
These tests pin that contract:

* differential fuzzing (hypothesis blocks x random + adversarial
  machines) over every engine pair, with each engine's schedule
  re-derived through the independent certificate checker;
* the degradation paths: dominance-memo eviction under a tiny
  ``max_memo_entries``, curtail, and wall-clock deadlines (including the
  ``BlockRecord.degraded`` path the experiments publish) — under every
  engine;
* wide ready frontiers, carry-in conditions and windowed splits of
  large blocks;
* the engine switch itself (options validation, per-call override, the
  split scheduler's engine parameter, the removed ``vector`` name).
"""

import pytest
from hypothesis import given, settings

import repro.sched.core as core
from repro.experiments.runner import schedule_generated_block
from repro.ir.block import BlockBuilder
from repro.ir.dag import DependenceDAG
from repro.machine.machine import first_pipeline_assignment
from repro.machine.presets import get_machine
from repro.sched.nop_insertion import InitialConditions
from repro.sched.search import ENGINES, SearchOptions, schedule_block
from repro.sched.splitting import schedule_block_split
from repro.synth.population import PopulationSpec, sample_population
from repro.telemetry import Telemetry
from repro.verify.certificate import check_schedule

from .strategies import any_machines, blocks

def _assignment_for(dag, machine):
    """Pin pipelines iff the machine is non-deterministic (matching how
    the experiments drive ``schedule_block``)."""
    if machine.is_deterministic:
        return None
    return first_pipeline_assignment(dag, machine)


def _fields(result):
    """Everything a ``SearchResult`` carries except wall time."""
    return (
        result.best,
        result.initial,
        result.omega_calls,
        result.completed,
        result.improvements,
        result.proved_by_bound,
        result.timed_out,
        result.memo_evicted,
        dict(result.prune_counts),
    )


def _run_all(dag, machine, options, assignment=None, **kwargs):
    """Run every engine; assert pairwise bit-for-bit equality."""
    results = {
        name: schedule_block(
            dag, machine, options, assignment=assignment, engine=name,
            **kwargs,
        )
        for name in ENGINES
    }
    reference = _fields(results["reference"])
    for name in ENGINES:
        assert _fields(results[name]) == reference, f"{name} != reference"
    return results["fast"]


# ----------------------------------------------------------------------
# Differential fuzzing
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(block=blocks(max_size=9), machine=any_machines())
def test_fast_engine_matches_reference(block, machine):
    """Random blocks x (random + adversarial) machines: identical results
    and a valid certificate for the fast engine's schedule."""
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    fast = _run_all(dag, machine, SearchOptions(), assignment=assignment)
    cert = check_schedule(
        block,
        machine,
        fast.best.order,
        fast.best.etas,
        assignment=assignment,
    )
    assert cert.ok, cert.summary()


@settings(max_examples=60, deadline=None)
@given(block=blocks(max_size=8), machine=any_machines())
def test_fast_engine_matches_reference_paper_prunes(block, machine):
    """The published prune set (no dominance/lower-bound prunes, no
    heuristic seeding) exercises different engine paths — same contract."""
    dag = DependenceDAG(block)
    _run_all(
        dag,
        machine,
        SearchOptions.paper(),
        assignment=_assignment_for(dag, machine),
    )


def _population(n_blocks, seed=7):
    machine = get_machine("paper-simulation")
    spec = PopulationSpec(statement_shape=2.0, statement_scale=2.0, max_statements=10)
    generated = sample_population(n_blocks, master_seed=seed, spec=spec)
    return machine, [gb for gb in generated if len(gb.block) > 1]


def test_split_engines_match():
    """Window-by-window scheduling: all engines agree on every field."""
    machine, members = _population(30)
    for gb in members:
        dag = DependenceDAG(gb.block)
        ref = schedule_block_split(dag, machine, window=5, engine="reference")
        for name in ("fast", "native"):
            got = schedule_block_split(dag, machine, window=5, engine=name)
            assert got.timing == ref.timing
            assert got.omega_calls == ref.omega_calls
            assert got.windows == ref.windows
            assert got.all_windows_completed == ref.all_windows_completed
            assert dict(got.prune_counts) == dict(ref.prune_counts)


# ----------------------------------------------------------------------
# Memo eviction
# ----------------------------------------------------------------------
def test_memo_eviction_degrades_gracefully():
    """Overflowing ``max_memo_entries`` must cost only speed: both engines
    keep returning optimal schedules, evict identically, and report the
    evictions through ``search.memo_evicted``."""
    machine, members = _population(60, seed=11)
    options = SearchOptions(max_memo_entries=4)
    baseline = SearchOptions()
    telemetry = Telemetry()
    evicted_anywhere = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        fast = schedule_block(
            dag, machine, options, telemetry=telemetry, engine="fast"
        )
        ref = schedule_block(dag, machine, options, engine="reference")
        nat = schedule_block(dag, machine, options, engine="native")
        assert _fields(fast) == _fields(ref)
        assert _fields(nat) == _fields(ref)
        evicted_anywhere = evicted_anywhere or fast.memo_evicted > 0
        # A starved memo may only cost omega calls, never quality.
        full = schedule_block(dag, machine, baseline, engine="fast")
        assert fast.completed and full.completed
        assert fast.final_nops == full.final_nops
        assert fast.omega_calls >= full.omega_calls
    assert evicted_anywhere, "population never overflowed a 4-entry memo"
    assert telemetry.counters["search.memo_evicted"] > 0


def test_memo_disabled_entirely():
    """``max_memo_entries=0`` disables the memo without disabling the
    dominance prune logic's correctness."""
    machine, members = _population(20, seed=13)
    options = SearchOptions(max_memo_entries=0)
    for gb in members[:8]:
        dag = DependenceDAG(gb.block)
        fast = _run_all(dag, machine, options)
        assert fast.completed


# ----------------------------------------------------------------------
# Curtail and wall-clock deadlines
# ----------------------------------------------------------------------
def test_curtail_honored_by_fast_engine():
    """A tiny omega budget truncates both engines at the same call."""
    machine, members = _population(40, seed=3)
    options = SearchOptions(curtail=1)
    saw_truncation = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        fast = _run_all(dag, machine, options)
        assert fast.omega_calls <= len(dag) * 3 + 1
        saw_truncation = saw_truncation or not fast.completed
    assert saw_truncation, "curtail=1 never truncated a search"


def test_time_limit_honored_by_fast_engine():
    """A vanishing deadline stops the fast engine immediately and
    marks the result ``timed_out`` (never ``completed``)."""
    machine, members = _population(40, seed=5)
    options = SearchOptions(time_limit=1e-9)
    saw_timeout = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        fast = _run_all(dag, machine, options)
        if fast.timed_out:
            saw_timeout = True
            assert not fast.completed
    assert saw_timeout, "a 1ns time limit never expired a search"


def test_block_timeout_degrades_block_record():
    """Deadline-degraded blocks keep ``degraded=True, completed=False``
    through ``BlockRecord``, and publish the list-schedule seed."""
    machine, members = _population(40, seed=9)
    telemetry = Telemetry()
    degraded = []
    for index, gb in enumerate(members):
        record = schedule_generated_block(
            index,
            gb,
            machine,
            SearchOptions(engine="fast"),
            telemetry=telemetry,
            block_timeout=1e-9,
        )
        if record.degraded:
            degraded.append(record)
    assert degraded, "a 1ns block timeout never degraded a block"
    for record in degraded:
        assert not record.completed
        assert record.final_nops == record.seed_nops
    assert telemetry.counters["blocks.degraded"] == len(degraded)


# ----------------------------------------------------------------------
# The engine switch itself
# ----------------------------------------------------------------------
def test_engine_option_validation():
    with pytest.raises(ValueError, match="unknown search engine"):
        SearchOptions(engine="turbo")
    assert SearchOptions(engine="vector").engine == "vector"
    machine, members = _population(3, seed=1)
    dag = DependenceDAG(members[0].block)
    with pytest.raises(ValueError, match="unknown search engine"):
        schedule_block(dag, machine, SearchOptions(), engine="turbo")
    with pytest.raises(ValueError, match="unknown search engine"):
        schedule_block_split(dag, machine, engine="turbo")


def test_engine_override_beats_options():
    """The per-call ``engine=`` argument overrides ``options.engine``."""
    machine, members = _population(5, seed=2)
    dag = DependenceDAG(members[0].block)
    options = SearchOptions(engine="reference")
    fast = schedule_block(dag, machine, options, engine="fast")
    ref = schedule_block(dag, machine, options)
    assert _fields(fast) == _fields(ref)


# ----------------------------------------------------------------------
# Wide frontiers, carry-ins and large split blocks
# ----------------------------------------------------------------------
def test_wide_frontier_matches_reference():
    """A block whose root offers ~40 ready instructions: every engine
    scores the whole frontier and must still match bit for bit."""
    builder = BlockBuilder("wide")
    refs = [builder.emit_load("a") for _ in range(40)]
    builder.emit_store("a", refs[-1])
    dag = DependenceDAG(builder.build())
    machine = get_machine("paper-simulation")
    # No lower-bound prune: the homogeneous block would otherwise be
    # proven optimal at the root and never reach the DFS.
    options = SearchOptions(curtail=2_000, lower_bound_prune=False)
    _run_all(dag, machine, options)


def test_carry_in_conditions_match_reference():
    """Carry-in pipeline/variable state enters the dominance-memo keys
    and the candidate η; the lattice must stay exact."""
    machine, members = _population(25, seed=17)
    pid = sorted(p.ident for p in machine.pipelines)[0]
    for gb in members[:10]:
        dag = DependenceDAG(gb.block)
        variables = sorted(
            {t.variable for t in gb.block if t.variable is not None}
        )
        init = InitialConditions(
            pipe_free={pid: 3},
            variable_ready={variables[0]: 5} if variables else {},
        )
        _run_all(dag, machine, SearchOptions(), initial_conditions=init)


def test_split_matches_on_large_blocks():
    """Blocks well past the window size exercise the carry-across-window
    state of the fast and native splitters."""
    machine = get_machine("paper-simulation")
    spec = PopulationSpec(
        statement_shape=2.0, statement_scale=4.0, max_statements=25
    )
    for gb in sample_population(10, master_seed=23, spec=spec):
        if len(gb.block) < 8:
            continue
        dag = DependenceDAG(gb.block)
        ref = schedule_block_split(dag, machine, window=6, engine="reference")
        for name in ("fast", "native"):
            got = schedule_block_split(dag, machine, window=6, engine=name)
            assert got.timing == ref.timing
            assert got.omega_calls == ref.omega_calls
            assert dict(got.prune_counts) == dict(ref.prune_counts)


def test_vector_alias_runs_fast(monkeypatch, capsys):
    """The removed ``vector`` engine name still runs: it is the fast
    engine field for field, with one stderr notice per process and a
    ``search.engine_fallbacks`` count per call."""
    machine, members = _population(6, seed=21)
    dag = DependenceDAG(members[0].block)
    fast = schedule_block(dag, machine, SearchOptions(), engine="fast")
    split_fast = schedule_block_split(dag, machine, window=4, engine="fast")
    monkeypatch.setattr(core, "_removed_engine_warned", False)
    telemetry = Telemetry()
    vec1 = schedule_block(
        dag, machine, SearchOptions(), engine="vector", telemetry=telemetry
    )
    vec2 = schedule_block(
        dag, machine, SearchOptions(engine="vector"), telemetry=telemetry
    )
    split_vec = schedule_block_split(
        dag, machine, window=4, engine="vector", telemetry=telemetry
    )
    err = capsys.readouterr().err
    assert err.count("engine 'vector' was removed; running 'fast'") == 1, err
    assert telemetry.counters["search.engine_fallbacks"] == 3
    assert _fields(vec1) == _fields(fast)
    assert _fields(vec2) == _fields(fast)
    assert split_vec.timing == split_fast.timing
    assert split_vec.windows == split_fast.windows
    assert split_vec.omega_calls == split_fast.omega_calls
    assert split_vec.all_windows_completed == split_fast.all_windows_completed
    assert dict(split_vec.prune_counts) == dict(split_fast.prune_counts)
