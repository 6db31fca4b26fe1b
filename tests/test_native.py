"""The native (compiled C) engine: lattice fidelity, build cache, fallback.

Three layers of contract:

* **Differential** — the native engine must be bit-for-bit the fast
  and reference engines in every ``SearchResult`` field except
  ``elapsed_seconds``, over random blocks x (random + adversarial)
  machines and under every truncation mode (curtail, wall-clock
  deadline, memo starvation).
* **Build cache** — first use compiles into a sha256-keyed cache dir;
  later uses hit the cache without invoking the compiler; a corrupted
  cached object is recompiled once, transparently.
* **Fallback** — without a C compiler the engine degrades to ``fast``
  with exactly one stderr notice per process and a telemetry counter.

The whole module degrades gracefully on a host without a compiler: the
differential tests then exercise the documented fallback (identical
results, just not an independent implementation), and the cache tests
skip.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings

import repro.native.bindings as bindings
import repro.native.build as build
import repro.sched.core as core
from repro.ir.dag import DependenceDAG
from repro.machine.presets import get_machine
from repro.native import NativeBuildError, build_kernel, compiler_info
from repro.sched.multi import first_pipeline_assignment
from repro.sched.search import SearchOptions, schedule_block
from repro.sched.splitting import schedule_block_split
from repro.synth.population import PopulationSpec, sample_population
from repro.telemetry import Telemetry

from .strategies import any_machines, blocks

HAVE_CC = build.find_compiler() is not None

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


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


def _split_fields(result):
    return (
        result.timing,
        result.windows,
        result.omega_calls,
        result.all_windows_completed,
        dict(result.prune_counts),
    )


def _assignment_for(dag, machine):
    if machine.is_deterministic:
        return None
    return first_pipeline_assignment(dag, machine)


def _population(n_blocks, seed=7):
    machine = get_machine("paper-simulation")
    spec = PopulationSpec(
        statement_shape=2.0, statement_scale=2.0, max_statements=10
    )
    generated = sample_population(n_blocks, master_seed=seed, spec=spec)
    return machine, [gb for gb in generated if len(gb.block) > 1]


# ----------------------------------------------------------------------
# Differential fuzzing: native against every other engine
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(block=blocks(max_size=9), machine=any_machines())
def test_native_matches_every_engine(block, machine):
    """Random blocks x (random + adversarial) machines: the native result
    is field-for-field the fast and reference results."""
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    results = {
        name: schedule_block(
            dag, machine, SearchOptions(), assignment=assignment, engine=name
        )
        for name in ("native", "fast", "reference")
    }
    native = _fields(results["native"])
    for name in ("fast", "reference"):
        assert native == _fields(results[name]), f"native != {name}"


@settings(max_examples=40, deadline=None)
@given(block=blocks(max_size=8), machine=any_machines())
def test_native_matches_paper_prunes(block, machine):
    """The published prune set (no dominance/lower-bound prunes, no
    heuristic seeding) drives different kernel paths — same contract."""
    dag = DependenceDAG(block)
    assignment = _assignment_for(dag, machine)
    ref = schedule_block(
        dag,
        machine,
        SearchOptions.paper(),
        assignment=assignment,
        engine="reference",
    )
    nat = schedule_block(
        dag,
        machine,
        SearchOptions.paper(),
        assignment=assignment,
        engine="native",
    )
    assert _fields(nat) == _fields(ref)


def test_native_split_matches():
    """Window-by-window scheduling through the C splitter: every field of
    the ``SplitScheduleResult`` agrees with the fast splitter."""
    machine, members = _population(25)
    for gb in members:
        dag = DependenceDAG(gb.block)
        fast = schedule_block_split(
            dag, machine, window=4, curtail_per_window=300, engine="fast"
        )
        nat = schedule_block_split(
            dag, machine, window=4, curtail_per_window=300, engine="native"
        )
        assert _split_fields(nat) == _split_fields(fast)


def test_native_register_budget_matches():
    """A ``max_live`` budget routes the operand/produces tables into the
    kernel; budget-illegal candidates must be skipped identically."""
    machine, members = _population(30, seed=19)
    options = SearchOptions(max_live=6)
    compared = 0
    for gb in members:
        dag = DependenceDAG(gb.block)
        try:
            fast = schedule_block(dag, machine, options, engine="fast")
        except ValueError:
            continue  # seed itself exceeds the budget
        nat = schedule_block(dag, machine, options, engine="native")
        assert _fields(nat) == _fields(fast)
        compared += 1
    assert compared, "population never fit a max_live=6 budget"


# ----------------------------------------------------------------------
# Truncation regressions (mirroring test_hot_core.py)
# ----------------------------------------------------------------------
def test_native_curtail_truncates_identically():
    """A tiny omega budget truncates the C DFS at exactly the same call,
    with the same incumbent and the same prune counters."""
    machine, members = _population(40, seed=3)
    options = SearchOptions(curtail=1)
    saw_truncation = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        fast = schedule_block(dag, machine, options, engine="fast")
        nat = schedule_block(dag, machine, options, engine="native")
        assert _fields(nat) == _fields(fast)
        saw_truncation = saw_truncation or not fast.completed
    assert saw_truncation, "curtail=1 never truncated a search"


def test_native_time_limit_honored():
    """A vanishing deadline expires before the first expansion in both
    engines, so even the (speed-dependent) truncation point agrees."""
    machine, members = _population(40, seed=5)
    options = SearchOptions(time_limit=1e-9)
    saw_timeout = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        fast = schedule_block(dag, machine, options, engine="fast")
        nat = schedule_block(dag, machine, options, engine="native")
        assert _fields(nat) == _fields(fast)
        if nat.timed_out:
            saw_timeout = True
            assert not nat.completed
    assert saw_timeout, "a 1ns time limit never expired a search"


def test_native_memo_eviction_matches():
    """A 4-entry dominance memo overflows; the C FIFO hash table must
    evict the same entries at the same time as the Python dict."""
    machine, members = _population(60, seed=11)
    options = SearchOptions(max_memo_entries=4)
    evicted_anywhere = False
    for gb in members:
        dag = DependenceDAG(gb.block)
        fast = schedule_block(dag, machine, options, engine="fast")
        nat = schedule_block(dag, machine, options, engine="native")
        assert _fields(nat) == _fields(fast)
        evicted_anywhere = evicted_anywhere or nat.memo_evicted > 0
    assert evicted_anywhere, "population never overflowed a 4-entry memo"


def test_native_memo_disabled():
    """``max_memo_entries=0`` must disable insertion (not prune logic) on
    the C side exactly as on the Python side."""
    machine, members = _population(20, seed=13)
    options = SearchOptions(max_memo_entries=0)
    for gb in members[:8]:
        dag = DependenceDAG(gb.block)
        fast = schedule_block(dag, machine, options, engine="fast")
        nat = schedule_block(dag, machine, options, engine="native")
        assert _fields(nat) == _fields(fast)
        assert nat.completed


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An isolated, empty build cache; the memoized library is cleared on
    entry and exit so neighbouring tests re-load from the real cache."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    bindings._reset()
    yield tmp_path
    bindings._reset()


@needs_cc
def test_build_cache_hit_skips_compiler(fresh_cache, monkeypatch):
    """The second build serves the cached object without invoking the
    compiler at all (subprocess.run is rigged to explode)."""
    first = build_kernel()
    assert os.path.exists(first)
    assert os.path.dirname(first) == str(fresh_cache)
    real_run = build.subprocess.run

    def version_only(cmd, *args, **kwargs):
        # The cache key re-probes `cc --version`; an actual compile on a
        # hit is the bug this test pins down.
        if "--version" not in cmd:
            raise AssertionError("cache hit must not recompile")
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(build.subprocess, "run", version_only)
    assert build_kernel() == first


@needs_cc
def test_build_cache_writes_provenance(fresh_cache):
    lib_path = build_kernel()
    import json

    sidecar = lib_path[: -len(".so")] + ".json"
    with open(sidecar) as fh:
        meta = json.load(fh)
    assert meta["abi"] == build.ABI_VERSION
    assert meta["compiler"] == build.find_compiler()
    assert meta["cflags"] == list(build.CFLAGS)
    assert len(meta["source_sha256"]) == 64


@needs_cc
def test_corrupted_cache_entry_recompiles(fresh_cache):
    """A truncated .so fails to dlopen; the loader must force one
    recompile and come back fully functional."""
    lib_path = build_kernel()
    with open(lib_path, "wb") as fh:
        fh.write(b"\x7fELF not really")
    bindings._reset()
    lib = bindings.load_kernel()
    assert int(lib.repro_abi()) == build.ABI_VERSION
    # And the engine actually runs on the recompiled object.
    machine, members = _population(3, seed=2)
    dag = DependenceDAG(members[0].block)
    fast = schedule_block(dag, machine, SearchOptions(), engine="fast")
    nat = schedule_block(dag, machine, SearchOptions(), engine="native")
    assert _fields(nat) == _fields(fast)


@needs_cc
def test_force_rebuild_replaces_object(fresh_cache):
    lib_path = build_kernel()
    before = os.stat(lib_path).st_ino
    assert build_kernel(force=True) == lib_path
    assert os.stat(lib_path).st_ino != before  # atomically replaced


def test_compiler_info_shape():
    info = compiler_info()
    if HAVE_CC:
        assert set(info) == {"path", "version"}
        assert os.path.isabs(info["path"])
    else:
        assert info is None


# ----------------------------------------------------------------------
# No-compiler fallback
# ----------------------------------------------------------------------
@pytest.fixture
def no_compiler(monkeypatch):
    """A process view with no C compiler and a pristine warning flag."""
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    bindings._reset()
    monkeypatch.setattr(core, "_native_fallback_warned", False)
    yield
    bindings._reset()


def test_native_fallback_without_compiler(no_compiler, capsys):
    """With no compiler the native engine must degrade to fast: one
    warning line per process, results byte-for-byte the fast engine's,
    the split path included."""
    machine, members = _population(6, seed=21)
    dag = DependenceDAG(members[0].block)
    fast = schedule_block(dag, machine, SearchOptions(), engine="fast")
    split_fast = schedule_block_split(dag, machine, window=4, engine="fast")
    nat1 = schedule_block(dag, machine, SearchOptions(), engine="native")
    nat2 = schedule_block(dag, machine, SearchOptions(), engine="native")
    split_nat = schedule_block_split(dag, machine, window=4, engine="native")
    err = capsys.readouterr().err
    assert err.count("falling back to 'fast'") == 1, err
    assert "engine 'native' unavailable" in err
    assert _fields(nat1) == _fields(fast)
    assert _fields(nat2) == _fields(fast)
    assert _split_fields(split_nat) == _split_fields(split_fast)


def test_native_fallback_counts_telemetry(no_compiler, capsys):
    """Every degraded dispatch bumps ``search.engine_fallbacks`` even
    after the one-line warning went quiet."""
    telemetry = Telemetry()
    machine, members = _population(4, seed=23)
    dag = DependenceDAG(members[0].block)
    for _ in range(3):
        schedule_block(
            dag, machine, SearchOptions(), telemetry=telemetry, engine="native"
        )
    capsys.readouterr()
    assert telemetry.counters["search.engine_fallbacks"] == 3


def test_build_kernel_raises_without_compiler(no_compiler):
    with pytest.raises(NativeBuildError, match="no C compiler"):
        build_kernel()
    assert not bindings.native_available()
    assert "no C compiler" in bindings.unavailable_reason()


@needs_cc
def test_compile_failure_is_memoized(tmp_path, monkeypatch, capsys):
    """A broken kernel source fails once, then the failure is served from
    memory — no recompile storm, and the engine still answers via fast."""
    bad_src = tmp_path / "kernel.c"
    bad_src.write_text("this is not C\n")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(build, "kernel_source_path", lambda: str(bad_src))
    bindings._reset()
    monkeypatch.setattr(core, "_native_fallback_warned", False)
    calls = []
    real_run = build.subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(build.subprocess, "run", counting_run)
    try:
        machine, members = _population(3, seed=2)
        dag = DependenceDAG(members[0].block)
        fast = schedule_block(dag, machine, SearchOptions(), engine="fast")
        nat1 = schedule_block(dag, machine, SearchOptions(), engine="native")
        nat2 = schedule_block(dag, machine, SearchOptions(), engine="native")
        err = capsys.readouterr().err
        assert err.count("falling back to 'fast'") == 1
        assert "C compile failed" in err
        assert _fields(nat1) == _fields(fast)
        assert _fields(nat2) == _fields(fast)
        # --version probe(s) plus exactly ONE compile attempt.
        compile_calls = [c for c in calls]
        assert len(compile_calls) <= 3
    finally:
        bindings._reset()


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_native_is_a_valid_engine_everywhere():
    assert SearchOptions(engine="native").engine == "native"
    machine, members = _population(3, seed=1)
    dag = DependenceDAG(members[0].block)
    options = SearchOptions(engine="native")
    nat = schedule_block(dag, machine, options)
    fast = schedule_block(dag, machine, SearchOptions(), engine="fast")
    assert _fields(nat) == _fields(fast)


@needs_cc
def test_resolve_engine_passes_native_through():
    assert core.resolve_engine("native") == "native"
    assert core.resolve_engine("fast") == "fast"
    assert core.resolve_engine("reference") == "reference"
