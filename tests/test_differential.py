"""Differential fuzzing of the scheduler stack through the verify layer.

Three layers of cross-checking:

* the **oracle** (``repro.verify.oracle``) on random blocks × machines —
  list scheduler, branch-and-bound, splitting and multi-pipeline search
  all certified and compared against independent exhaustive enumeration;
* the **mutation smoke tests** — a deliberately injected Ω-accounting
  bug (latency under-counted by one) must be caught by the certificate
  checker, not by the code under test agreeing with itself;
* the **kernel sweep** — every built-in kernel against every machine of
  the design-space sweep, pinning search/exhaustive Ω-equality.
"""

import functools
import json

import pytest
from hypothesis import given, settings

from repro.driver import compile_source
from repro.experiments.machines import sweep_machines
from repro.experiments.runner import (
    VerificationError,
    run_population,
    schedule_generated_block,
)
from repro.ilp import IlpOptions
from repro.ir.dag import COUNT_CAPPED, DependenceDAG
from repro.machine.machine import first_pipeline_assignment
from repro.machine.presets import get_machine, paper_simulation_machine
from repro.sched.exhaustive import legal_only_search
from repro.sched.nop_insertion import SigmaResolver
from repro.sched.search import SearchOptions, root_lower_bound, schedule_block
from repro.synth.kernels import KERNELS
from repro.synth.population import PopulationSpec, sample_population
from repro.verify import cli as verify_cli
from repro.verify.certificate import check_schedule
from repro.verify.fuzz import adversarial_machines, run_fuzz
from repro.verify.oracle import check_block, replay_report

from .strategies import any_machines, blocks

#: Cap under which the oracle's exhaustive ground truth runs in tests.
TEST_BRUTE_CAP = 2_000


@functools.lru_cache(maxsize=1)
def kernel_blocks():
    """Each built-in kernel lowered to tuples (machine-independent)."""
    reference = get_machine("paper-simulation")
    return tuple(
        (
            k.name,
            compile_source(
                k.source, reference, scheduler="none", name=k.name
            ).block,
        )
        for k in KERNELS
    )


def _buggy_latency(monkeypatch_target):
    """Install an Ω-accounting bug: every latency under-counted by one.

    The whole scheduler stack (Ω, search, splitting, multi) resolves
    latencies through ``SigmaResolver.latency``, so the bug propagates
    everywhere *except* the verify layer, which re-reads the machine
    tables itself.
    """
    real = SigmaResolver.latency
    monkeypatch_target.setattr(
        SigmaResolver,
        "latency",
        lambda self, ident: max(1, real(self, ident) - 1),
    )


# ----------------------------------------------------------------------
# Oracle fuzzing (hypothesis + the seeded CLI fuzzer)
# ----------------------------------------------------------------------
@given(blocks(max_size=7), any_machines())
@settings(max_examples=30, deadline=None)
def test_oracle_consistent_on_random_inputs(block, machine):
    report = check_block(block, machine, brute_cap=TEST_BRUTE_CAP)
    assert report.ok, report.summary()


def test_seeded_fuzz_is_deterministic_and_clean():
    first = run_fuzz(12, seed=1990, brute_cap=TEST_BRUTE_CAP)
    second = run_fuzz(12, seed=1990, brute_cap=TEST_BRUTE_CAP)
    assert first.ok and second.ok
    assert first.checks_run == second.checks_run
    assert first.blocks_checked == 12


def test_adversarial_gallery_is_wellformed():
    gallery = adversarial_machines()
    names = [m.name for m in gallery]
    assert len(set(names)) == len(names)
    assert any(not m.is_deterministic for m in gallery)
    assert any(
        all(p.enqueue_time == p.latency for p in m.pipelines) for m in gallery
    )


# ----------------------------------------------------------------------
# Mutation smoke tests: the injected bug is caught by the certificate,
# not by the code under test.
# ----------------------------------------------------------------------
def test_injected_omega_bug_caught_by_certificate(
    figure3_block, sim_machine, monkeypatch
):
    _buggy_latency(monkeypatch)
    dag = DependenceDAG(figure3_block)
    result = schedule_block(dag, sim_machine)
    # The buggy stack is self-consistent — the search still "succeeds" —
    # which is exactly why only an independent checker can object.
    assert result.completed
    report = check_schedule(
        figure3_block, sim_machine, result.best.order, result.best.etas
    )
    assert not report.ok
    assert any(v.kind == "under-padded" for v in report.violations)


def test_injected_omega_bug_caught_by_oracle(
    figure3_block, sim_machine, monkeypatch
):
    _buggy_latency(monkeypatch)
    report = check_block(figure3_block, sim_machine, brute_cap=TEST_BRUTE_CAP)
    assert not report.ok
    assert any(
        d.invariant.startswith("certificate[") for d in report.discrepancies
    )


def test_population_verify_catches_injected_bug(monkeypatch):
    _buggy_latency(monkeypatch)
    with pytest.raises(VerificationError):
        run_population(20, verify=True)


def test_population_verify_clean_without_bug():
    records = run_population(20, verify=True)
    assert len(records) == 20


# ----------------------------------------------------------------------
# Timeout degradation (the run_population regression)
# ----------------------------------------------------------------------
def _largest_population_block(n=8, seed=1990):
    gen = sample_population(n, seed, PopulationSpec())
    return max((next(gen) for _ in range(n)), key=len)


def test_timed_out_block_degrades_to_seed_and_never_counts_optimal():
    gb = _largest_population_block()
    assert len(gb) >= 4
    # Root lower bounds can prove a seed optimal before any deadline
    # check runs; disable them so the search must actually descend.
    options = SearchOptions(
        lower_bound_prune=False, heuristic_seeds=False, dominance_prune=False
    )
    record = schedule_generated_block(
        0,
        gb,
        paper_simulation_machine(),
        options,
        block_timeout=1e-9,
        verify=True,  # the published (seed) schedule must still certify
    )
    assert record.degraded
    assert not record.completed
    assert record.final_nops == record.seed_nops


def test_untimed_block_is_not_degraded():
    gb = _largest_population_block()
    record = schedule_generated_block(
        0, gb, paper_simulation_machine(), SearchOptions(), verify=True
    )
    assert not record.degraded
    assert record.completed


# ----------------------------------------------------------------------
# Kernel × machine-sweep Ω-equality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("machine", sweep_machines(), ids=lambda m: m.name)
def test_kernels_across_machine_sweep(machine):
    """Every built-in kernel on every sweep machine: the full prune set
    and the paper's prune set agree whenever both complete; where the
    block is small enough, independent exhaustive enumeration must match
    the search's proven optimum; and the winning schedule certifies."""
    options = SearchOptions(curtail=20_000)
    paper_options = SearchOptions.paper(curtail=20_000)
    for name, block in kernel_blocks():
        dag = DependenceDAG(block)
        assignment = first_pipeline_assignment(dag, machine)
        full = schedule_block(dag, machine, options, assignment=assignment)
        paper = schedule_block(
            dag, machine, paper_options, assignment=assignment
        )
        if full.completed and paper.completed:
            assert full.final_nops == paper.final_nops, name
        n_orders = dag.count_legal_orders(cap=TEST_BRUTE_CAP)
        if n_orders != COUNT_CAPPED:
            exhaustive = legal_only_search(dag, machine, assignment=assignment)
            assert exhaustive.exhausted, name
            if full.completed:
                assert exhaustive.optimal_nops == full.final_nops, name
            else:
                assert exhaustive.optimal_nops <= full.final_nops, name
        else:
            # Too many legal orders for ground truth: a capped sample
            # still bounds the (proven) optimum from above.
            sample = legal_only_search(
                dag, machine, assignment=assignment, limit=200
            )
            if full.completed:
                assert sample.optimal_nops >= full.final_nops, name
        cert = check_schedule(
            block, machine, full.best.order, full.best.etas,
            assignment=assignment,
        )
        assert cert.ok, f"{name}: {cert.summary()}"
        assert cert.required_nops == full.final_nops, name


# ----------------------------------------------------------------------
# Replayable discrepancy reports + the CLI
# ----------------------------------------------------------------------
def test_discrepancy_report_roundtrip(tmp_path, figure3_block, sim_machine):
    with pytest.MonkeyPatch.context() as mp:
        _buggy_latency(mp)
        report = check_block(
            figure3_block,
            sim_machine,
            brute_cap=TEST_BRUTE_CAP,
            emit_dir=str(tmp_path),
        )
        assert not report.ok
        assert report.report_dir is not None
        data = json.loads(
            (tmp_path / "figure3-paper-simulation" / "report.json").read_text()
        )
        assert data["schema"] == "repro-discrepancy/1"
        assert data["discrepancies"]
    # The bug "fixed" (patch undone): replaying the same report comes
    # back clean — the replay loop an investigator would actually run.
    replayed = replay_report(report.report_dir, brute_cap=TEST_BRUTE_CAP)
    assert replayed.ok, replayed.summary()


def test_verify_cli_kernels_exit_zero(tmp_path, capsys):
    status = verify_cli.main(
        [
            "--kernels",
            "--machines",
            "paper-simulation",
            "--brute-cap",
            str(TEST_BRUTE_CAP),
            "--out",
            str(tmp_path / "discrepancies"),
            "--stats-json",
            str(tmp_path / "stats.json"),
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "all consistent" in out
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["counters"]["verify.blocks"] == len(KERNELS)


def test_verify_cli_fuzz_exit_zero(tmp_path):
    status = verify_cli.main(
        [
            "--blocks",
            "8",
            "--seed",
            "7",
            "--brute-cap",
            str(TEST_BRUTE_CAP),
            "--out",
            str(tmp_path / "discrepancies"),
        ]
    )
    assert status == 0


# ----------------------------------------------------------------------
# The cross-solver ILP witness (--optimality)
# ----------------------------------------------------------------------
#: Small witness budgets: in tests a hard block should degrade to a
#: certified gap quickly, not chew through the full 400-node default.
_ILP_TEST_OPTIONS = IlpOptions(max_nodes=60, time_limit=5.0)


@given(blocks(max_size=6), any_machines())
@settings(max_examples=15, deadline=None)
def test_oracle_optimality_consistent_on_random_inputs(block, machine):
    report = check_block(
        block,
        machine,
        brute_cap=TEST_BRUTE_CAP,
        optimality=True,
        ilp_options=_ILP_TEST_OPTIONS,
    )
    assert report.ok, report.summary()
    assert "ilp" in report.schedules
    assert "lower_bound" in report.schedules["ilp"]


def test_ilp_bound_lattice_on_kernels():
    """The sound bound lattice, on every built-in kernel:

        lp_relaxation <= ilp.lower_bound <= optimum <= ilp.Ω <= search.Ω

    with the search's combinatorial root bound also below ``ilp.Ω``.
    (The LP and combinatorial bounds themselves are incomparable —
    either may win — so no ordering between them is asserted.)"""
    machine = get_machine("paper-simulation")
    for name, block in kernel_blocks():
        dag = DependenceDAG(block)
        assignment = first_pipeline_assignment(dag, machine)
        search = schedule_block(dag, machine, assignment=assignment)
        ilp = schedule_block(
            dag,
            machine,
            assignment=assignment,
            seed=search.best.order,
            backend="ilp",
            ilp_options=_ILP_TEST_OPTIONS,
        )
        root = root_lower_bound(dag, machine, assignment)
        assert ilp.lp_relaxation <= ilp.lower_bound + 1e-9, name
        assert ilp.lower_bound <= ilp.final_nops, name
        assert root <= ilp.final_nops, name
        assert ilp.final_nops <= search.final_nops, name
        if search.completed:
            assert ilp.lower_bound <= search.final_nops, name
            if ilp.completed:
                assert ilp.final_nops == search.final_nops, name


def test_injected_encoder_bug_caught_by_certificate(
    figure3_block, sim_machine, monkeypatch
):
    """Mutation smoke test for the ILP tier: an off-by-one latency
    injected into the *encoder's* table seam flows through the model,
    the repricing and the published η stream, and is caught by the
    independent certificate checker — while every schedule produced by
    the uninfected stack still certifies cleanly."""
    import repro.ilp.encoder as encoder

    monkeypatch.setattr(
        encoder,
        "latency_table",
        lambda flat: [max(0, v - 1) for v in flat.lat],
    )
    report = check_block(
        figure3_block,
        sim_machine,
        brute_cap=TEST_BRUTE_CAP,
        optimality=True,
        ilp_options=_ILP_TEST_OPTIONS,
    )
    assert not report.ok
    kinds = {d.invariant for d in report.discrepancies}
    assert "certificate[ilp]" in kinds
    for label in ("list", "search", "split", "multi"):
        assert f"certificate[{label}]" not in kinds


@pytest.mark.parametrize("kernel", ["fir3", "lerp4", "determinant3"])
def test_deep_memory_witness_on_curtailed_kernels(kernel):
    """Regression for the blocks the search curtails on deep-memory:
    the witness, seeded with the curtailed incumbent, must match or
    beat it, certify, and leave either a proof of optimality or a
    replayable certified gap."""
    machine = get_machine("deep-memory")
    block = dict(kernel_blocks())[kernel]
    dag = DependenceDAG(block)
    assignment = first_pipeline_assignment(dag, machine)
    search = schedule_block(
        dag, machine, SearchOptions(curtail=5_000), assignment=assignment
    )
    ilp = schedule_block(
        dag,
        machine,
        assignment=assignment,
        seed=search.best.order,
        backend="ilp",
        ilp_options=IlpOptions(max_nodes=40, time_limit=5.0),
    )
    assert ilp.final_nops <= search.final_nops, kernel
    assert ilp.lower_bound <= ilp.final_nops, kernel
    assert ilp.optimality_gap >= 0, kernel
    cert = check_schedule(
        block, machine, ilp.best.order, ilp.best.etas, assignment=assignment
    )
    assert cert.ok, f"{kernel}: {cert.summary()}"
    assert cert.required_nops == ilp.final_nops, kernel
    if ilp.completed:
        assert ilp.lower_bound == ilp.final_nops, kernel


def test_curtailed_search_records_replayable_bound():
    """Satellite fix pin: when the search curtails, report entries must
    carry the lower bound active at curtailment, so the optimality gap
    in report.json is replayable rather than an unexplained number."""
    machine = get_machine("deep-memory")
    block = dict(kernel_blocks())["fir3"]
    report = check_block(
        block,
        machine,
        options=SearchOptions(curtail=200),
        brute_cap=TEST_BRUTE_CAP,
        optimality=True,
        ilp_options=IlpOptions(max_nodes=20, time_limit=5.0),
    )
    assert report.ok, report.summary()
    assert "search" in report.curtailed
    entry = report.schedules["search"]
    assert entry["lower_bound"] >= 0
    assert entry["optimality_gap"] == entry["nops"] - entry["lower_bound"]
    # The recorded bound is at least as strong as the combinatorial
    # root bound (the witness can only tighten it).
    dag = DependenceDAG(block)
    assignment = first_pipeline_assignment(dag, machine)
    assert entry["lower_bound"] >= root_lower_bound(dag, machine, assignment)


def test_optimality_report_roundtrip(tmp_path, figure3_block, sim_machine):
    """A discrepancy report emitted by an --optimality run replays with
    the witness on: the flag round-trips through report.json."""
    with pytest.MonkeyPatch.context() as mp:
        import repro.ilp.encoder as encoder

        mp.setattr(
            encoder,
            "latency_table",
            lambda flat: [max(0, v - 1) for v in flat.lat],
        )
        report = check_block(
            figure3_block,
            sim_machine,
            brute_cap=TEST_BRUTE_CAP,
            optimality=True,
            ilp_options=_ILP_TEST_OPTIONS,
            emit_dir=str(tmp_path),
        )
        assert not report.ok
        data = json.loads(
            (tmp_path / "figure3-paper-simulation" / "report.json").read_text()
        )
        assert data["optimality"] is True
        assert "ilp" in data["schedules"]
        assert "lower_bound" in data["schedules"]["ilp"]
    # Bug gone: the replay re-runs the witness (the flag came back from
    # disk, not from this call's arguments) and comes back clean.
    replayed = replay_report(report.report_dir, brute_cap=TEST_BRUTE_CAP)
    assert replayed.ok, replayed.summary()
    assert "ilp" in replayed.schedules
