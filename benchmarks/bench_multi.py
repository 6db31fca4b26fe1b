"""Benchmark X1 — multi-pipeline selection (Tables 2+3 machine and the
asymmetric-units machine): joint order+assignment search vs static
pinning (paper footnote 3)."""

import pytest

from repro.experiments import extension
from repro.ir.dag import DependenceDAG
from repro.machine.presets import paper_example_machine
from repro.sched.multi import (
    first_pipeline_assignment,
    schedule_block_multi,
)
from repro.sched.search import SearchOptions, schedule_block
from repro.synth.population import sample_population

from conftest import publish


@pytest.fixture(scope="module")
def selection_dags():
    return [
        DependenceDAG(gb.block)
        for gb in sample_population(25, master_seed=99)
        if len(gb.block) > 1
    ]


def test_x1_regeneration(benchmark, results_dir):
    # run_x1's defaults, as `repro experiments extension-x1` runs it.
    result = benchmark.pedantic(extension.run_x1, rounds=1, iterations=1)
    publish(results_dir, "extension_x1", result.render())
    assert result.joint_never_loses
    by_key = {(r.machine, r.policy): r for r in result.rows}
    joint = by_key[("asymmetric-units", "joint search (extension)")]
    first = by_key[("asymmetric-units", "first-pipeline (pinned)")]
    rr = by_key[("asymmetric-units", "round-robin (pinned)")]
    assert joint.avg_nops <= min(first.avg_nops, rr.avg_nops)


def test_joint_search_cost(benchmark, selection_dags):
    machine = paper_example_machine()
    options = SearchOptions(curtail=30_000)

    def run_all():
        return sum(
            schedule_block_multi(dag, machine, options).total_nops
            for dag in selection_dags
        )

    benchmark(run_all)


def test_pinned_search_cost(benchmark, selection_dags):
    machine = paper_example_machine()
    options = SearchOptions(curtail=30_000)

    def run_all():
        return sum(
            schedule_block(
                dag, machine, options,
                assignment=first_pipeline_assignment(dag, machine),
            ).final_nops
            for dag in selection_dags
        )

    benchmark(run_all)
