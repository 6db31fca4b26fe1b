"""Micro-benchmarks of the core primitives.

Section 2.3 prices one Ω application at 0.12 ms (Gould NP1) / 0.3 ms
(Sun 3/50) for ~15-instruction schedules; these benches measure our
per-Ω cost and the other inner-loop primitives so regressions in the
search's hot path are visible.
"""

import pytest

from repro.ir.dag import DependenceDAG
from repro.machine.presets import paper_simulation_machine
from repro.opt import optimize_block
from repro.regalloc.allocator import allocate_registers
from repro.sched.list_scheduler import list_schedule
from repro.sched.nop_insertion import (
    IncrementalTimingState,
    SigmaResolver,
    compute_timing,
)
from repro.simulator.core import PipelineSimulator
from repro.synth.generator import generate_block
from repro.synth.population import sample_population
from repro.verify.brute import sequential_etas


@pytest.fixture(scope="module")
def typical_block():
    """A ~15-instruction block, the paper's 'typical' size."""
    for gb in sample_population(20_000, master_seed=151):
        if len(gb.block) == 15:
            return gb.block
    raise RuntimeError("no 15-instruction block found")  # pragma: no cover


@pytest.fixture(scope="module")
def typical_dag(typical_block):
    return DependenceDAG(typical_block)


def test_omega_full_schedule(benchmark, typical_dag):
    """One complete Ω evaluation (the paper's procedure Q: 0.12-0.3 ms in
    1990 C; a modern interpreter should land in the same decade)."""
    machine = paper_simulation_machine()
    order = typical_dag.idents
    timing = benchmark(
        compute_timing, typical_dag, order, machine, None, False
    )
    assert len(timing.order) == 15


def test_omega_sequential_formulation(benchmark, typical_dag):
    machine = paper_simulation_machine()
    benchmark(sequential_etas, typical_dag, typical_dag.idents, machine)


def test_incremental_push_pop(benchmark, typical_dag):
    """One push+pop pair — the search's innermost operation."""
    machine = paper_simulation_machine()
    resolver = SigmaResolver(typical_dag, machine)
    state = IncrementalTimingState(typical_dag, resolver)
    first = typical_dag.roots[0]

    def push_pop():
        state.push(first)
        state.pop()

    benchmark(push_pop)


def test_dag_construction(benchmark, typical_block):
    benchmark(DependenceDAG, typical_block)


def test_list_scheduler(benchmark, typical_dag):
    benchmark(list_schedule, typical_dag)


def test_optimizer(benchmark):
    gb = generate_block(15, 8, 4, seed=8, optimize=False)
    benchmark(optimize_block, gb.block)


def test_register_allocation(benchmark, typical_block, typical_dag):
    order = list_schedule(typical_dag)
    benchmark(allocate_registers, typical_block, order)


def test_simulator_implicit(benchmark, typical_block, typical_dag):
    machine = paper_simulation_machine()
    sim = PipelineSimulator(typical_block, machine, typical_dag)
    order = list_schedule(typical_dag)
    memory = {v: 1 for v in typical_block.variables}
    benchmark(sim.run_implicit, order, memory)
