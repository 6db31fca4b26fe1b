"""Tests for the optimal branch-and-bound scheduler (section 4.2.3)."""

import pytest
from hypothesis import given, settings

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.sched.exhaustive import iter_legal_orders, legal_only_search
from repro.sched.nop_insertion import compute_timing
from repro.sched.search import DEFAULT_CURTAIL, SearchOptions, schedule_block

from .strategies import blocks, machines


class TestOptions:
    def test_defaults_enable_everything(self):
        options = SearchOptions()
        assert options.alpha_beta and options.equivalence_prune
        assert options.lower_bound_prune and options.dominance_prune
        assert options.heuristic_seeds and options.cheapest_first
        assert options.curtail == DEFAULT_CURTAIL

    def test_paper_preset(self):
        options = SearchOptions.paper()
        assert options.alpha_beta and options.equivalence_prune
        assert not options.lower_bound_prune
        assert not options.dominance_prune
        assert not options.heuristic_seeds
        assert not options.cheapest_first

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchOptions(curtail=0)
        with pytest.raises(ValueError):
            SearchOptions(time_limit=0)
        with pytest.raises(ValueError):
            SearchOptions(max_memo_entries=-1)


class TestFigure3:
    def test_finds_the_optimum(self, figure3_dag, sim_machine):
        result = schedule_block(figure3_dag, sim_machine)
        assert result.completed
        assert result.final_nops == 2
        assert figure3_dag.is_legal_order(result.best.order)

    def test_initial_is_list_schedule_timing(self, figure3_dag, sim_machine):
        result = schedule_block(figure3_dag, sim_machine)
        from repro.sched.list_scheduler import list_schedule

        seeded = compute_timing(figure3_dag, list_schedule(figure3_dag), sim_machine)
        assert result.initial == seeded

    def test_result_rendering(self, figure3_dag, sim_machine):
        text = str(schedule_block(figure3_dag, sim_machine))
        assert "optimal" in text and "omega calls" in text


class TestSeeds:
    def test_explicit_seed(self, figure3_dag, sim_machine):
        result = schedule_block(
            figure3_dag, sim_machine, seed=(1, 2, 3, 4, 5)
        )
        assert result.initial_nops == 4  # program order costs 4
        assert result.final_nops == 2

    def test_seed_must_be_permutation(self, figure3_dag, sim_machine):
        with pytest.raises(ValueError, match="permutation"):
            schedule_block(figure3_dag, sim_machine, seed=(1, 2, 3))

    def test_program_order_seed_option(self, figure3_dag, sim_machine):
        result = schedule_block(
            figure3_dag,
            sim_machine,
            SearchOptions(seed_with_list_schedule=False),
        )
        assert result.initial_nops == 4
        assert result.final_nops == 2


class TestCurtail:
    def test_curtail_truncates(self, sim_machine):
        # A block big enough that lambda = seed cost + 1 must truncate.
        text = "\n".join(f"{i}: Load #v{i}" for i in range(1, 10))
        dag = DependenceDAG(parse_block(text))
        result = schedule_block(
            dag,
            sim_machine,
            SearchOptions(
                curtail=10,
                lower_bound_prune=False,
                dominance_prune=False,
                heuristic_seeds=False,
            ),
        )
        assert not result.completed
        assert result.omega_calls <= 10

    def test_omega_calls_include_seed_pricing(self, figure3_dag, sim_machine):
        result = schedule_block(
            figure3_dag, sim_machine, SearchOptions(heuristic_seeds=False)
        )
        assert result.omega_calls >= len(figure3_dag)

    def test_time_limit(self, sim_machine):
        text = "\n".join(f"{i}: Load #v{i}" for i in range(1, 12))
        block = parse_block(text)
        dag = DependenceDAG(block)
        result = schedule_block(
            dag,
            sim_machine,
            SearchOptions(
                curtail=10_000_000,
                time_limit=0.001,
                lower_bound_prune=False,
                dominance_prune=False,
            ),
        )
        # Either it finished very fast or the limit kicked in; both legal,
        # but the flag must reflect which.
        assert isinstance(result.completed, bool)


class TestDegenerateBlocks:
    def test_empty_seed_not_required(self, sim_machine):
        from repro.ir.block import BasicBlock

        dag = DependenceDAG(BasicBlock([]))
        result = schedule_block(dag, sim_machine)
        assert result.completed and result.final_nops == 0

    def test_single_instruction(self, sim_machine):
        dag = DependenceDAG(parse_block("1: Load #a"))
        result = schedule_block(dag, sim_machine)
        assert result.completed
        assert result.best.order == (1,)

    def test_pure_chain_has_one_schedule(self, sim_machine):
        dag = DependenceDAG(
            parse_block("1: Load #a\n2: Neg 1\n3: Neg 2\n4: Store #a, 3")
        )
        result = schedule_block(dag, sim_machine)
        assert result.completed
        assert result.best.order == (1, 2, 3, 4)
        assert result.final_nops == 1  # Load latency 2, Neg waits 1


class TestPruneToggles:
    @pytest.mark.parametrize(
        "options",
        [
            SearchOptions(),
            SearchOptions.paper(),
            SearchOptions(alpha_beta=False, curtail=100_000),
            SearchOptions(equivalence_prune=False),
            SearchOptions(lower_bound_prune=False),
            SearchOptions(dominance_prune=False),
            SearchOptions(heuristic_seeds=False),
            SearchOptions(cheapest_first=False),
        ],
        ids=[
            "all", "paper", "no-ab", "no-equiv", "no-lb", "no-dom",
            "no-seeds", "no-cheapest",
        ],
    )
    def test_every_configuration_is_optimal(self, options, sim_machine):
        blocks_text = [
            "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Store #c, 3",
            "1: Const 2\n2: Load #x\n3: Mul 1, 2\n4: Mul 3, 3\n5: Store #x, 4",
            "1: Load #a\n2: Load #b\n3: Add 1, 2\n4: Mul 3, 3\n"
            "5: Store #p, 4\n6: Load #c\n7: Mul 6, 6\n8: Store #q, 7",
        ]
        for text in blocks_text:
            dag = DependenceDAG(parse_block(text))
            truth = legal_only_search(dag, sim_machine).optimal_nops
            result = schedule_block(dag, sim_machine, options)
            assert result.completed
            assert result.final_nops == truth

    def test_proved_by_bound_short_circuits(self, sim_machine):
        # Independent loads: 0 NOPs, provable from the root bound without
        # expanding a single node.
        dag = DependenceDAG(parse_block("1: Load #a\n2: Load #b\n3: Load #c"))
        result = schedule_block(dag, sim_machine)
        assert result.completed and result.proved_by_bound
        assert result.final_nops == 0


# ----------------------------------------------------------------------
# The headline property: the pruned search equals exhaustive legal search
# on arbitrary blocks and machines.
# ----------------------------------------------------------------------
@given(blocks(min_size=2, max_size=8, allow_div=True), machines())
@settings(max_examples=150, deadline=None)
def test_search_is_optimal(block, machine):
    dag = DependenceDAG(block)
    truth = legal_only_search(dag, machine).optimal_nops
    result = schedule_block(dag, machine, SearchOptions(curtail=10_000_000))
    assert result.completed
    assert result.final_nops == truth
    assert dag.is_legal_order(result.best.order)
    # The best timing must be internally consistent.
    assert compute_timing(dag, result.best.order, machine).etas == result.best.etas


@given(blocks(min_size=2, max_size=7), machines())
@settings(max_examples=60, deadline=None)
def test_paper_prunes_alone_are_also_optimal(block, machine):
    dag = DependenceDAG(block)
    truth = legal_only_search(dag, machine).optimal_nops
    result = schedule_block(
        dag, machine, SearchOptions.paper(curtail=10_000_000)
    )
    assert result.completed
    assert result.final_nops == truth


@given(blocks(min_size=2, max_size=10), machines())
@settings(max_examples=60, deadline=None)
def test_truncated_results_are_still_valid_schedules(block, machine):
    dag = DependenceDAG(block)
    result = schedule_block(
        dag, machine, SearchOptions(curtail=len(block) * 3 + 1)
    )
    assert dag.is_legal_order(result.best.order)
    assert result.final_nops <= result.initial_nops


class TestRegisterBudget:
    """The max_live constraint (section 3.1's no-new-spills guarantee)."""

    def _block(self):
        from repro.frontend.lowering import lower_source

        return lower_source(
            "s = a + b; t = c + d; u = e + f; x = s + t; y = x + u; z = y + a;"
        )

    def test_constrained_schedule_is_allocatable(self, sim_machine):
        from repro.regalloc.allocator import allocate_registers
        from repro.regalloc.liveness import max_live
        from repro.regalloc.spill import insert_spill_code

        block = insert_spill_code(self._block(), 4).block
        dag = DependenceDAG(block)
        result = schedule_block(dag, sim_machine, SearchOptions(max_live=4))
        assert max_live(block, result.best.order) <= 4
        allocation = allocate_registers(block, result.best.order, 4)
        assert allocation.num_registers_used <= 4

    def test_budget_can_cost_nops(self, sim_machine):
        """A tight register budget restricts reordering, so the optimum
        under the budget can only be >= the unconstrained optimum."""
        block = self._block()
        from repro.regalloc.spill import insert_spill_code

        spilled = insert_spill_code(block, 4).block
        dag = DependenceDAG(spilled)
        free = schedule_block(dag, sim_machine)
        tight = schedule_block(dag, sim_machine, SearchOptions(max_live=4))
        assert tight.final_nops >= free.final_nops

    def test_explicit_overtight_seed_rejected(self, sim_machine):
        dag = DependenceDAG(self._block())
        with pytest.raises(ValueError, match="max_live"):
            schedule_block(
                dag,
                sim_machine,
                SearchOptions(max_live=3),
                seed=dag.idents,
            )

    def test_min_budget_validated(self):
        with pytest.raises(ValueError, match="at least 3"):
            SearchOptions(max_live=2)


@given(blocks(min_size=2, max_size=7))
@settings(max_examples=50, deadline=None)
def test_max_live_search_is_optimal_among_pressure_legal_orders(block):
    """The register-budget search must find the best schedule among
    exactly those legal orders whose linear-scan pressure fits the
    budget (cross-checked by filtered enumeration)."""
    from repro.machine.presets import paper_simulation_machine
    from repro.regalloc.liveness import max_live as pressure_of

    machine = paper_simulation_machine()
    dag = DependenceDAG(block)
    budget = max(3, pressure_of(block))  # program order always fits
    candidates = [
        order
        for order in iter_legal_orders(dag)
        if pressure_of(block, order) <= budget
    ]
    truth = min(
        compute_timing(dag, order, machine, check_legality=False).total_nops
        for order in candidates
    )
    result = schedule_block(
        dag,
        machine,
        SearchOptions(curtail=10_000_000, max_live=budget),
    )
    assert result.completed
    assert result.final_nops == truth
    assert pressure_of(block, result.best.order) <= budget


class TestMemoCap:
    def test_tiny_memo_still_optimal(self, sim_machine):
        """Capping the dominance table degrades speed, never correctness."""
        text = (
            "1: Load #a\n2: Load #b\n3: Mul 1, 2\n4: Add 1, 2\n"
            "5: Mul 4, 4\n6: Store #p, 3\n7: Store #q, 5"
        )
        dag = DependenceDAG(parse_block(text))
        truth = legal_only_search(dag, sim_machine).optimal_nops
        capped = schedule_block(
            dag, sim_machine, SearchOptions(max_memo_entries=2)
        )
        assert capped.completed
        assert capped.final_nops == truth


@given(blocks(min_size=1, max_size=10), machines())
@settings(max_examples=60, deadline=None)
def test_omega_accounting_invariants(block, machine):
    """Lambda is a hard budget, and the bookkeeping fields stay sane."""
    dag = DependenceDAG(block)
    curtail = max(3 * len(block) + 1, 40)
    result = schedule_block(dag, machine, SearchOptions(curtail=curtail))
    assert result.omega_calls <= curtail or result.proved_by_bound
    assert result.improvements >= 0
    assert result.elapsed_seconds >= 0.0
    # A proved-by-bound result never expanded a node beyond its seeds.
    if result.proved_by_bound:
        assert result.omega_calls <= 3 * max(1, len(block))
