"""Unit and property tests for the dependence DAG."""

import itertools

from hypothesis import given, settings

from repro.ir.block import BasicBlock
from repro.ir.dag import COUNT_CAPPED, DependenceDAG
from repro.ir.textual import parse_block
from repro.ir.tuples import add, const, load
from repro.sched.exhaustive import count_legal_orders, iter_legal_orders

from .strategies import blocks


class TestEdgeKinds:
    def test_flow_through_refs(self, figure3_dag):
        assert 1 in figure3_dag.rho(4)
        assert 3 in figure3_dag.rho(4)
        assert 4 in figure3_dag.rho(5)

    def test_load_after_store_is_flow(self):
        dag = DependenceDAG(
            parse_block("1: Const 1\n2: Store #a, 1\n3: Load #a")
        )
        kinds = {(e.producer, e.consumer): e.kind for e in dag.edges}
        assert kinds[(2, 3)] == "flow"

    def test_store_after_load_is_anti(self, figure3_dag):
        kinds = {(e.producer, e.consumer): e.kind for e in figure3_dag.edges}
        assert kinds[(3, 5)] == "anti"

    def test_store_after_store_is_output(self):
        dag = DependenceDAG(
            parse_block("1: Const 1\n2: Store #a, 1\n3: Const 2\n4: Store #a, 3")
        )
        kinds = {(e.producer, e.consumer): e.kind for e in dag.edges}
        assert kinds[(2, 4)] == "output"

    def test_independent_loads_share_no_edge(self):
        dag = DependenceDAG(parse_block("1: Load #a\n2: Load #a\n3: Load #b"))
        assert not dag.edges

    def test_no_duplicate_edges(self):
        # Tuple 3 uses tuple 1 twice: one edge, not two.
        dag = DependenceDAG(BasicBlock([const(1, 2), add(2, 1, 1)]))
        assert len(dag.edges) == 1


class TestBoundsAndStructure:
    def test_earliest_counts_ancestors(self, figure3_dag):
        # Figure 3: Store #a (5) needs Mul (4), which needs Const (1) and
        # Load (3); the anti edge 3->5 adds nothing new.
        assert figure3_dag.earliest(1) == 0
        assert figure3_dag.earliest(4) == 2
        assert figure3_dag.earliest(5) == 3

    def test_latest_counts_descendants(self, figure3_dag):
        n = len(figure3_dag)
        assert figure3_dag.latest(5) == n - 1  # a sink
        assert figure3_dag.latest(1) == n - 1 - len(figure3_dag.descendants[1])

    def test_roots_and_sinks(self, figure3_dag):
        assert figure3_dag.roots == (1, 3)
        assert figure3_dag.sinks == (2, 5)

    def test_heights_and_depths(self, figure3_dag):
        assert figure3_dag.heights[5] == 0
        assert figure3_dag.heights[1] == 2  # 1 -> 4 -> 5
        assert figure3_dag.depths[1] == 0
        assert figure3_dag.depths[5] == 2

    def test_critical_path(self, figure3_dag):
        assert figure3_dag.critical_path_length == 3  # 1/3 -> 4 -> 5

    def test_empty_block(self):
        dag = DependenceDAG(BasicBlock([]))
        assert len(dag) == 0
        assert count_legal_orders(dag) == 1
        assert dag.critical_path_length == 0


class TestLegalOrders:
    def test_program_order_is_always_legal(self, figure3_dag):
        assert figure3_dag.is_legal_order(figure3_dag.idents)

    def test_illegal_order_detected(self, figure3_dag):
        assert not figure3_dag.is_legal_order((4, 1, 3, 2, 5))

    def test_non_permutation_is_illegal(self, figure3_dag):
        assert not figure3_dag.is_legal_order((1, 2, 3))
        assert not figure3_dag.is_legal_order((1, 1, 2, 3, 4))

    def test_enumeration_matches_brute_force(self, figure3_dag):
        brute = {
            perm
            for perm in itertools.permutations(figure3_dag.idents)
            if figure3_dag.is_legal_order(perm)
        }
        enumerated = set(iter_legal_orders(figure3_dag))
        assert enumerated == brute
        assert count_legal_orders(figure3_dag) == len(brute)

    def test_enumeration_limit(self, figure3_dag):
        some = list(iter_legal_orders(figure3_dag, limit=3))
        assert len(some) == 3

    def test_count_cap(self):
        # 12 independent loads: 12! orders, far beyond a cap of 1000.
        block = BasicBlock([load(i, f"v{i}") for i in range(1, 13)])
        dag = DependenceDAG(block)
        assert count_legal_orders(dag, cap=1000) == COUNT_CAPPED

    def test_chain_has_single_order(self):
        text = "1: Load #a\n2: Neg 1\n3: Neg 2\n4: Store #a, 3"
        dag = DependenceDAG(parse_block(text))
        assert count_legal_orders(dag) == 1
        assert list(iter_legal_orders(dag)) == [(1, 2, 3, 4)]


@given(blocks(max_size=7))
@settings(max_examples=60)
def test_count_matches_enumeration(block):
    dag = DependenceDAG(block)
    count = count_legal_orders(dag)
    enumerated = sum(1 for _ in iter_legal_orders(dag))
    assert count == enumerated


@given(blocks(max_size=10))
@settings(max_examples=60)
def test_bounds_bracket_every_legal_order(block):
    """earliest/latest are valid position bounds in every legal order."""
    dag = DependenceDAG(block)
    for order in itertools.islice(iter_legal_orders(dag), 20):
        position = {ident: pos for pos, ident in enumerate(order)}
        for ident in dag.idents:
            assert dag.earliest(ident) <= position[ident] <= dag.latest(ident)


@given(blocks(max_size=10))
@settings(max_examples=60)
def test_transitive_sets_are_consistent(block):
    dag = DependenceDAG(block)
    for ident in dag.idents:
        for anc in dag.ancestors[ident]:
            assert ident in dag.descendants[anc]
        for p in dag.rho(ident):
            assert p in dag.ancestors[ident]
