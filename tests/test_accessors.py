"""Coverage for small public accessors not exercised elsewhere."""


from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.sched.interblock import schedule_sequence
from repro.sched.nop_insertion import compute_timing


class TestScheduleTimingAccessors:
    def test_issue_span(self, figure3_dag, sim_machine):
        timing = compute_timing(figure3_dag, (1, 2, 3, 4, 5), sim_machine)
        assert len(timing) == 5
        assert timing.issue_span_cycles == len(timing.order) + timing.total_nops


class TestSequenceAccessors:
    def test_total_cycles(self, sim_machine):
        blocks = [
            parse_block("1: Load #a\n2: Mul 1, 1\n3: Store #x, 2", "b0"),
            parse_block("1: Load #x\n2: Neg 1\n3: Store #y, 2", "b1"),
        ]
        seq = schedule_sequence(blocks, sim_machine)
        assert seq.total_cycles == sum(
            r.best.issue_span_cycles for r in seq.results
        )
        assert len(seq) == 2


class TestSearchResultAccessors:
    def test_optimal_alias_and_str(self, figure3_dag, sim_machine):
        from repro.sched.search import schedule_block

        result = schedule_block(figure3_dag, sim_machine)
        assert result.optimal is result.completed
        assert "omega calls" in str(result)


class TestUtilizationEdge:
    def test_empty_schedule_does_not_divide_by_zero(self, sim_machine):
        from repro.analysis import pipeline_utilization
        from repro.ir.block import BasicBlock

        block = BasicBlock([])
        dag = DependenceDAG(block)
        timing = compute_timing(dag, (), sim_machine)
        util = pipeline_utilization(block, sim_machine, timing, dag=dag)
        assert all(v == 0.0 for v in util.values())


class TestKernelStr:
    def test_kernel_renders_character(self):
        from repro.synth.kernels import get_kernel

        assert "chain" in str(get_kernel("dot4"))


def test_top_level_api_surface():
    """The README's imports must keep working."""
    import repro

    for name in (
        "compile_source",
        "compile_program",
        "paper_simulation_machine",
        "paper_example_machine",
        "schedule_block",
        "schedule_block_multi",
        "schedule_block_split",
        "schedule_sequence",
        "SearchOptions",
        "InitialConditions",
        "DependenceDAG",
        "parse_block",
        "format_block",
        "run_block",
        "render_timeline",
        "explain_schedule",
    ):
        assert hasattr(repro, name), name
        assert name in repro.__all__, name
