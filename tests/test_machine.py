"""Unit tests for pipeline and machine descriptions."""

import pytest

from repro.ir.ops import Opcode
from repro.machine.machine import (
    UNPIPELINED_LATENCY,
    MachineDescription,
    MachineValidationError,
)
from repro.machine.pipeline import PipelineDesc
from repro.machine.presets import PRESETS, get_machine, paper_example_machine


class TestPipelineDesc:
    def test_valid(self):
        p = PipelineDesc("loader", 1, latency=2, enqueue_time=1)
        assert (p.latency, p.enqueue_time) == (2, 1)

    def test_unpipelined_unit(self):
        p = PipelineDesc("mult", 1, latency=5, enqueue_time=5)
        assert p.enqueue_time == p.latency

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ident=0, latency=1, enqueue_time=1),
            dict(ident=1, latency=0, enqueue_time=1),
            dict(ident=1, latency=2, enqueue_time=0),
            dict(ident=1, latency=2, enqueue_time=3),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PipelineDesc("u", kwargs["ident"], kwargs["latency"], kwargs["enqueue_time"])


class TestMachineDescription:
    def test_paper_tables_4_and_5(self, sim_machine):
        loader = sim_machine.pipeline(1)
        assert (loader.latency, loader.enqueue_time) == (2, 1)
        multiplier = sim_machine.pipeline(2)
        assert (multiplier.latency, multiplier.enqueue_time) == (4, 2)
        assert sim_machine.sigma(Opcode.LOAD) == 1
        assert sim_machine.sigma(Opcode.MUL) == 2
        assert sim_machine.sigma(Opcode.ADD) is None
        assert sim_machine.is_deterministic

    def test_paper_tables_2_and_3(self, example_machine):
        assert example_machine.pipelines_for(Opcode.LOAD) == {1, 2}
        assert example_machine.pipelines_for(Opcode.ADD) == {3, 4}
        assert example_machine.pipelines_for(Opcode.MUL) == {5}
        assert not example_machine.is_deterministic

    def test_sigma_rejects_multi_pipeline_ops(self, example_machine):
        with pytest.raises(MachineValidationError, match="fixed_assignment"):
            example_machine.sigma(Opcode.ADD)

    def test_fixed_assignment_pins_lowest(self, example_machine):
        pinned = example_machine.fixed_assignment()
        assert pinned.is_deterministic
        assert pinned.sigma(Opcode.ADD) == 3
        assert pinned.sigma(Opcode.LOAD) == 1
        # Already-deterministic machines pass through unchanged.
        assert pinned.fixed_assignment() is pinned

    def test_latency_of_unpipelined_op(self, sim_machine):
        assert sim_machine.latency_of(Opcode.ADD) == UNPIPELINED_LATENCY
        assert sim_machine.latency_of(Opcode.MUL) == 4

    def test_duplicate_pipeline_ids_rejected(self):
        with pytest.raises(MachineValidationError, match="duplicate"):
            MachineDescription(
                "bad",
                [PipelineDesc("a", 1, 2, 1), PipelineDesc("b", 1, 2, 1)],
                {},
            )

    def test_unknown_pipeline_in_mapping_rejected(self):
        with pytest.raises(MachineValidationError, match="unknown pipeline"):
            MachineDescription(
                "bad", [PipelineDesc("a", 1, 2, 1)], {Opcode.LOAD: {9}}
            )

    def test_unknown_pipeline_lookup(self, sim_machine):
        with pytest.raises(KeyError):
            sim_machine.pipeline(99)

    def test_max_latency(self, sim_machine):
        assert sim_machine.max_latency == 4

    def test_describe_renders_both_tables(self, sim_machine):
        text = sim_machine.describe()
        assert "Pipeline description table" in text
        assert "loader" in text and "multiplier" in text
        assert "Load" in text and "{1}" in text


class TestPresets:
    def test_registry_is_complete(self):
        for name in PRESETS:
            machine = get_machine(name)
            assert machine.pipelines or name == "empty"

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown machine"):
            get_machine("pdp-11")

    def test_presets_are_fresh_instances(self):
        assert paper_example_machine() is not paper_example_machine()
