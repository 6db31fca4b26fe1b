"""Preset machine descriptions.

Two come straight from the paper:

* :func:`paper_example_machine` — Tables 2 and 3: two loaders, two
  adders, one multiplier, with ``Add``/``Sub`` sharing the adder pair and
  ``Mul``/``Div`` sharing the multiplier.  Not deterministic — this is the
  machine that motivates the multi-pipeline extension.
* :func:`paper_simulation_machine` — Tables 4 and 5: the machine every
  result in section 5 was produced on.  One loader (latency 2, enqueue 1)
  and one multiplier (latency 4, enqueue 2); Table 5 is not legible in the
  scan, so the mapping follows the text's conventions: ``Load`` uses the
  loader, ``Mul``/``Div`` use the multiplier, and everything else
  (``Add``, ``Sub``, ``Const``, ``Store``, ``Copy``, ``Neg``) executes
  unpipelined in a single cycle — consistent with both the worked examples
  of section 2.1 and the remark that Stores "typically do not interfere
  with any pipelined operations".

The remaining presets exercise the model's generality (section 6: "our
model allows multiple pipelines, each with its own latency and enqueue
time"): a deep-memory machine, a fully unpipelined multi-unit machine, and
a scalar single-pipe machine used as a degenerate case in tests.
"""

from __future__ import annotations

from ..ir.ops import Opcode
from .machine import MachineDescription
from .pipeline import PipelineDesc


def paper_example_machine() -> MachineDescription:
    """Tables 2 and 3: the five-pipeline example machine."""
    return MachineDescription(
        name="paper-example",
        pipelines=[
            PipelineDesc("loader", 1, latency=2, enqueue_time=1),
            PipelineDesc("loader", 2, latency=2, enqueue_time=1),
            PipelineDesc("adder", 3, latency=4, enqueue_time=3),
            PipelineDesc("adder", 4, latency=4, enqueue_time=3),
            PipelineDesc("multiplier", 5, latency=4, enqueue_time=2),
        ],
        op_map={
            Opcode.LOAD: {1, 2},
            Opcode.ADD: {3, 4},
            Opcode.SUB: {3, 4},
            Opcode.MUL: {5},
            Opcode.DIV: {5},
        },
    )


def paper_simulation_machine() -> MachineDescription:
    """Tables 4 and 5: the machine used for all of the paper's results."""
    return MachineDescription(
        name="paper-simulation",
        pipelines=[
            PipelineDesc("loader", 1, latency=2, enqueue_time=1),
            PipelineDesc("multiplier", 2, latency=4, enqueue_time=2),
        ],
        op_map={
            Opcode.LOAD: {1},
            Opcode.MUL: {2},
            Opcode.DIV: {2},
        },
    )


def deep_memory_machine() -> MachineDescription:
    """A machine with a long-latency memory pipe and pipelined ALUs.

    Models the "global memory accesses using an interconnection network"
    flavour of machine the paper cites (CARP): memory results take 8
    ticks, arithmetic runs in dedicated pipes.  Deterministic.
    """
    return MachineDescription(
        name="deep-memory",
        pipelines=[
            PipelineDesc("loader", 1, latency=8, enqueue_time=1),
            PipelineDesc("adder", 2, latency=3, enqueue_time=1),
            PipelineDesc("multiplier", 3, latency=6, enqueue_time=2),
        ],
        op_map={
            Opcode.LOAD: {1},
            Opcode.ADD: {2},
            Opcode.SUB: {2},
            Opcode.MUL: {3},
            Opcode.DIV: {3},
        },
    )


def unpipelined_units_machine() -> MachineDescription:
    """Parallel functional units with no internal pipelining.

    Section 2.1: units that overlap with other units but are not
    internally pipelined are modelled as pipelines with
    ``enqueue_time == latency``.
    """
    return MachineDescription(
        name="unpipelined-units",
        pipelines=[
            PipelineDesc("loader", 1, latency=3, enqueue_time=3),
            PipelineDesc("adder", 2, latency=2, enqueue_time=2),
            PipelineDesc("multiplier", 3, latency=5, enqueue_time=5),
        ],
        op_map={
            Opcode.LOAD: {1},
            Opcode.ADD: {2},
            Opcode.SUB: {2},
            Opcode.MUL: {3},
            Opcode.DIV: {3},
        },
    )


def asymmetric_units_machine() -> MachineDescription:
    """Same-class functional units with *different* timings.

    One fast non-pipelined multiplier next to a slow pipelined one, and
    two unequal adders, so the pipeline *choice* sets each unit's timing
    (on identical twins it matters too: X1's first-pipeline pinning
    loses on 29 of 100 paper-example blocks).  Exercises the
    multi-pipeline selection extension (DESIGN.md X1).
    """
    return MachineDescription(
        name="asymmetric-units",
        pipelines=[
            PipelineDesc("loader", 1, latency=2, enqueue_time=1),
            PipelineDesc("adder-fast", 2, latency=1, enqueue_time=1),
            PipelineDesc("adder-slow", 3, latency=3, enqueue_time=1),
            PipelineDesc("mul-fast", 4, latency=3, enqueue_time=3),
            PipelineDesc("mul-slow", 5, latency=6, enqueue_time=2),
        ],
        op_map={
            Opcode.LOAD: {1},
            Opcode.ADD: {2, 3},
            Opcode.SUB: {2, 3},
            Opcode.MUL: {4, 5},
            Opcode.DIV: {4, 5},
        },
    )


def scalar_machine() -> MachineDescription:
    """Degenerate single-pipe machine where every value op has latency 1.

    Any legal order of a block needs zero NOPs here; tests use it to
    isolate dependence handling from timing.
    """
    return MachineDescription(
        name="scalar",
        pipelines=[PipelineDesc("alu", 1, latency=1, enqueue_time=1)],
        op_map={
            Opcode.LOAD: {1},
            Opcode.ADD: {1},
            Opcode.SUB: {1},
            Opcode.MUL: {1},
            Opcode.DIV: {1},
        },
    )


#: Registry of named presets for CLIs and experiments.
PRESETS = {
    "paper-example": paper_example_machine,
    "paper-simulation": paper_simulation_machine,
    "deep-memory": deep_memory_machine,
    "unpipelined-units": unpipelined_units_machine,
    "asymmetric-units": asymmetric_units_machine,
    "scalar": scalar_machine,
}


def get_machine(name: str) -> MachineDescription:
    """Look a preset machine up by name."""
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown machine {name!r} (known: {known})") from None
    return factory()
