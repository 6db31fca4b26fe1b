"""Seeded deterministic fuzzing for the differential oracle.

``tests/test_differential.py`` drives the oracle through hypothesis;
this module is the dependency-free twin used by the ``repro verify``
CLI and CI: a plain ``random.Random`` generator for blocks and machine
descriptions, so a seed fully determines the run and a CI failure can
be replayed locally with the same command line.

It also owns the **adversarial machine gallery** — legal-but-extreme
machine models at the boundaries the validation layer permits: a
single-pipeline degenerate machine, latency-1/enqueue-1 units,
fully-busy units (``enqueue == latency``, the section-2.1 unpipelined
case), a deep pipe next to shallow ones, 4+ heterogeneous pipelines,
and a non-deterministic machine that exercises the joint
order-and-assignment search.  (Truly invalid shapes — zero latency,
``enqueue > latency`` — are rejected by :class:`PipelineDesc` itself;
the test suite pins those rejections.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..ir.block import BasicBlock, BlockBuilder
from ..ir.ops import Opcode
from ..machine.machine import MachineDescription
from ..machine.pipeline import PipelineDesc
from ..sched.search import SearchOptions
from ..telemetry import Telemetry
from .oracle import DEFAULT_BRUTE_CAP, OracleReport, check_block

_VARIABLES = ("a", "b", "c", "d")
_VALUE_OPS = (
    Opcode.CONST,
    Opcode.LOAD,
    Opcode.COPY,
    Opcode.NEG,
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
)
_MAPPABLE_OPS = (
    Opcode.LOAD,
    Opcode.STORE,
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.NEG,
    Opcode.COPY,
)


# ----------------------------------------------------------------------
# Adversarial machine gallery
# ----------------------------------------------------------------------
def adversarial_machines() -> List[MachineDescription]:
    """Legal-but-extreme machine models for the oracle to chew on."""
    every_op = {op: {1} for op in _MAPPABLE_OPS}
    return [
        # Single-pipeline degenerate case: every operation (Stores too)
        # funnels through one latency-1 unit — pure conflict scheduling.
        MachineDescription("adv-single-pipe", [PipelineDesc("alu", 1, 1, 1)], every_op),
        # The same funnel, but the unit is busy its whole latency.
        MachineDescription(
            "adv-single-busy", [PipelineDesc("alu", 1, 4, 4)], every_op
        ),
        # Fully unpipelined parallel units (enqueue == latency everywhere).
        MachineDescription(
            "adv-busy-units",
            [
                PipelineDesc("loader", 1, 2, 2),
                PipelineDesc("adder", 2, 5, 5),
                PipelineDesc("multiplier", 3, 8, 8),
            ],
            {
                Opcode.LOAD: {1},
                Opcode.STORE: {1},
                Opcode.ADD: {2},
                Opcode.SUB: {2},
                Opcode.MUL: {3},
                Opcode.DIV: {3},
            },
        ),
        # One very deep pipe among shallow ones (latency 8, enqueue 1).
        MachineDescription(
            "adv-deep-pipe",
            [
                PipelineDesc("loader", 1, 8, 1),
                PipelineDesc("alu", 2, 1, 1),
                PipelineDesc("multiplier", 3, 6, 3),
            ],
            {
                Opcode.LOAD: {1},
                Opcode.ADD: {2},
                Opcode.SUB: {2},
                Opcode.NEG: {2},
                Opcode.MUL: {3},
                Opcode.DIV: {3},
            },
        ),
        # Five heterogeneous pipelines, pipelined Stores included.
        MachineDescription(
            "adv-hetero-5",
            [
                PipelineDesc("loader", 1, 3, 2),
                PipelineDesc("storer", 2, 2, 2),
                PipelineDesc("adder", 3, 4, 1),
                PipelineDesc("multiplier", 4, 7, 3),
                PipelineDesc("mover", 5, 1, 1),
            ],
            {
                Opcode.LOAD: {1},
                Opcode.STORE: {2},
                Opcode.ADD: {3},
                Opcode.SUB: {3},
                Opcode.MUL: {4},
                Opcode.DIV: {4},
                Opcode.COPY: {5},
                Opcode.NEG: {5},
            },
        ),
        # Non-deterministic: twin adders and asymmetric multipliers, so
        # the joint order-and-assignment search has real choices.
        MachineDescription(
            "adv-multi-choice",
            [
                PipelineDesc("loader", 1, 2, 1),
                PipelineDesc("adder", 2, 3, 1),
                PipelineDesc("adder", 3, 3, 1),
                PipelineDesc("mul-fast", 4, 2, 2),
                PipelineDesc("mul-slow", 5, 6, 1),
            ],
            {
                Opcode.LOAD: {1},
                Opcode.ADD: {2, 3},
                Opcode.SUB: {2, 3},
                Opcode.MUL: {4, 5},
                Opcode.DIV: {4, 5},
            },
        ),
    ]


# ----------------------------------------------------------------------
# Seeded random generation (mirrors tests/strategies.py, sans hypothesis)
# ----------------------------------------------------------------------
def random_block(
    rng: random.Random,
    min_size: int = 1,
    max_size: int = 10,
    name: str = "fuzz",
) -> BasicBlock:
    """A random valid tuple block, like the hypothesis ``blocks`` strategy."""
    size = rng.randint(min_size, max_size)
    builder = BlockBuilder(name)
    value_refs: List[int] = []
    for _ in range(size):
        candidates: Sequence[Opcode] = (Opcode.CONST, Opcode.LOAD)
        if value_refs:
            candidates = _VALUE_OPS + (Opcode.STORE,)
        op = rng.choice(candidates)
        if op is Opcode.CONST:
            value_refs.append(builder.emit_const(rng.randint(-50, 50)))
        elif op is Opcode.LOAD:
            value_refs.append(builder.emit_load(rng.choice(_VARIABLES)))
        elif op is Opcode.STORE:
            builder.emit_store(rng.choice(_VARIABLES), rng.choice(value_refs))
        elif op in (Opcode.COPY, Opcode.NEG):
            value_refs.append(builder.emit_unary(op, rng.choice(value_refs)))
        else:
            value_refs.append(
                builder.emit_binary(
                    op, rng.choice(value_refs), rng.choice(value_refs)
                )
            )
    return builder.build()


def random_machine(rng: random.Random, max_pipelines: int = 4) -> MachineDescription:
    """A random deterministic machine, like the ``machines`` strategy."""
    n_pipes = rng.randint(1, max_pipelines)
    pipes = []
    for ident in range(1, n_pipes + 1):
        latency = rng.randint(1, 8)
        pipes.append(
            PipelineDesc(f"unit{ident}", ident, latency, rng.randint(1, latency))
        )
    op_map = {}
    for op in _MAPPABLE_OPS:
        choice = rng.randint(0, n_pipes)
        if choice:
            op_map[op] = {choice}
    return MachineDescription("fuzz-machine", pipes, op_map)


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzResult:
    """Aggregate outcome of one seeded oracle run."""

    blocks_checked: int
    checks_run: int
    failures: Tuple[OracleReport, ...] = ()
    report_dirs: Tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return (
                f"fuzz: {self.blocks_checked} block/machine pairs, "
                f"{self.checks_run} checks, all consistent"
            )
        lines = [
            f"fuzz: {len(self.failures)} of {self.blocks_checked} "
            f"block/machine pairs FAILED"
        ]
        lines += [r.summary() for r in self.failures]
        return "\n".join(lines)


def run_fuzz(
    n_blocks: int,
    seed: int = 1990,
    machines: Optional[Sequence[MachineDescription]] = None,
    options: Optional[SearchOptions] = None,
    max_block_size: int = 10,
    brute_cap: int = DEFAULT_BRUTE_CAP,
    emit_dir: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    optimality: bool = False,
) -> FuzzResult:
    """Drive the differential oracle over a seeded random population.

    Each block is paired with one machine, cycling through
    ``machines`` (default: the adversarial gallery interleaved with
    seeded random machines) so every model shape sees every block-size
    regime over a long enough run.
    """
    rng = random.Random(seed)
    gallery = list(machines) if machines is not None else adversarial_machines()
    failures: List[OracleReport] = []
    dirs: List[str] = []
    checks = 0
    for k in range(n_blocks):
        block = random_block(rng, max_size=max_block_size, name=f"fuzz-{seed}-{k}")
        if machines is None and k % (len(gallery) + 1) == len(gallery):
            machine = random_machine(rng)
        else:
            machine = gallery[k % len(gallery)]
        report = check_block(
            block,
            machine,
            options=options,
            brute_cap=brute_cap,
            telemetry=telemetry,
            emit_dir=emit_dir,
            optimality=optimality,
        )
        checks += report.checks_run
        if not report.ok:
            failures.append(report)
            if report.report_dir:
                dirs.append(report.report_dir)
    return FuzzResult(n_blocks, checks, tuple(failures), tuple(dirs))
