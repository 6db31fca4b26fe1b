"""A suite of hand-written loop kernels for modulo scheduling.

The straight-line suite (:mod:`repro.synth.kernels`) exercises one-shot
block scheduling; these are the loop-shaped counterparts — small bounded
counting loops whose steady state is where software pipelining pays.
Each kernel is a complete front-end program (one ``for`` loop), an
initial memory for semantic verification, and a note on its recurrence
character: the carried-dependence structure is what separates loops that
pipeline well (long independent work per iteration) from loops pinned by
a tight recurrence (RecMII-bound).

``scaled-update`` is the suite's witness that modulo scheduling beats
iterating the block scheduler: on the paper-simulation machine its
searched II is strictly below the steady-state list II, which the test
suite and the verify oracle's ``loop`` tier both pin.

Used by ``repro.experiments.loops`` (per-kernel II comparison across
machines) and ``repro verify --loops`` (certificate + brute-force oracle
sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..frontend.ast import ForLoop
from ..frontend.lowering import lower_loop
from ..frontend.parser import parse_program
from ..ir.loop import LoopBlock


@dataclass(frozen=True)
class LoopKernel:
    """One loop-shaped benchmark kernel."""

    name: str
    source: str  # a complete program: exactly one ``for`` loop
    memory: Dict[str, int]
    character: str  # one-line recurrence-structure note

    def __str__(self) -> str:
        return f"{self.name}: {self.character}"

    @property
    def loop_ast(self) -> ForLoop:
        program = parse_program(self.source)
        (statement,) = program.statements
        assert isinstance(statement, ForLoop)
        return statement

    def lower(self) -> LoopBlock:
        return lower_loop(self.loop_ast, name=self.name)


def _kernel(
    name: str, source: str, memory: Dict[str, int], character: str
) -> LoopKernel:
    return LoopKernel(name, source, dict(memory), character)


LOOP_KERNELS: Tuple[LoopKernel, ...] = (
    _kernel(
        "scaled-update",
        "for i in 0..8 { p = a * b; a = a + b; }",
        {"a": 3, "b": 2},
        "product + cheap update: modulo overlap beats the iterated "
        "block schedule outright (searched II < list II)",
    ),
    _kernel(
        "geo-sum",
        "for i in 0..6 { s = s + x; x = x * r; }",
        {"s": 0, "x": 1, "r": 3},
        "two coupled carried chains (accumulator and geometric term)",
    ),
    _kernel(
        "horner-stream",
        "for i in 0..5 { y = y * x + c; }",
        {"y": 1, "x": 2, "c": 5},
        "one tight multiply-add recurrence: RecMII-bound, nothing to "
        "overlap",
    ),
    _kernel(
        "indexed-accumulate",
        "for i in 0..7 { s = s + a * i; }",
        {"s": 0, "a": 4},
        "reads the induction variable, so lowering materializes the "
        "increment in the body",
    ),
    _kernel(
        "decay",
        "for i in 0..6 { v = v * d; }",
        {"v": 100, "d": 2},
        "minimal body: a single carried multiply chain",
    ),
    _kernel(
        "coupled-triple",
        "for i in 0..6 { t = a + b; a = b * c; b = t + c; }",
        {"a": 1, "b": 2, "c": 3},
        "three statements with cross-coupled carried flow — the "
        "recurrence and resource bounds compete",
    ),
)
