"""Random basic-block generator (section 5.2).

*"This program requires as input the number of statements, variables,
and constants desired in the generated code.  It then generates a random
sequence of assignment statements satisfying the desired conditions."*

:func:`generate_program` produces the assignment-statement AST;
:func:`generate_block` additionally runs it through the real front end
(lowering + the full optimizer), exactly the pipeline the paper's
benchmarks took before scheduling.  Everything is reproducible from an
integer seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from ..ir.block import BasicBlock

if TYPE_CHECKING:
    from ..frontend.ast import Expr, Program
    from .stats import GeneratorProfile


def _weighted_choice(
    rng: random.Random, table: Sequence[Tuple[str, float]]
) -> str:
    roll = rng.random()
    acc = 0.0
    for name, weight in table:
        acc += weight
        if roll < acc:
            return name
    return table[-1][0]  # numerical slack lands on the last entry


def variable_names(count: int) -> Tuple[str, ...]:
    """``v0, v1, ...`` — the variable pool for generated programs."""
    if count < 1:
        raise ValueError("need at least one variable")
    return tuple(f"v{i}" for i in range(count))


def generate_program(
    statements: int,
    variables: int,
    constants: int,
    seed: int,
    profile: Optional[GeneratorProfile] = None,
) -> Program:
    """Generate a random straight-line program.

    Parameters mirror the paper's generator inputs: the number of
    assignment statements, the size of the variable pool, and the number
    of distinct constants available to the program.  ``profile``
    defaults to :data:`repro.synth.stats.DEFAULT_PROFILE`.
    """
    # Generation only: a caller that just holds GeneratedBlock records
    # never loads the front end or the statement mix.
    from ..frontend.ast import Assignment, Binary, Constant, Program, Unary, VarRead
    from .stats import DEFAULT_PROFILE

    if profile is None:
        profile = DEFAULT_PROFILE
    if statements < 1:
        raise ValueError("need at least one statement")
    if constants < 1:
        raise ValueError("need at least one constant")
    rng = random.Random(seed)
    names = variable_names(variables)
    # The paper fixes the number of *distinct* constants; draw the pool
    # once, then statements sample from it.
    pool_size = min(constants, profile.constant_range)
    constant_pool = rng.sample(range(1, profile.constant_range + 1), pool_size)
    operators = profile.operators()

    def var() -> VarRead:
        return VarRead(rng.choice(names))

    def const() -> Constant:
        return Constant(rng.choice(constant_pool))

    def op() -> str:
        return _weighted_choice(rng, operators)

    def statement() -> Assignment:
        target = rng.choice(names)
        kind = _weighted_choice(rng, profile.statement_frequencies)
        if kind == "copy":
            value: Expr = var()
        elif kind == "const":
            value = const()
        elif kind == "negate":
            value = Unary("-", var())
        elif kind == "binop_vv":
            value = Binary(op(), var(), var())
        elif kind == "binop_vc":
            value = Binary(op(), var(), const())
        elif kind == "chain3":
            value = Binary(op(), Binary(op(), var(), var()), var())
        elif kind == "balanced4":
            value = Binary(
                op(),
                Binary(op(), var(), var()),
                Binary(op(), var(), const()),
            )
        else:  # pragma: no cover - profile validation prevents this
            raise AssertionError(f"unknown statement kind {kind}")
        return Assignment(target, value)

    return Program([statement() for _ in range(statements)])


@dataclass(frozen=True)
class GeneratedBlock:
    """A synthetic benchmark block and its provenance."""

    block: BasicBlock
    program: Program
    statements: int
    variables: int
    constants: int
    seed: int

    def __len__(self) -> int:
        return len(self.block)


def generate_block(
    statements: int,
    variables: int,
    constants: int,
    seed: int,
    profile: Optional[GeneratorProfile] = None,
    optimize: bool = True,
    name: Optional[str] = None,
) -> GeneratedBlock:
    """Generate a program and push it through the front end.

    With ``optimize=True`` (default, matching the paper) the block is the
    optimizer's output: "if traditional optimizations are applied, the
    general effect is that finding good schedules becomes more
    difficult", which is why the paper applies them before measuring.
    """
    # Generation only, as in generate_program.
    from ..frontend.lowering import lower_program
    from ..opt import optimize_block

    program = generate_program(statements, variables, constants, seed, profile)
    label = name or f"synth-s{statements}-v{variables}-c{constants}-r{seed}"
    block = lower_program(program, label)
    if optimize and len(block):
        block = optimize_block(block)
    return GeneratedBlock(
        block=block,
        program=program,
        statements=statements,
        variables=variables,
        constants=constants,
        seed=seed,
    )
