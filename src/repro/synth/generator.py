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
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..record import Record, setslot

if TYPE_CHECKING:
    from ..frontend.ast import Constant, Expr, Program, VarRead
    from .stats import GeneratorProfile

#: Leaves shared by every generated program, as small as the largest
#: variable pool and constant range asked for.
_READS: Dict[str, VarRead] = {}
_CONSTANTS: Dict[int, Constant] = {}


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


@lru_cache(maxsize=None)
def variable_names(count: int) -> Tuple[str, ...]:
    """``v0, v1, ...`` — the variable pool for generated programs, one per count."""
    if count < 1:
        raise ValueError("need at least one variable")
    return tuple(sys.intern(f"v{i}") for i in range(count))


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
    # The same draws as from ``names`` and ``constant_pool``, shared leaves.
    reads = [_READS.get(n) or _READS.setdefault(n, VarRead(n)) for n in names]
    leaves = [_CONSTANTS.get(c) or _CONSTANTS.setdefault(c, Constant(c)) for c in constant_pool]

    def var() -> VarRead:
        return rng.choice(reads)

    def const() -> Constant:
        return rng.choice(leaves)

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


class GeneratedBlock(Record):
    """A synthetic benchmark block and its provenance.

    ``source`` is the program the block was built from, when given;
    :func:`generate_block` keeps none, since ``program`` regenerates it."""

    __slots__ = ("block", "source", "statements", "variables", "constants", "seed", "profile")

    def __init__(self, block: BasicBlock, source: Optional[Program], statements: int,
                 variables: int, constants: int, seed: int,
                 profile: Optional[GeneratorProfile] = None):
        setslot(self, "block", block)
        setslot(self, "source", source)
        setslot(self, "statements", statements)
        setslot(self, "variables", variables)
        setslot(self, "constants", constants)
        setslot(self, "seed", seed)
        setslot(self, "profile", profile)

    @property
    def program(self) -> Program:
        if self.source is not None:
            return self.source
        return generate_program(
            self.statements, self.variables, self.constants, self.seed, self.profile)

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
    return GeneratedBlock(block, None, statements, variables, constants, seed, profile)
