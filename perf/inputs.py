"""Seeded inputs for every workload.

Everything a run feeds the program is generated here, from ``--seed``,
before any timing starts.  A generated source is kept only when the
source semantics (``frontend.ast.evaluate_expr``, statement by
statement) run it without an arithmetic fault and without any value
outgrowing ``MAX_VALUE_BITS``, so no operation is expected to fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from common import digest, sub_seed

from repro.frontend.ast import Barrier, ForLoop, Program, evaluate_expr, resolve_bound
from repro.frontend.parser import parse_program
from repro.ir.textual import format_block
from repro.synth.generator import GeneratedBlock, generate_program, variable_names
from repro.synth.kernels import KERNELS
from repro.synth.loops import LOOP_KERNELS
from repro.synth.population import (
    PopulationSpec,
    generate_from_params,
    sample_population_params,
)

#: Machines the straight-line kernel suite is compiled for.
KERNEL_MACHINES = ("paper-simulation", "deep-memory", "scalar")

#: Machines the loop kernel suite is compiled for.
LOOP_MACHINES = ("paper-simulation", "deep-memory")

#: Service requests carry population blocks of at most this many tuples.
SERVICE_MAX_TUPLES = 24

#: Sources that grow a value (numerator plus denominator) past this many
#: bits are dropped: a body that squares a variable every iteration
#: reaches numbers with billions of digits, and the semantic checks
#: would spend minutes on big-integer arithmetic instead of measuring
#: the compiler.
MAX_VALUE_BITS = 4096


@dataclass(frozen=True)
class Source:
    """One program for the compile or loops workload."""

    name: str
    source: str
    machine: str
    memory: Dict[str, int]
    #: Split by ``barrier;`` (compiled with ``compile_program``).
    barrier: bool = False


def population_blocks(seed: int, count: int) -> List[GeneratedBlock]:
    """``count`` Table-7 blocks: ``PopulationSpec()`` drawn from ``seed``
    (seed 1990 is the paper's own stream)."""
    spec = PopulationSpec()
    return [
        generate_from_params(p, spec)
        for p in sample_population_params(count, seed, spec)
    ]


def block_texts(blocks: List[GeneratedBlock]) -> List[Tuple[str, str]]:
    return [(gb.block.name, format_block(gb.block)) for gb in blocks]


def _memory(rng: random.Random, variables: int) -> Dict[str, int]:
    return {v: rng.randint(1, 9) for v in variable_names(variables)}


def _bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    return value.numerator.bit_length() + value.denominator.bit_length()


def _run_bounded(statements, env: Dict[str, object]) -> None:
    for stmt in statements:
        if isinstance(stmt, Barrier):
            continue
        if isinstance(stmt, ForLoop):
            for k in range(resolve_bound(stmt.start, env), resolve_bound(stmt.stop, env)):
                env[stmt.var] = k
                _run_bounded(stmt.body, env)
            continue
        value = evaluate_expr(stmt.value, env)
        if _bits(value) > MAX_VALUE_BITS:
            raise OverflowError(f"{stmt.target} outgrows {MAX_VALUE_BITS} bits")
        env[stmt.target] = value


def _runs_cleanly(program: Program, memory: Dict[str, int]) -> bool:
    try:
        _run_bounded(program.statements, dict(memory))
    except (ArithmeticError, KeyError, ValueError):
        return False
    return True


def compile_sources(
    seed: int, rounds: int, generated: int, kernels: int = len(KERNELS)
) -> List[List[Source]]:
    """Per round: the first ``kernels`` kernels on every kernel machine,
    plus ``generated`` fresh programs of 2-20 statements on
    paper-simulation, about one in five split by one ``barrier;``.
    Each round is shuffled on its own stream."""
    rng = random.Random(sub_seed(seed, "compile"))
    fixed = [
        Source(f"{k.name}@{m}", k.source, m, dict(k.memory))
        for k in KERNELS[:kernels]
        for m in KERNEL_MACHINES
    ]
    out: List[List[Source]] = []
    for r in range(rounds):
        batch = list(fixed)
        while len(batch) < len(fixed) + generated:
            variables = rng.randint(3, 12)
            program = generate_program(
                rng.randint(2, 20), variables, rng.randint(2, 8), rng.getrandbits(32)
            )
            memory = _memory(rng, variables)
            statements = list(program.statements)
            barrier = rng.random() < 0.2
            if barrier:
                cut = rng.randint(1, len(statements) - 1)
                statements[cut:cut] = [Barrier()]
                program = Program(statements)
            if not _runs_cleanly(program, memory):
                continue
            batch.append(
                Source(f"gen{r}.{len(batch)}", str(program), "paper-simulation",
                       memory, barrier)
            )
        random.Random(sub_seed(seed, f"compile-order-{r}")).shuffle(batch)
        out.append(batch)
    return out


def loop_sources(
    seed: int, rounds: int, paper: int, deep: int, kernels: int = len(LOOP_KERNELS)
) -> List[List[Source]]:
    """Per round: the first ``kernels`` loop kernels on both loop
    machines, plus ``paper`` generated bodies on paper-simulation and
    ``deep`` on deep-memory, wrapped in ``for i in 0..8 { ... }``.
    Body sizes cycle through 2-6 statements so every draw has the same
    size mix."""
    rng = random.Random(sub_seed(seed, "loops"))
    fixed = [
        Source(f"{k.name}@{m}", k.source, m, dict(k.memory))
        for k in LOOP_KERNELS[:kernels]
        for m in LOOP_MACHINES
    ]
    out: List[List[Source]] = []
    for r in range(rounds):
        batch = list(fixed)
        for machine, count in (("paper-simulation", paper), ("deep-memory", deep)):
            made = 0
            while made < count:
                variables = rng.randint(3, 8)
                program = generate_program(
                    2 + made % 5, variables, rng.randint(2, 6), rng.getrandbits(32)
                )
                body = " ".join(str(s) for s in program.statements)
                source = f"for i in 0..8 {{ {body} }}"
                memory = _memory(rng, variables)
                if not _runs_cleanly(parse_program(source), memory):
                    continue
                made += 1
                batch.append(Source(f"loop{r}.{len(batch)}", source, machine, memory))
        random.Random(sub_seed(seed, f"loops-order-{r}")).shuffle(batch)
        out.append(batch)
    return out


def service_blocks(seed: int, count: int) -> List[str]:
    """``count`` distinct population blocks of 1-24 tuples, as tuple text."""
    spec = PopulationSpec()
    texts: List[str] = []
    seen = set()
    stream = sample_population_params(50 * count + 100, sub_seed(seed, "service"), spec)
    for params in stream:
        gb = generate_from_params(params, spec)
        if not 1 <= len(gb.block) <= SERVICE_MAX_TUPLES:
            continue
        text = format_block(gb.block)
        if text in seen:
            continue
        seen.add(text)
        texts.append(text)
        if len(texts) == count:
            return texts
    raise RuntimeError(f"population stream yielded only {len(texts)} service blocks")


def sources_digest(rounds: List[List[Source]]) -> str:
    return digest([[vars(s) for s in batch] for batch in rounds])
