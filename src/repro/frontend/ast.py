"""Abstract syntax for the front-end source language.

A program is a sequence of assignment statements — optionally including
bounded counting loops (:class:`ForLoop`) — and expressions are
constants, variable reads, unary minus, and the four binary operators.
The AST carries its own exact-arithmetic evaluator, which defines source
semantics independently of the tuple IR — end-to-end tests compare the
two.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Tuple, Union

from ..ir.ops import Opcode
from ..record import Record, setslot

if TYPE_CHECKING:
    # Typing only: ``fractions`` loads ``decimal``; a Div evaluates
    # through ``Opcode.evaluate``, which imports it on first use.
    from fractions import Fraction

Value = Union[int, "Fraction"]


class Constant(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        setslot(self, "value", value)

    def __str__(self) -> str:
        return str(self.value)


class VarRead(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setslot(self, "name", name)

    def __str__(self) -> str:
        return self.name


class Unary(Record):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: "Expr"):
        if op != "-":
            raise ValueError(f"unsupported unary operator {op!r}")
        setslot(self, "op", op)
        setslot(self, "operand", operand)

    def __str__(self) -> str:
        return f"(-{self.operand})"


class Binary(Record):
    __slots__ = ("op", "left", "right")

    _OPCODES = {
        "+": Opcode.ADD,
        "-": Opcode.SUB,
        "*": Opcode.MUL,
        "/": Opcode.DIV,
    }

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        if op not in self._OPCODES:
            raise ValueError(f"unsupported binary operator {op!r}")
        setslot(self, "op", op)
        setslot(self, "left", left)
        setslot(self, "right", right)

    @property
    def opcode(self) -> Opcode:
        return self._OPCODES[self.op]

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Expr = Union[Constant, VarRead, Unary, Binary]


class Assignment(Record):
    __slots__ = ("target", "value")

    def __init__(self, target: str, value: Expr):
        setslot(self, "target", target)
        setslot(self, "value", value)

    def __str__(self) -> str:
        return f"{self.target} = {self.value};"


#: A loop bound: a non-negative integer literal or the name of a memory
#: variable holding one (resolved at execution time).
Bound = Union[int, str]


def _walk_reads(expr: Expr, visit) -> None:
    if isinstance(expr, VarRead):
        visit(expr.name)
    elif isinstance(expr, Unary):
        _walk_reads(expr.operand, visit)
    elif isinstance(expr, Binary):
        _walk_reads(expr.left, visit)
        _walk_reads(expr.right, visit)


class ForLoop(Record):
    """A bounded counting loop: ``for var in start..stop { body }``.

    Semantics: the loop variable is a *scoped binding* — it counts
    ``start, start+1, ..., stop-1`` (``max(0, stop-start)`` iterations)
    and is not observable after the loop (any outer variable of the same
    name is shadowed during the loop and restored afterwards).  The body
    is a straight-line sequence of assignments; it may read the loop
    variable but never assign it, and loops do not nest.
    """

    __slots__ = ("var", "start", "stop", "body")

    def __init__(self, var: str, start: Bound, stop: Bound, body):
        body = tuple(body)
        if not body:
            raise ValueError("loop body must contain at least one assignment")
        for stmt in body:
            if not isinstance(stmt, Assignment):
                raise ValueError(
                    f"loop bodies contain assignments only, not {stmt!r}"
                )
            if stmt.target == var:
                raise ValueError(
                    f"loop body assigns the loop variable {var!r}"
                )
        for bound in (start, stop):
            if isinstance(bound, int) and bound < 0:
                raise ValueError("loop bounds must be non-negative")
        setslot(self, "var", var)
        setslot(self, "start", start)
        setslot(self, "stop", stop)
        setslot(self, "body", body)

    @property
    def reads_var(self) -> bool:
        """Does any body expression read the loop variable?"""
        found = [False]

        def visit(name: str) -> None:
            if name == self.var:
                found[0] = True

        for stmt in self.body:
            _walk_reads(stmt.value, visit)
        return found[0]

    def __str__(self) -> str:
        inner = " ".join(str(s) for s in self.body)
        return f"for {self.var} in {self.start}..{self.stop} {{ {inner} }}"


def resolve_bound(bound: Bound, env: Mapping[str, Value]) -> int:
    """Resolve a loop bound to a concrete non-negative trip-count limit."""
    if isinstance(bound, str):
        if bound not in env:
            raise KeyError(f"loop bound variable {bound!r} is undefined")
        bound = env[bound]
    value = int(bound)
    if value != bound:
        raise ValueError(f"loop bound {bound!r} is not an integer")
    if value < 0:
        raise ValueError(f"loop bound {value} is negative")
    return value


class Barrier(Record):
    """A basic-block boundary (``barrier;``).

    Instructions never move across a barrier; the scheduler handles the
    pieces as adjacent blocks whose pipeline state threads through the
    boundary (footnote 1, ``repro.sched.interblock``).  Semantically a
    no-op: all values flow between blocks through memory.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return "barrier;"


Statement = Union[Assignment, Barrier, ForLoop]


class Program(Record):
    """A straight-line program: assignments, optionally partitioned
    into basic blocks by :class:`Barrier` statements."""

    __slots__ = ("statements",)

    def __init__(self, statements):
        setslot(self, "statements", tuple(statements))

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)

    def __str__(self) -> str:
        body = "\n".join(f"    {s}" for s in self.statements)
        return "{\n" + body + "\n}"

    # ------------------------------------------------------------------
    def variables_written(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for stmt in self.statements:
            if isinstance(stmt, Barrier):
                continue
            if isinstance(stmt, ForLoop):
                for inner in stmt.body:
                    seen.setdefault(inner.target, None)
                continue
            seen.setdefault(stmt.target, None)
        return tuple(seen)

    @property
    def has_barriers(self) -> bool:
        return any(isinstance(s, Barrier) for s in self.statements)

    @property
    def has_loops(self) -> bool:
        return any(isinstance(s, ForLoop) for s in self.statements)

    def split_blocks(self) -> Tuple["Program", ...]:
        """Split at barriers into barrier-free sub-programs (empty
        segments — leading, trailing, or doubled barriers — are dropped)."""
        segments: list[list] = [[]]
        for stmt in self.statements:
            if isinstance(stmt, Barrier):
                segments.append([])
            else:
                segments[-1].append(stmt)
        return tuple(Program(seg) for seg in segments if seg)


def evaluate_expr(expr: Expr, env: Mapping[str, Value]) -> Value:
    """Exact evaluation of an expression in ``env``."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, VarRead):
        return env[expr.name]
    if isinstance(expr, Unary):
        return -evaluate_expr(expr.operand, env)
    if isinstance(expr, Binary):
        left = evaluate_expr(expr.left, env)
        right = evaluate_expr(expr.right, env)
        return expr.opcode.evaluate(left, right)
    raise TypeError(f"not an expression: {expr!r}")


def run_program(program: Program, memory: Mapping[str, Value]) -> Dict[str, Value]:
    """Execute the program; returns the final memory.

    This is the *source-level* semantics every compilation stage must
    preserve.  Barriers are semantic no-ops.
    """
    env: Dict[str, Value] = dict(memory)
    for stmt in program:
        if isinstance(stmt, Barrier):
            continue
        if isinstance(stmt, ForLoop):
            run_loop_statement(stmt, env)
            continue
        env[stmt.target] = evaluate_expr(stmt.value, env)
    return env


def run_loop_statement(loop: ForLoop, env: Dict[str, Value]) -> None:
    """Execute one :class:`ForLoop` in place (source-level semantics).

    The loop variable shadows any outer variable of the same name for the
    duration of the loop and is restored (or removed) afterwards.
    """
    start = resolve_bound(loop.start, env)
    stop = resolve_bound(loop.stop, env)
    shadowed = loop.var in env
    saved = env.get(loop.var)
    for k in range(start, stop):
        env[loop.var] = k
        for stmt in loop.body:
            env[stmt.target] = evaluate_expr(stmt.value, env)
    if shadowed:
        env[loop.var] = saved
    else:
        env.pop(loop.var, None)
