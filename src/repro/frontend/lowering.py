"""Lowering: AST to tuple code.

Follows the code-generation conventions the paper states in section 5.2:
*"the first reference to a variable causes a load for that variable to be
generated, and a store is generated when a variable is assigned a
value."*

Figure 3 additionally shows that the generated code is the DAG-embedded
form: after ``b = 15``, the use of ``b`` in ``a = b * a`` references the
``Const 15`` tuple directly rather than re-loading ``b``.  Lowering
therefore tracks the tuple currently holding each variable's value:

* a read of a variable with no known value emits ``Load`` and records it;
* an assignment emits ``Store`` and records the stored tuple as the
  variable's current value.

Pass ``reuse_values=False`` for the naive load-on-every-demand lowering
("traditional compiler code generation techniques tend to load values on
demand", section 2.1) — used by tests and ablations to produce
dependence-heavy code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..ir.block import BasicBlock, BlockBuilder
from ..ir.ops import Opcode
from .ast import (
    Binary,
    Constant,
    Expr,
    ForLoop,
    Program,
    Unary,
    VarRead,
)

if TYPE_CHECKING:
    from ..ir.loop import LoopBlock


def lower_program(
    program: Program,
    name: str = "block",
    reuse_values: bool = True,
) -> BasicBlock:
    """Lower a straight-line program to a tuple basic block.

    The program must be barrier-free (one basic block); split multi-block
    programs with :meth:`Program.split_blocks` and lower each piece (the
    driver's ``compile_program`` does this).  Loops have their own
    lowering (:func:`lower_loop` / ``repro.driver.compile_loop``).
    """
    if program.has_barriers:
        raise ValueError(
            "program contains barriers; split_blocks() first "
            "(or use repro.driver.compile_program)"
        )
    if program.has_loops:
        raise ValueError(
            "program contains loops; use lower_loop "
            "(or repro.driver.compile_loop)"
        )
    builder = BlockBuilder(name)
    current: Dict[str, int] = {}  # variable -> tuple holding its value

    def lower_expr(expr: Expr) -> int:
        if isinstance(expr, Constant):
            return builder.emit_const(expr.value)
        if isinstance(expr, VarRead):
            if reuse_values and expr.name in current:
                return current[expr.name]
            ref = builder.emit_load(expr.name)
            if reuse_values:
                current[expr.name] = ref
            return ref
        if isinstance(expr, Unary):
            operand = lower_expr(expr.operand)
            return builder.emit_unary(Opcode.NEG, operand)
        if isinstance(expr, Binary):
            left = lower_expr(expr.left)
            right = lower_expr(expr.right)
            return builder.emit_binary(expr.opcode, left, right)
        raise TypeError(f"not an expression: {expr!r}")

    for stmt in program:
        value = lower_expr(stmt.value)
        builder.emit_store(stmt.target, value)
        if reuse_values:
            current[stmt.target] = value
    # A closure that calls itself is a reference cycle: empty its cell.
    del lower_expr
    return builder.build()


def lower_loop(
    loop: ForLoop,
    name: str = "loop",
    reuse_values: bool = True,
) -> LoopBlock:
    """Lower one bounded loop to a :class:`~repro.ir.loop.LoopBlock`.

    The body is lowered exactly like a straight-line block (value reuse
    within the iteration; nothing is reused *across* iterations — every
    cross-iteration value flows through memory, which is what makes the
    carried dependences derivable from the tuples alone).  When the body
    reads the loop counter, the lowered body ends with the induction
    update ``var = var + 1`` and executing the loop requires seeding
    ``var`` with ``start``; otherwise the counter is dead and omitted.
    """
    # Loops only: straight-line lowering never loads the loop IR.
    from ..ir.loop import LoopBlock, derive_carried_dependences

    statements = list(loop.body)
    loop_var = None
    if loop.reads_var:
        loop_var = loop.var
        from .ast import Assignment

        statements.append(
            Assignment(
                loop.var, Binary("+", VarRead(loop.var), Constant(1))
            )
        )
    body = lower_program(Program(statements), name, reuse_values)
    return LoopBlock(
        body=body,
        carried=derive_carried_dependences(body),
        loop_var=loop_var,
        start=loop.start,
        stop=loop.stop,
    )


def lower_source(source: str, name: str = "block", reuse_values: bool = True) -> BasicBlock:
    """Parse and lower in one step."""
    from .parser import parse_program

    return lower_program(parse_program(source), name, reuse_values)
