"""Loop-level IR: a loop body block plus cross-iteration dependences.

The frontend lowers ``for i in 0..N { ... }`` to a :class:`LoopBlock`:
one :class:`~repro.ir.block.BasicBlock` for the body (one iteration's
tuple code) plus the loop-carried dependences between consecutive
iterations.  The modulo scheduler (``repro.sched.pipelining``) consumes
exactly this pair — the body DAG gives the intra-iteration constraints,
the carried edges the recurrence constraints.

Carried dependences are *derived*, not declared: the body is unrolled
twice (:func:`concatenate_iterations`), the ordinary dependence DAG is
built over the concatenation, and every edge crossing the copy boundary
is a carried dependence.  In this scalar-variable language the "most
recent store" linking never skips a whole iteration — every memory
dependence of iteration ``i+1`` resolves to iteration ``i+1`` or ``i`` —
so all carried dependences have distance 1.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..record import Record, setslot
from .block import BasicBlock
from .dag import DependenceDAG
from .interp import run_block
from .tuples import IRTuple, RefOperand

#: A loop bound: an integer literal or the name of a variable holding one.
Bound = Union[int, str]


class LoopCarriedDep(Record):
    """A dependence of ``consumer`` (iteration ``i + distance``) on
    ``producer`` (iteration ``i``), both body tuple reference numbers."""

    __slots__ = ("producer", "consumer", "kind", "distance")

    def __init__(self, producer: int, consumer: int, kind: str, distance: int = 1):
        setslot(self, "producer", producer)
        setslot(self, "consumer", consumer)
        setslot(self, "kind", kind)  # "flow" | "anti" | "output"
        setslot(self, "distance", distance)
        if self.distance < 1:
            raise ValueError("carried dependences need distance >= 1")

    def __str__(self) -> str:
        return (
            f"{self.producer} -{self.kind}[{self.distance}]-> {self.consumer}"
        )


def _ident_stride(body: BasicBlock) -> int:
    return max(body.idents) if len(body) else 0


def _shift_tuple(t: IRTuple, offset: int) -> IRTuple:
    alpha = t.alpha
    beta = t.beta
    if isinstance(alpha, RefOperand):
        alpha = RefOperand(alpha.ref + offset)
    if isinstance(beta, RefOperand):
        beta = RefOperand(beta.ref + offset)
    return IRTuple(t.ident + offset, t.op, alpha, beta)


def concatenate_iterations(
    body: BasicBlock, copies: int, name: Optional[str] = None
) -> BasicBlock:
    """A straight-line block holding ``copies`` renumbered body copies.

    Copy ``j`` shifts every reference number by ``j * max(body.idents)``
    so the copies are disjoint; memory variables are shared, which is
    precisely what induces the carried dependences between copies.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    stride = _ident_stride(body)
    tuples = []
    for j in range(copies):
        offset = j * stride
        for t in body:
            tuples.append(_shift_tuple(t, offset))
    return BasicBlock(tuples, name or f"{body.name}@x{copies}")


def derive_carried_dependences(body: BasicBlock) -> Tuple[LoopCarriedDep, ...]:
    """Derive the loop-carried dependences of ``body`` (all distance 1)."""
    if len(body) < 1:
        return ()
    stride = _ident_stride(body)
    pair = concatenate_iterations(body, 2)
    carried = []
    for edge in DependenceDAG(pair).edges:
        if edge.producer <= stride < edge.consumer:
            carried.append(
                LoopCarriedDep(
                    edge.producer, edge.consumer - stride, edge.kind, 1
                )
            )
    return tuple(carried)


class LoopBlock(Record):
    """One bounded loop, lowered: body tuples + carried dependences.

    ``loop_var`` is ``None`` when the body never reads the counter (the
    induction update is then dead code and is not materialized); when
    present, the body ends with the lowered ``var = var + 1`` update and
    executing the loop requires ``var`` to be seeded with ``start``.
    """

    __slots__ = ("body", "carried", "loop_var", "start", "stop")

    def __init__(self, body: BasicBlock, carried: Tuple[LoopCarriedDep, ...],
                 loop_var: Optional[str] = None, start: Bound = 0, stop: Bound = 0):
        setslot(self, "body", body)
        setslot(self, "carried", tuple(carried))
        setslot(self, "loop_var", loop_var)
        setslot(self, "start", start)
        setslot(self, "stop", stop)
        idents = set(self.body.idents)
        for dep in self.carried:
            if dep.producer not in idents or dep.consumer not in idents:
                raise ValueError(
                    f"carried dependence {dep} references tuples outside "
                    "the body"
                )

    def __len__(self) -> int:
        return len(self.body)

    @property
    def name(self) -> str:
        return self.body.name

    def trip_count(self, env: Optional[Mapping[str, object]] = None) -> int:
        """Resolve ``max(0, stop - start)`` against ``env``."""
        return max(0, _bound(self.stop, env) - _bound(self.start, env))

    def unrolled(self, copies: int) -> BasicBlock:
        """``copies`` concatenated, renumbered body iterations."""
        return concatenate_iterations(self.body, copies)

    def __str__(self) -> str:
        header = f"loop {self.name}: {self.start}..{self.stop}"
        if self.loop_var is not None:
            header += f" var {self.loop_var}"
        lines = [header]
        lines += [f"    {t}" for t in self.body]
        lines += [f"    carried {dep}" for dep in self.carried]
        return "\n".join(lines)


def _bound(bound: Bound, env: Optional[Mapping[str, object]]) -> int:
    if isinstance(bound, str):
        if env is None or bound not in env:
            raise KeyError(f"loop bound variable {bound!r} is undefined")
        value = env[bound]
    else:
        value = bound
    out = int(value)
    if out != value:
        raise ValueError(f"loop bound {value!r} is not an integer")
    return out


def run_loop(
    loop: LoopBlock,
    memory: Optional[Mapping[str, object]] = None,
    trip_count: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Execute the lowered loop; returns the final memory.

    Runs the body block ``trip_count`` times (default: resolved from the
    bounds), threading memory between iterations.  The loop variable is
    seeded with ``start`` and, matching source semantics, restored (or
    removed) after the loop — it is a scoped binding.  ``order`` replays
    each iteration in a specific legal order (defaults to program order).
    """
    env: Dict[str, object] = dict(memory or {})
    trips = loop.trip_count(env) if trip_count is None else trip_count
    shadowed = loop.loop_var is not None and loop.loop_var in env
    saved = env.get(loop.loop_var) if shadowed else None
    if loop.loop_var is not None:
        env[loop.loop_var] = _bound(loop.start, env)
    for _ in range(trips):
        env = dict(run_block(loop.body, env, order=order).memory)
    if loop.loop_var is not None:
        if shadowed:
            env[loop.loop_var] = saved
        else:
            env.pop(loop.loop_var, None)
    return env
