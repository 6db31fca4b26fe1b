"""Dependence DAG over a basic block.

The pipeline scheduler's input is "an initial (list) schedule and the DAG
it embeds" (section 4.2).  This module derives that DAG from a
:class:`~repro.ir.block.BasicBlock` and provides the quantities the search
algorithm needs:

* ``rho(z)`` — Definition 2: the immediate predecessors of ``z``;
* ``earliest(z)`` / ``latest(z)`` — Definitions 6 and 7: bounds on the
  schedule position of ``z`` implied by the dependence structure;
* transitive ancestor/descendant sets, heights and depths (used by the
  list scheduler's priorities).

Counting and enumerating the legal schedules (topological orders), for
the "Pruning Illegal Calls" column of Table 1, lives with the other
exhaustive baselines in :mod:`repro.sched.exhaustive`.

Dependence kinds
----------------
Three kinds of edges are recorded, all derived from program order:

* **flow** — a tuple consumes the *result* of another (``RefOperand``),
  or a ``Load`` of a variable follows a ``Store`` to it;
* **anti** — a ``Store`` follows a ``Load`` of the same variable;
* **output** — a ``Store`` follows a ``Store`` to the same variable.

The paper's tuple form makes variables "unambiguous and mutually
exclusive" (section 3.1), and within a block its DAG construction reuses
computed values, so in front-end output the anti/output edges are almost
always shadowed by flow edges; they are kept because schedulers must stay
correct on hand-written or randomly generated tuple code too.

The NOP-insertion algorithm applies the producer-pipeline latency
uniformly to every edge in ``rho`` (section 4.2.2 step [6]); see
``repro.sched.nop_insertion`` for the timing consequences.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..record import Record, setslot
from .block import BasicBlock
from .ops import Opcode


#: Result of legal-schedule counting
#: (:func:`repro.sched.exhaustive.count_legal_orders`) when the cap was hit.
COUNT_CAPPED = -1


class DependenceEdge(Record):
    """A dependence of ``consumer`` on ``producer`` (by reference number)."""

    __slots__ = ("producer", "consumer", "kind")

    def __init__(self, producer: int, consumer: int, kind: str):
        setslot(self, "producer", producer)
        setslot(self, "consumer", consumer)
        setslot(self, "kind", kind)  # "flow" | "anti" | "output"

    def __str__(self) -> str:
        return f"{self.producer} -{self.kind}-> {self.consumer}"


class DependenceDAG:
    """The dependence DAG embedded in a basic block's program order.

    ``extra_edges`` adds ordering constraints beyond the memory/value
    dependences derived from the tuples — e.g. the artificial anti/output
    dependences induced by register reuse when modelling a *postpass*
    scheduler (``repro.postpass``).  Every extra edge must run forward in
    program order (the block's order must remain a legal schedule).
    """

    def __init__(
        self,
        block: BasicBlock,
        extra_edges: Optional[Iterable[DependenceEdge]] = None,
    ):
        self.block = block
        self._preds: Dict[int, FrozenSet[int]] = {}
        self._succs: Dict[int, FrozenSet[int]] = {}
        self._edges: List[DependenceEdge] = []
        self._extra = tuple(extra_edges) if extra_edges else ()
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        preds: Dict[int, set[int]] = {t.ident: set() for t in self.block}
        succs: Dict[int, set[int]] = {t.ident: set() for t in self.block}
        edges: List[DependenceEdge] = []
        last_store: Dict[str, int] = {}
        loads_since_store: Dict[str, List[int]] = {}

        def link(producer: int, consumer: int, kind: str) -> None:
            if producer == consumer:
                return
            if consumer not in succs[producer]:
                edges.append(DependenceEdge(producer, consumer, kind))
            preds[consumer].add(producer)
            succs[producer].add(consumer)

        for t in self.block:
            for ref in t.value_refs:
                link(ref, t.ident, "flow")
            var = t.variable
            if var is None:
                continue
            if t.op is Opcode.LOAD:
                if var in last_store:
                    link(last_store[var], t.ident, "flow")
                loads_since_store.setdefault(var, []).append(t.ident)
            elif t.op is Opcode.STORE:
                if var in last_store:
                    link(last_store[var], t.ident, "output")
                for load_ident in loads_since_store.get(var, ()):
                    link(load_ident, t.ident, "anti")
                last_store[var] = t.ident
                loads_since_store[var] = []

        for edge in self._extra:
            if edge.producer not in preds or edge.consumer not in preds:
                raise ValueError(
                    f"extra edge {edge} references tuples outside the block"
                )
            if self.block.position_of(edge.producer) >= self.block.position_of(
                edge.consumer
            ):
                raise ValueError(
                    f"extra edge {edge} runs backward in program order"
                )
            link(edge.producer, edge.consumer, edge.kind)

        self._preds = {k: frozenset(v) for k, v in preds.items()}
        self._succs = {k: frozenset(v) for k, v in succs.items()}
        self._edges = edges

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.block)

    @property
    def idents(self) -> Tuple[int, ...]:
        return self.block.idents

    @property
    def edges(self) -> Tuple[DependenceEdge, ...]:
        return tuple(self._edges)

    def rho(self, ident: int) -> FrozenSet[int]:
        """Definition 2 — the immediate predecessors of tuple ``ident``."""
        return self._preds[ident]

    def successors(self, ident: int) -> FrozenSet[int]:
        return self._succs[ident]

    @cached_property
    def roots(self) -> Tuple[int, ...]:
        """Tuples with no predecessors, in program order."""
        return tuple(i for i in self.idents if not self._preds[i])

    @cached_property
    def sinks(self) -> Tuple[int, ...]:
        """Tuples with no successors, in program order."""
        return tuple(i for i in self.idents if not self._succs[i])

    # ------------------------------------------------------------------
    # Transitive structure
    # ------------------------------------------------------------------
    @cached_property
    def ancestors(self) -> Dict[int, FrozenSet[int]]:
        """Transitive predecessors of each tuple."""
        out: Dict[int, FrozenSet[int]] = {}
        # Program order is a topological order of the DAG by construction.
        for t in self.block:
            acc: set[int] = set()
            for p in self._preds[t.ident]:
                acc.add(p)
                acc.update(out[p])
            out[t.ident] = frozenset(acc)
        return out

    @cached_property
    def descendants(self) -> Dict[int, FrozenSet[int]]:
        """Transitive successors of each tuple."""
        out: Dict[int, FrozenSet[int]] = {}
        for t in reversed(self.block.tuples):
            acc: set[int] = set()
            for s in self._succs[t.ident]:
                acc.add(s)
                acc.update(out[s])
            out[t.ident] = frozenset(acc)
        return out

    def earliest(self, ident: int) -> int:
        """Definition 6 — the minimum number of instructions which must
        execute before ``ident``: the size of the slice rooted at it."""
        return len(self.ancestors[ident])

    def latest(self, ident: int) -> int:
        """Definition 7 — the maximum number of instructions which could
        execute before ``ident``: everything except itself and the
        instructions that transitively depend on it."""
        return len(self.block) - 1 - len(self.descendants[ident])

    @cached_property
    def heights(self) -> Dict[int, int]:
        """Longest path (in edges) from each tuple to any sink.

        The machine-independent priority used by the list scheduler: a
        tuple far above the sinks has many dependents waiting on it, so
        issuing it early maximizes producer-to-consumer distances.
        """
        out: Dict[int, int] = {}
        for t in reversed(self.block.tuples):
            succ = self._succs[t.ident]
            out[t.ident] = 0 if not succ else 1 + max(out[s] for s in succ)
        return out

    @cached_property
    def depths(self) -> Dict[int, int]:
        """Longest path (in edges) from any root to each tuple."""
        out: Dict[int, int] = {}
        for t in self.block:
            pred = self._preds[t.ident]
            out[t.ident] = 0 if not pred else 1 + max(out[p] for p in pred)
        return out

    @cached_property
    def critical_path_length(self) -> int:
        """Longest dependence chain in the block, in instructions."""
        if not len(self.block):
            return 0
        return 1 + max(self.heights.values())

    # ------------------------------------------------------------------
    # Legality of schedules
    # ------------------------------------------------------------------
    def is_legal_order(self, order: Sequence[int]) -> bool:
        """True when ``order`` is a permutation of the block's tuples that
        respects every dependence edge."""
        if sorted(order) != sorted(self.idents):
            return False
        position = {ident: pos for pos, ident in enumerate(order)}
        return all(
            position[p] < position[t]
            for t in self.idents
            for p in self._preds[t]
        )

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        lines = [f"DAG({self.block.name}, {len(self)} tuples)"]
        lines += [f"  {e}" for e in self._edges]
        return "\n".join(lines)
