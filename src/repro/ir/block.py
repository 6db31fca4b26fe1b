"""Basic blocks of tuple code.

A :class:`BasicBlock` is an ordered sequence of :class:`~repro.ir.tuples.IRTuple`
instructions with single-entry/single-exit semantics.  The order of the
tuples in the block is the *program order* produced by the front end;
schedulers permute this order subject to the dependence DAG.

Blocks validate their internal references eagerly: every ``RefOperand``
must point at an *earlier* tuple in program order (the linear notation
embeds a DAG, section 3.1), reference numbers must be unique, and Store
targets must name variables.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..record import Record, setslot
from .ops import Opcode
from .tuples import IRTuple, RefOperand, const_operand, ref_operand, var_operand


class BlockValidationError(ValueError):
    """Raised when a basic block's tuples are not internally consistent."""


class BasicBlock(Record):
    """An immutable basic block of tuple code.

    Parameters
    ----------
    tuples:
        The instructions in program order.
    name:
        Optional label, used only for diagnostics.
    """

    #: ``_index``: position by reference number, a dict only on blocks
    #: whose tuples are not numbered 1..n in order (elsewhere ``None``,
    #: and position is ``ident - 1``).
    __slots__ = ("tuples", "name", "_index")

    def __init__(self, tuples: Iterable[IRTuple], name: str = "block"):
        self._fill(tuples, name)
        self._validate()

    @classmethod
    def unchecked(cls, tuples: Iterable[IRTuple], name: str = "block") -> "BasicBlock":
        """A block over ``tuples`` without reference validation (a
        schedule's order, a window of a larger block)."""
        block = object.__new__(cls)
        block._fill(tuples, name)
        return block

    def _fill(self, tuples: Iterable[IRTuple], name: str) -> None:
        tuples = tuple(tuples)
        setslot(self, "tuples", tuples)
        setslot(self, "name", name)
        dense = all(t.ident == i for i, t in enumerate(tuples, 1))
        setslot(self, "_index", None if dense else {t.ident: i for i, t in enumerate(tuples)})

    def _position(self, ident: int) -> Optional[int]:
        if self._index is not None:
            return self._index.get(ident)
        return ident - 1 if ident in range(1, len(self.tuples) + 1) else None

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self._index is not None and len(self._index) != len(self.tuples):
            idents = self.idents
            duplicate = next(i for n, i in enumerate(idents) if i in idents[:n])
            raise BlockValidationError(f"duplicate tuple reference number {duplicate}")
        for pos, t in enumerate(self.tuples):
            for ref in t.value_refs:
                target_pos = self._position(ref)
                if target_pos is None:
                    raise BlockValidationError(
                        f"tuple {t.ident} references unknown tuple {ref}"
                    )
                if target_pos >= pos:
                    raise BlockValidationError(
                        f"tuple {t.ident} references tuple {ref} which does "
                        "not precede it in program order"
                    )
                target = self.tuples[target_pos]
                if not target.op.produces_value:
                    raise BlockValidationError(
                        f"tuple {t.ident} references tuple {ref} "
                        f"({target.op.value}) which produces no value"
                    )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[IRTuple]:
        return iter(self.tuples)

    def __getitem__(self, pos: int) -> IRTuple:
        return self.tuples[pos]

    def by_ident(self, ident: int) -> IRTuple:
        """Look a tuple up by its reference number."""
        pos = self._position(ident)
        if pos is None:
            raise KeyError(f"no tuple numbered {ident} in {self.name}")
        return self.tuples[pos]

    def position_of(self, ident: int) -> int:
        """Program-order position (0-based) of the tuple numbered ``ident``."""
        pos = self._position(ident)
        if pos is None:
            raise KeyError(ident)
        return pos

    def __contains__(self, ident: int) -> bool:
        return self._position(ident) is not None

    @property
    def idents(self) -> tuple[int, ...]:
        """Reference numbers in program order."""
        return tuple(t.ident for t in self.tuples)

    # ------------------------------------------------------------------
    # Variable views
    # ------------------------------------------------------------------
    @property
    def stored_variables(self) -> tuple[str, ...]:
        """Variables written by Store tuples, in first-occurrence order."""
        return tuple(dict.fromkeys(t.variable for t in self.tuples if t.op is Opcode.STORE))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(t.variable for t in self.tuples if t.variable is not None))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def renumbered(self) -> "BasicBlock":
        """A new block with tuples renumbered densely 1..n in program order.

        Operand references are rewritten to match.  Used by optimization
        passes after deleting tuples.
        """
        mapping = {t.ident: pos + 1 for pos, t in enumerate(self.tuples)}

        def remap(o):
            return ref_operand(mapping[o.ref]) if isinstance(o, RefOperand) else o
        return BasicBlock((IRTuple(mapping[t.ident], t.op, remap(t.alpha), remap(t.beta))
                           for t in self.tuples), self.name)

    def without(self, idents: Iterable[int]) -> "BasicBlock":
        """A new block with the given tuples removed (references unchecked
        until construction, which will reject dangling uses)."""
        doomed = set(idents)
        return BasicBlock(
            (t for t in self.tuples if t.ident not in doomed), self.name
        )

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return "\n".join(str(t) for t in self.tuples)


class BlockBuilder:
    """Incremental construction of a basic block with automatic numbering.

    The front end and the synthetic generator both emit tuples one at a
    time; the builder hands out reference numbers and performs the final
    validation once.
    """

    def __init__(self, name: str = "block"):
        self._tuples: List[IRTuple] = []
        self._name = name

    @property
    def next_ident(self) -> int:
        return len(self._tuples) + 1

    def emit(self, op: Opcode, alpha=None, beta=None) -> int:
        """Append a tuple; returns its reference number."""
        ident = self.next_ident
        self._tuples.append(IRTuple(ident, op, alpha, beta))
        return ident

    def emit_const(self, value: int) -> int:
        return self.emit(Opcode.CONST, const_operand(value))

    def emit_load(self, var: str) -> int:
        return self.emit(Opcode.LOAD, var_operand(var))

    def emit_store(self, var: str, ref: int) -> int:
        return self.emit(Opcode.STORE, var_operand(var), ref_operand(ref))

    def emit_binary(self, op: Opcode, a: int, b: int) -> int:
        return self.emit(op, ref_operand(a), ref_operand(b))

    def emit_unary(self, op: Opcode, a: int) -> int:
        return self.emit(op, ref_operand(a))

    def build(self) -> BasicBlock:
        return BasicBlock(self._tuples, self._name)

    def __len__(self) -> int:
        return len(self._tuples)
