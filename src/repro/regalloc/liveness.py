"""Live ranges and register pressure over a (scheduled) tuple order.

Values are the results of value-producing tuples.  In a single basic
block a value is live from the position where it is defined to the
position of its last use; the *register pressure* at a position is the
number of values defined at or before it whose last use lies strictly
after it, plus the value defined there.

``max_live`` over the order is exactly the number of registers a
spill-free allocation needs (section 3.1: spill code is created up front
precisely so that post-scheduling allocation never introduces new
spills).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..record import Record, setslot


class LiveRange(Record):
    """Half-open-ended live range of one value, in schedule positions."""

    __slots__ = ("ident", "start", "end")

    def __init__(self, ident: int, start: int, end: int):
        setslot(self, "ident", ident)
        setslot(self, "start", start)  # position where the value is defined
        setslot(self, "end", end)  # position of the last use (== start when unused)

    @property
    def is_dead(self) -> bool:
        """True when nothing ever consumes the value."""
        return self.end == self.start

    def overlaps(self, other: "LiveRange") -> bool:
        """Whether the two values need distinct registers."""
        if self.is_dead or other.is_dead:
            return False
        return self.start < other.end and other.start < self.end


def live_ranges(
    block: BasicBlock, order: Optional[Sequence[int]] = None
) -> Dict[int, LiveRange]:
    """Live range of every value-producing tuple under ``order``."""
    if order is None:
        order = block.idents
    position = {ident: pos for pos, ident in enumerate(order)}
    last_use: Dict[int, int] = {}
    for ident in order:
        t = block.by_ident(ident)
        for ref in t.value_refs:
            pos = position[ident]
            if last_use.get(ref, -1) < pos:
                last_use[ref] = pos
    out: Dict[int, LiveRange] = {}
    for ident in order:
        t = block.by_ident(ident)
        if not t.op.produces_value:
            continue
        start = position[ident]
        out[ident] = LiveRange(ident, start, last_use.get(ident, start))
    return out


def pressure_profile(
    block: BasicBlock, order: Optional[Sequence[int]] = None
) -> Tuple[int, ...]:
    """Register pressure after each schedule position.

    ``profile[p]`` counts values live *across* the boundary following
    position ``p`` (defined at or before, last-used after), plus values
    defined at ``p`` itself even if never used (they still occupy the
    destination register for the instant of definition).
    """
    if order is None:
        order = block.idents
    ranges = live_ranges(block, order)
    profile: List[int] = []
    for pos in range(len(order)):
        count = 0
        for r in ranges.values():
            if r.start == pos or (r.start <= pos < r.end):
                count += 1
        profile.append(count)
    return tuple(profile)


def max_live(block: BasicBlock, order: Optional[Sequence[int]] = None) -> int:
    """The minimum number of registers for a spill-free allocation."""
    profile = pressure_profile(block, order)
    return max(profile, default=0)
