"""Figure 5 — distribution of sample block sizes.

The paper's population is deliberately *larger*-blocked than real
programs: "Studies have shown that on average a basic block in real
programs has less than ten instructions, however, our average sample
block had 20.6; this yields overly conservative results ... Though
programs with basic blocks that have more than forty instructions are
very rare, we have even included such blocks."

The shape to match: right-skewed histogram, mean ≈ 20.6, thin tail past
40.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .report import format_histogram, to_csv
from .runner import BlockRecord, mean

BUCKET = 5


@dataclass(frozen=True)
class Fig5Result:
    records: List[BlockRecord]

    def histogram(self) -> List[Tuple[int, int]]:
        counts: dict[int, int] = {}
        for r in self.records:
            start = (r.size // BUCKET) * BUCKET
            counts[start] = counts.get(start, 0) + 1
        return sorted(counts.items())

    def render(self) -> str:
        sizes = [r.size for r in self.records]
        body = format_histogram(
            self.histogram(),
            BUCKET,
            title=(
                f"Figure 5 — distribution of sample block sizes "
                f"({len(sizes):,} blocks)"
            ),
        )
        over_40 = 100.0 * sum(s > 40 for s in sizes) / len(sizes)
        return (
            f"{body}\n"
            f"mean {mean(sizes):.1f} (paper: 20.6), "
            f"{over_40:.1f}% of blocks exceed 40 instructions (paper: 'very rare')"
        )

    def csv(self) -> str:
        return to_csv(["bucket_start", "count"], self.histogram())
