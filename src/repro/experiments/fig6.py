"""Figure 6 — average scheduling runtime vs block size.

The paper shows per-block wall-clock (Sun 3/50) staying negligible up to
~20-instruction blocks and climbing only for the rare large blocks whose
searches hit the curtail point.  Absolute 1990 numbers are meaningless on
modern hardware; the reproduced shape is the flat-then-rising curve and
the throughput claim ("schedules about 100 typical blocks per second" —
section 6), which this experiment reports directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .report import format_table, to_csv
from .runner import BlockRecord, bucket_by_size, mean


@dataclass(frozen=True)
class Fig6Result:
    records: List[BlockRecord]
    bucket: int = 4

    def series(self) -> List[Tuple[float, float, int]]:
        out = []
        for start, rs in bucket_by_size(self.records, self.bucket).items():
            out.append(
                (start + self.bucket / 2, mean(r.elapsed_seconds for r in rs), len(rs))
            )
        return out

    @property
    def blocks_per_second(self) -> float:
        total = sum(r.elapsed_seconds for r in self.records)
        return len(self.records) / total if total else float("inf")

    def render(self) -> str:
        table = format_table(
            ["block size", "mean seconds", "runs"],
            [(f"{x - self.bucket/2:.0f}+", f"{secs:.4f}", count)
             for x, secs, count in self.series()],
            title="Figure 6 — average runtime vs block size",
        )
        return (
            f"{table}\n"
            f"throughput: {self.blocks_per_second:,.0f} blocks/second "
            "(paper, Sun 3/50: ~100 blocks/second; ~0.1 s/complete search)"
        )

    def csv(self) -> str:
        return to_csv(
            ["size", "elapsed_seconds", "completed"],
            [(r.size, r.elapsed_seconds, int(r.completed)) for r in self.records],
        )
