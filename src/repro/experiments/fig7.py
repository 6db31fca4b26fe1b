"""Figure 7 — percentage of runs finding provably optimal schedules vs
block size.

The paper: "common block sizes are easily scheduled within a reasonable
compile time, and usually can be optimally scheduled within that time" —
the completion percentage sits at 100% for small blocks and dips only in
the large-block tail (the overall rate is Table 7's 98.83%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .report import format_table, to_csv
from .runner import BlockRecord, bucket_by_size


@dataclass(frozen=True)
class Fig7Result:
    records: List[BlockRecord]
    bucket: int = 4

    def series(self) -> List[Tuple[int, float, int]]:
        out = []
        for start, rs in bucket_by_size(self.records, self.bucket).items():
            pct = 100.0 * sum(r.completed for r in rs) / len(rs)
            out.append((start, pct, len(rs)))
        return out

    @property
    def overall_percentage(self) -> float:
        return 100.0 * sum(r.completed for r in self.records) / len(self.records)

    def render(self) -> str:
        rows = []
        for start, pct, count in self.series():
            bar = "#" * round(pct / 2)
            rows.append((f"{start}-{start + self.bucket - 1}", f"{pct:.1f}%", count, bar))
        table = format_table(
            ["block size", "optimal", "runs", ""],
            rows,
            title="Figure 7 — % provably optimal vs block size",
            align_right=False,
        )
        return (
            f"{table}\n"
            f"overall: {self.overall_percentage:.2f}% optimal "
            "(paper: 98.83%, dipping only beyond ~30 instructions)"
        )

    def csv(self) -> str:
        return to_csv(
            ["bucket_start", "percent_optimal", "runs"],
            [(s, p, c) for s, p, c in self.series()],
        )
