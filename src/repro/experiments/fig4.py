"""Figure 4 — initial and final NOPs vs block size.

The paper's headline picture: *"the initial number of NOPs grow linearly
with the number of instructions, but the final number of NOPs remains
nearly constant."*  Initial is the code as emitted by the front end
(program order — on-demand loading leaves a dependence stall behind most
loads and multiplies); final is the optimal schedule's count.  We plot
the list-schedule seed as a third series for reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .report import format_series, to_csv
from .runner import BlockRecord, bucket_by_size, mean


@dataclass(frozen=True)
class Fig4Result:
    records: List[BlockRecord]
    bucket: int = 4

    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        buckets = bucket_by_size(self.records, self.bucket)
        initial = []
        seeded = []
        final = []
        for start, rs in buckets.items():
            x = start + self.bucket / 2
            initial.append((x, mean(r.initial_nops for r in rs)))
            seeded.append((x, mean(r.seed_nops for r in rs)))
            final.append((x, mean(r.final_nops for r in rs)))
        return {
            "initial NOPs": initial,
            "list-schedule NOPs": seeded,
            "final NOPs": final,
        }

    def linear_fit(self) -> Tuple[float, float]:
        """Least-squares slope/intercept of initial NOPs vs size."""
        xs = [float(r.size) for r in self.records]
        ys = [float(r.initial_nops) for r in self.records]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx if sxx else 0.0
        return slope, my - slope * mx

    def render(self) -> str:
        slope, _ = self.linear_fit()
        final_overall = mean(r.final_nops for r in self.records)
        body = format_series(
            self.series(),
            x_label="block size",
            title="Figure 4 — initial and final NOPs vs block size (bucket means)",
        )
        return (
            f"{body}\n"
            f"initial NOPs grow ~{slope:.2f} per instruction (paper: linear, "
            f"~0.46); final NOPs average {final_overall:.2f} across all sizes "
            "(paper: 'nearly constant', 0.67 overall)"
        )

    def csv(self) -> str:
        return to_csv(
            ["size", "initial_nops", "seed_nops", "final_nops"],
            [
                (r.size, r.initial_nops, r.seed_nops, r.final_nops)
                for r in self.records
            ],
        )
