"""Figure 1 — schedules searched vs block size, complete runs only.

The paper plots the Ω-call count of every search that terminated on
condition [1] (provably optimal) against block size: a cloud that is
bounded by ~10^2..10^5 with no strong size trend, demonstrating that the
searched space depends on dependence/conflict structure rather than on
block size (section 2.3's closing observation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .report import format_scatter, format_table, to_csv
from .runner import BlockRecord, bucket_by_size, mean


@dataclass(frozen=True)
class Fig1Result:
    records: List[BlockRecord]

    @property
    def complete(self) -> List[BlockRecord]:
        return [r for r in self.records if r.completed]

    def points(self) -> List[Tuple[float, float]]:
        return [(r.size, r.omega_calls) for r in self.complete]

    def render(self) -> str:
        scatter = format_scatter(
            self.points(),
            x_label="instructions per block",
            y_label="omega calls (log10)",
            log_y=True,
            title=(
                f"Figure 1 — schedules searched vs block size "
                f"({len(self.complete):,} complete runs)"
            ),
        )
        buckets = bucket_by_size(self.complete, bucket=5)
        table = format_table(
            ["block size", "runs", "mean omega", "max omega"],
            [
                (
                    f"{start}-{start + 4}",
                    len(rs),
                    mean(r.omega_calls for r in rs),
                    max(r.omega_calls for r in rs),
                )
                for start, rs in buckets.items()
            ],
            title="per-size summary",
        )
        return f"{scatter}\n\n{table}"

    def csv(self) -> str:
        return to_csv(
            ["size", "omega_calls"],
            [(r.size, r.omega_calls) for r in self.complete],
        )
