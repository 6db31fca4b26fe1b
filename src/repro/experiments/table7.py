"""Table 7 — statistics for scheduling the synthetic block population.

Paper (16,000 blocks, Sun 3/50)::

                              Complete    Truncated     Totals
    Number of Runs              15,812          188     16,000
    Percentage of Runs          98.83%        1.17%
    Avg. Instructions/Block      20.50        32.28
    Avg. Initial NOPs             9.50        14.34
    Avg. Final NOPs               0.67         4.03
    Avg. Omega Calls             427.4       54,150
    Avg. Search Time            ~0.1 s        ~15 s

Reproduction: same columns over a (scaled) population; the shape to match
is  (a) ~99% of searches complete, (b) truncated blocks are markedly
larger, (c) final NOPs collapse to below ~1 for complete runs while
initial NOPs sit near half the block size, (d) complete searches cost
order-10^2..10^3 Ω calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .report import comparison_note, format_table, to_csv
from .runner import BlockRecord, mean

#: The paper's Table 7, for side-by-side rendering.
PAPER_ROWS = {
    "runs": (15_812, 188, 16_000),
    "percentage": (98.83, 1.17, 100.0),
    "avg_instructions": (20.50, 32.28, None),
    "avg_initial_nops": (9.50, 14.34, None),
    "avg_final_nops": (0.67, 4.03, None),
    "avg_omega_calls": (427.4, 54_150.0, None),
    "avg_search_ms": (100.0, 15_000.0, None),
}


@dataclass(frozen=True)
class Table7Result:
    records: List[BlockRecord]
    curtail: int

    # ------------------------------------------------------------------
    @property
    def complete(self) -> List[BlockRecord]:
        return [r for r in self.records if r.completed]

    @property
    def truncated(self) -> List[BlockRecord]:
        return [r for r in self.records if not r.completed]

    def column(self, records: List[BlockRecord]) -> dict:
        return {
            "runs": len(records),
            "percentage": 100.0 * len(records) / max(1, len(self.records)),
            "avg_instructions": mean(r.size for r in records),
            "avg_initial_nops": mean(r.initial_nops for r in records),
            "avg_final_nops": mean(r.final_nops for r in records),
            "avg_omega_calls": mean(r.omega_calls for r in records),
            # In ms: a complete search takes about a millisecond, which
            # the table's two decimals would round away in seconds.
            "avg_search_ms": 1000.0 * mean(r.elapsed_seconds for r in records),
        }

    def rows(self) -> List[Tuple[object, ...]]:
        complete = self.column(self.complete)
        truncated = self.column(self.truncated)
        labels = {
            "runs": "Number of Runs",
            "percentage": "Percentage of Runs",
            "avg_instructions": "Avg. Instructions/Block",
            "avg_initial_nops": "Avg. Initial NOPs",
            "avg_final_nops": "Avg. Final NOPs",
            "avg_omega_calls": "Avg. Omega Calls",
            "avg_search_ms": "Avg. Search Time (ms)",
        }
        out: List[Tuple[object, ...]] = []
        for key, label in labels.items():
            paper_c, paper_t, _ = PAPER_ROWS[key]
            out.append(
                (label, complete[key], truncated[key], paper_c, paper_t)
            )
        return out

    def render(self) -> str:
        table = format_table(
            [
                "Statistic",
                "Complete (measured)",
                "Truncated (measured)",
                "Complete (paper)",
                "Truncated (paper)",
            ],
            self.rows(),
            title=(
                f"Table 7 — scheduling {len(self.records):,} blocks "
                f"(lambda = {self.curtail:,})"
            ),
        )
        note = comparison_note(
            "98.83% complete; final NOPs 0.67 vs initial 9.50; 427 omega calls avg",
            self.summary_line(),
        )
        return f"{table}\n{note}"

    def summary_line(self) -> str:
        c = self.column(self.complete)
        return (
            f"{c['percentage']:.2f}% complete; final NOPs "
            f"{c['avg_final_nops']:.2f} vs initial {c['avg_initial_nops']:.2f}; "
            f"{c['avg_omega_calls']:.0f} omega calls avg"
        )

    def csv(self) -> str:
        return to_csv(
            ["statistic", "complete", "truncated", "paper_complete", "paper_truncated"],
            self.rows(),
        )
