"""Compare two sets of benchmark runs against BENCHMARK.json.

    python3 perf/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

Each file is an ``--out`` record of ``perf/run.py``: one workload's
record, or the list written when every workload runs.  There is one row
per (workload, metric) that both sides report, untraced and traced runs
compared apart, with each side's median
and quartiles, the ratio B/A with its base, and the share of pairs B
wins, ties counting for neither.  Runs pair up by seed when both sides
ran the same seeds (alternate the sides when measuring, so each pair
shares the host's state), by order when the counts match, and every A
with every B otherwise.  Verdicts:

* ``unresolved`` — an end-to-end metric whose quartile spread (quartile
  distance over median) on either side is wider than its bound, unless
  every B run beats every A run;
* ``worse`` — an end-to-end metric whose B median is worse than A's by
  more than its bound; or a per-layer metric (no bound) that loses at
  least nine pairs in ten by more than A's quartile distance;
* ``improved`` — B wins at least nine pairs in ten and the medians
  differ by more than A's quartile distance (the pair rule, which needs
  at least ``MIN_RUNS`` runs a side);
* ``unchanged`` — anything else.

The exit status is 1 when an end-to-end row is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bootstrap import ROOT

#: Share of pairs a side must win for a change to count.
WIN_SHARE = 0.9

#: Runs each side needs before the pair rule may call a change.
MIN_RUNS = 5

Runs = List[Tuple[Any, float]]  # (seed, value) in file order


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _better(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def pairs(a: Runs, b: Runs) -> List[Tuple[float, float]]:
    """Pair by seed, else by order, else every A with every B."""
    seeds_a, seeds_b = [s for s, _ in a], [s for s, _ in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = dict(b)
        return [(x, by_seed[s]) for s, x in a]
    if len(a) == len(b):
        return [(x, y) for (_, x), (_, y) in zip(a, b)]
    return [(x, y) for _, x in a for _, y in b]


def verdict(a: Runs, b: Runs, better: str, bound: Optional[float] = None
            ) -> Dict[str, Any]:
    """The comparison of one (workload, metric); ``bound`` is None for a
    per-layer metric."""
    va, vb = [v for _, v in a], [v for _, v in b]
    a_q, b_q = quartiles(va), quartiles(vb)
    matched = pairs(a, b)
    wins = sum(_better(y, x, better) for x, y in matched) / len(matched)
    losses = sum(_better(x, y, better) for x, y in matched) / len(matched)
    base = a_q[1]
    moved = min(len(va), len(vb)) >= MIN_RUNS and abs(b_q[1] - base) > a_q[2] - a_q[0]
    change = (b_q[1] - base) / abs(base) if base else 0.0
    worse_by = change if better == "lower" else -change
    if bound is not None and (spread(va) > bound or spread(vb) > bound) and (
        not all(_better(y, x, better) for x in va for y in vb)
    ):
        result = "unresolved"
    elif bound is not None and worse_by > bound:
        result = "worse"
    elif bound is None and losses >= WIN_SHARE and moved:
        result = "worse"
    elif wins >= WIN_SHARE and moved and _better(b_q[1], base, better):
        result = "improved"
    else:
        result = "unchanged"
    return {"verdict": result, "a": a_q, "b": b_q, "ratio": b_q[1] / base if base else None,
            "wins": wins, "runs": (len(va), len(vb)), "bound": bound}


def load_records(paths: Sequence[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        records += data if isinstance(data, list) else [data]
    return records


def runs_by_key(records: Sequence[Dict[str, Any]]) -> Dict[Tuple[str, str], Runs]:
    out: Dict[Tuple[str, str], Runs] = defaultdict(list)
    for r in records:
        for name, m in r["metrics"].items():
            out[(r["workload"], name)].append((r.get("seed"), m["value"]))
    return out


def compare(a_paths: Sequence[str], b_paths: Sequence[str],
            bench: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
    """One row per (workload, declared metric) that both sides report,
    untraced runs and traced runs compared apart."""
    if bench is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    a_records, b_records = load_records(a_paths), load_records(b_paths)
    specs = bench["end_to_end"] + bench["per_layer"]
    rows = []
    for traced in (False, True):
        a = runs_by_key([r for r in a_records if bool(r.get("trace")) == traced])
        b = runs_by_key([r for r in b_records if bool(r.get("trace")) == traced])
        for workload in sorted({w for w, _ in a} & {w for w, _ in b}):
            for spec in specs:
                key = (workload, spec["name"])
                if key in a and key in b:
                    row = verdict(a[key], b[key], spec["better"], spec.get("bound"))
                    row.update(workload=workload, metric=spec["name"], unit=spec["unit"],
                               traced=traced)
                    rows.append(row)
    return rows


def _quartiles(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<11} {'metric':<32} {'A median [q1, q3]':<30} "
             f"{'B median [q1, q3]':<30} {'B/A (base: A median)':<30} B wins  verdict"]
    for r in rows:
        ratio = (f"{r['ratio']:.4f} (base {r['a'][1]:.4g} {r['unit']})"
                 if r["ratio"] is not None else "-")
        bound = f"bound {r['bound']:g}" if r["bound"] is not None else "no bound"
        metric = r["metric"] + (" (traced)" if r["traced"] else "")
        lines.append(
            f"{r['workload']:<11} {metric:<32} {_quartiles(r['a']):<30} "
            f"{_quartiles(r['b']):<30} {ratio:<30} {r['wins']:6.0%}  {r['verdict']} "
            f"({bound}, runs {r['runs'][0]}/{r['runs'][1]})"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", required=True, help="result files of side A")
    parser.add_argument("--b", nargs="+", required=True, help="result files of side B")
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b)
    if not rows:
        print("no metric appears on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    return int(any(r["verdict"] in ("worse", "unresolved") and r["bound"] is not None
                   for r in rows))


if __name__ == "__main__":
    sys.exit(main())
