"""Command-line entry point: ``repro experiments``.

Regenerates the paper's tables and figures (plus the ablations and
extensions) and prints them as text; ``--out DIR`` also writes each
table to ``DIR/<name>.txt`` and ``DIR/csv/<name>.csv``.  ``results/`` is
written this way (see EXPERIMENTS.md).

Examples::

    repro experiments all
    repro experiments table7 --blocks 2000
    repro experiments all --engine native --out results
    repro experiments table7 --workers 8 --stats-json stats.json
    REPRO_SCALE=1 repro experiments all --workers 0   # full run, all cores

Fault tolerance (see docs/architecture.md, "Fault tolerance")::

    repro experiments table7 --journal run.journal     # checkpoint as you go
    repro experiments table7 --resume run.journal      # continue after a crash
    repro experiments table7 --run-timeout 600         # degrade, don't overrun
    repro experiments table7 --workers 4 --chaos crash=0.1,hang=0.05,seed=7

``extension-x1`` exits 1 when its joint search loses to a pinned
policy on any block.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from ..ioutil import atomic_write_text
from ..resilience.budget import BudgetManager
from ..resilience.faults import FaultPlan
from ..resilience.journal import Journal, JournalError
from ..sched.search import SearchOptions
from ..telemetry import Telemetry
from . import (
    ablation,
    extension,
    fig1,
    fig4,
    fig5,
    fig6,
    fig7,
    kernels,
    loops,
    machines,
    prepass,
    stalls,
    table1,
    table7,
)
from .parallel import run_population_parallel
from .runner import population_size

#: Experiments that share the single population run.
POPULATION_EXPERIMENTS = ("table7", "fig1", "fig4", "fig5", "fig6", "fig7")
ALL_EXPERIMENTS = ("table1",) + POPULATION_EXPERIMENTS + (
    "ablation-a1",
    "ablation-a2",
    "ablation-a3",
    "kernels",
    "loops",
    "stalls",
    "machines",
    "extension-x1",
    "extension-x2",
)


def _write_result(directory: str, name: str, text: str, csv: str) -> None:
    csv_dir = os.path.join(directory, "csv")
    os.makedirs(csv_dir, exist_ok=True)
    atomic_write_text(os.path.join(directory, f"{name}.txt"), text + "\n")
    atomic_write_text(os.path.join(csv_dir, f"{name}.csv"), csv)


def build_parser(prog: str = "repro-experiments") -> argparse.ArgumentParser:
    from ..cliutil import common_flags

    parser = argparse.ArgumentParser(
        prog=prog,
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[
            common_flags(
                (
                    "curtail",
                    "seed",
                    "engine",
                    "verify",
                    "stats-json",
                    "block-timeout",
                    "run-timeout",
                    "run-omega-budget",
                ),
                overrides={
                    "stats-json": dict(
                        help="write aggregated search telemetry (prune "
                        "counters, phase times) to PATH as JSON"
                    ),
                },
            )
        ],
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=f"which experiments to run: all, {', '.join(ALL_EXPERIMENTS)}",
    )
    parser.add_argument(
        "--blocks",
        type=int,
        default=None,
        help="population size for the table7/figure experiments "
        "(default: 16000 * REPRO_SCALE)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each table to DIR/<name>.txt and DIR/csv/<name>.csv",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="schedule the population across N worker processes "
        "(0 = all cores; default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="checkpoint the population run: append each completed block "
        "record to PATH (fsync'd) so an interrupted run can --resume",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume the population run from a checkpoint journal: "
        "journaled blocks are merged back, only unfinished ones are "
        "scheduled; new records keep appending to PATH",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="canonical-form result store (repro.service): population "
        "blocks whose problem was already solved — this run, an earlier "
        "run, or the scheduling daemon sharing DIR — are served from the "
        "cache, bit-for-bit identical to a cold search",
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection for the parallel engine, e.g. "
        "'crash=0.1,hang=0.05,seed=7' (testing the supervisor; see "
        "repro.resilience.faults)",
    )
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "repro-experiments") -> int:
    parser = build_parser(prog)
    args = parser.parse_args(argv)

    wanted = list(args.experiments)
    if "all" in wanted:
        wanted = list(ALL_EXPERIMENTS)
    unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    if args.stats_json:
        # Fail now, not after a possibly hours-long population run.
        try:
            with open(args.stats_json, "a"):
                pass
        except OSError as exc:
            parser.error(f"cannot write --stats-json {args.stats_json}: {exc}")

    if args.workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "1") or "1")
    elif args.workers == 0:
        workers = os.cpu_count() or 1
    else:
        workers = args.workers
    if workers < 1:
        parser.error("--workers must be >= 0")

    if args.journal and args.resume and args.journal != args.resume:
        parser.error("--journal and --resume must name the same file")
    fault_plan = None
    if args.chaos:
        try:
            fault_plan = FaultPlan.parse(args.chaos)
        except ValueError as exc:
            parser.error(str(exc))
    budget = None
    if args.run_timeout is not None or args.run_omega_budget is not None:
        try:
            budget = BudgetManager(
                run_wall_clock=args.run_timeout,
                run_omega_cap=args.run_omega_budget,
            )
        except ValueError as exc:
            parser.error(str(exc))
    cache = None
    if args.cache:
        from ..service.cache import ScheduleCache

        cache = ScheduleCache(path=args.cache)

    telemetry = Telemetry()
    results = {}
    records = None
    journal = None
    journal_path = args.resume or args.journal

    def write_stats(partial: bool = False) -> None:
        if not args.stats_json:
            return
        telemetry.write_json(
            args.stats_json,
            meta={
                "experiments": wanted,
                "blocks": len(records) if records is not None else 0,
                "curtail": args.curtail,
                "engine": args.engine,
                "master_seed": args.seed,
                "workers": workers,
                "block_timeout": args.block_timeout,
                "verify": args.verify,
                "partial": partial,
            },
        )
        state = "partial telemetry" if partial else "telemetry"
        print(f"[stats] {state} written to {args.stats_json}")

    try:
        if any(w in POPULATION_EXPERIMENTS for w in wanted):
            n_blocks = (
                args.blocks if args.blocks is not None else population_size()
            )
            done = None
            if journal_path:
                # The fingerprint pins everything that shapes the records;
                # a journal from differently-parameterized runs is rejected.
                config = {
                    "blocks": n_blocks,
                    "curtail": args.curtail,
                    "master_seed": args.seed,
                    "engine": args.engine,
                    "verify": args.verify,
                    "block_timeout": args.block_timeout,
                }
                if args.resume:
                    journal, done = Journal.resume(journal_path, config)
                    if done:
                        print(
                            f"[population] resuming: {len(done):,} of "
                            f"{n_blocks:,} blocks recovered from "
                            f"{journal_path}"
                        )
                else:
                    journal = Journal.create(journal_path, config)
            verified = ", verified" if args.verify else ""
            print(
                f"[population] scheduling {n_blocks:,} synthetic blocks "
                f"(lambda={args.curtail:,}, seed={args.seed}, "
                f"workers={workers}{verified}) ...",
                flush=True,
            )
            start = time.perf_counter()
            with telemetry.phase("population"):
                records = run_population_parallel(
                    n_blocks,
                    args.curtail,
                    args.seed,
                    options=SearchOptions(
                        curtail=args.curtail, engine=args.engine
                    ),
                    workers=workers,
                    block_timeout=args.block_timeout,
                    telemetry=telemetry,
                    verify=args.verify,
                    done=done,
                    on_records=None if journal is None else journal.append,
                    budget=budget,
                    fault_plan=fault_plan,
                    cache=cache,
                )
            print(f"[population] done in {time.perf_counter() - start:.1f}s", end="")
            if cache is not None:
                hits = telemetry.counters.get("service.cache.hits", 0)
                misses = telemetry.counters.get("service.cache.misses", 0)
                bypass = telemetry.counters.get("service.cache.bypass", 0)
                print(
                    f" (cache: {hits:,} hits, {misses:,} misses, "
                    f"{bypass:,} bypassed)",
                    end="",
                )
            print("\n")
    except JournalError as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The journal is fsync'd per chunk, so everything finished is
        # already durable; flush partial stats and report how to resume.
        if journal is not None:
            journal.close()
            print(
                f"\nrepro-experiments: interrupted — {journal.appended:,} "
                f"block records journaled to {journal.path}; rerun with "
                f"--resume {journal.path} to continue",
                file=sys.stderr,
            )
        else:
            print(
                "\nrepro-experiments: interrupted (no --journal; "
                "population progress lost)",
                file=sys.stderr,
            )
        write_stats(partial=True)
        return 130
    finally:
        if journal is not None:
            journal.close()

    try:
        _render_experiments(wanted, args, records, results)
    except KeyboardInterrupt:
        print(
            "\nrepro-experiments: interrupted while rendering experiments",
            file=sys.stderr,
        )
        write_stats(partial=True)
        return 130

    write_stats()
    if journal is not None:
        print(f"[journal] {journal.appended:,} block records in {journal.path}")
    x1 = results.get("extension-x1")
    if x1 is not None and not x1.joint_never_loses:
        print(
            "repro-experiments: X1's joint search lost to a pinned policy",
            file=sys.stderr,
        )
        return 1
    return 0


def _render_experiments(wanted, args, records, results) -> None:
    for name in wanted:
        start = time.perf_counter()
        if name == "table1":
            result = table1.run()
        elif name == "table7":
            result = table7.run_from_records(records, args.curtail)
        elif name == "fig1":
            result = fig1.run_from_records(records)
        elif name == "fig4":
            result = fig4.run_from_records(records)
        elif name == "fig5":
            result = fig5.run_from_records(records)
        elif name == "fig6":
            result = fig6.run_from_records(records)
        elif name == "fig7":
            result = fig7.run_from_records(records)
        elif name == "ablation-a1":
            result = ablation.run_a1()
        elif name == "ablation-a2":
            result = ablation.run_a2()
        elif name == "ablation-a3":
            result = prepass.run_a3()
        elif name == "kernels":
            result = kernels.run()
        elif name == "loops":
            result = loops.run()
        elif name == "stalls":
            result = stalls.run()
        elif name == "machines":
            result = machines.run()
        elif name == "extension-x1":
            result = extension.run_x1()
        elif name == "extension-x2":
            result = extension.run_x2()
        else:  # pragma: no cover
            raise AssertionError(name)
        elapsed = time.perf_counter() - start
        print(f"=== {name} ({elapsed:.1f}s) " + "=" * max(0, 50 - len(name)))
        text = result.render()
        print(text)
        print()
        results[name] = result
        if args.out:
            _write_result(args.out, name, text, result.csv())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
