"""Command-line entry point: ``repro verify``.

Runs the differential oracle — every scheduler cross-checked through the
independent certificate checker — over the built-in kernels, a seeded
random block population, or a previously emitted discrepancy report::

    repro verify --kernels --machines all
    repro verify --blocks 200 --seed 1990
    repro verify --optimality --kernels --machines all
    repro verify --loops --machines all
    repro verify --kernels --blocks 50 --machines paper-simulation,scalar
    repro verify --replay results/discrepancies/fuzz-1990-3-adv-deep-pipe

The ``--loops`` tier runs the loop oracle (modulo scheduler vs list
steady state vs independent certificate vs brute-force minimum II) over
every built-in loop kernel on the selected machines.

Exit status is 0 when every check passes and 1 on any discrepancy;
failures leave replayable reports under ``--out`` (default
``results/discrepancies/``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..driver import compile_source
from ..machine.presets import PRESETS, get_machine
from ..sched.search import SearchOptions
from ..synth.kernels import KERNELS
from ..telemetry import Telemetry
from .fuzz import adversarial_machines, run_fuzz
from .oracle import DEFAULT_BRUTE_CAP, DEFAULT_REPORT_DIR, check_block, replay_report


def _parse_machines(spec: str):
    if spec == "all":
        return [get_machine(name) for name in sorted(PRESETS)]
    if spec == "adversarial":
        return adversarial_machines()
    return [get_machine(name.strip()) for name in spec.split(",") if name.strip()]


def build_parser(prog: str = "repro-verify") -> argparse.ArgumentParser:
    from ..cliutil import common_flags

    parser = argparse.ArgumentParser(
        prog=prog,
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[
            common_flags(
                ("seed", "curtail", "stats-json", "optimality"),
                overrides={
                    "seed": dict(help="fuzz master seed"),
                    "stats-json": dict(
                        help="write verification telemetry "
                        "(verify.* counters) to PATH"
                    ),
                },
            )
        ],
    )
    parser.add_argument(
        "--kernels", action="store_true",
        help="verify every built-in kernel on the selected machines",
    )
    parser.add_argument(
        "--loops", action="store_true",
        help="verify every built-in loop kernel (modulo scheduling "
        "oracle) on the selected machines",
    )
    parser.add_argument(
        "--blocks", type=int, default=0, metavar="N",
        help="also fuzz N seeded random blocks (adversarial + random machines)",
    )
    parser.add_argument(
        "--machines", default="paper-simulation", metavar="SPEC",
        help="comma-separated preset names, 'all', or 'adversarial' "
        "(default: paper-simulation)",
    )
    parser.add_argument(
        "--brute-cap", type=int, default=DEFAULT_BRUTE_CAP, metavar="N",
        help="run exhaustive ground truth only below N legal orders "
        f"(default {DEFAULT_BRUTE_CAP:,})",
    )
    parser.add_argument(
        "--out", default=DEFAULT_REPORT_DIR, metavar="DIR",
        help=f"discrepancy report directory (default {DEFAULT_REPORT_DIR})",
    )
    parser.add_argument(
        "--replay", metavar="PATH", default=None,
        help="re-run the oracle on an emitted discrepancy report and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "repro-verify") -> int:
    parser = build_parser(prog)
    args = parser.parse_args(argv)

    options = SearchOptions(curtail=args.curtail)
    telemetry = Telemetry()
    failures = 0
    blocks_checked = 0
    checks = 0

    if args.replay is not None:
        try:
            report = replay_report(
                args.replay, options=options, brute_cap=args.brute_cap,
                telemetry=telemetry,
            )
        except (OSError, ValueError, KeyError) as exc:
            # Unreadable path, torn JSON, or a report from a newer schema:
            # one line, not a traceback.
            print(
                f"repro-verify: cannot replay {args.replay}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(report.summary())
        _write_stats(telemetry, args)
        return 0 if report.ok else 1

    try:
        machines = _parse_machines(args.machines)
    except KeyError as exc:
        parser.error(str(exc))

    if not args.kernels and not args.loops and args.blocks <= 0:
        args.kernels = True  # bare `repro-verify` still verifies something

    try:
        return _run_checks(
            args, options, telemetry, machines, blocks_checked, checks, failures
        )
    except KeyboardInterrupt:
        print("\nrepro-verify: interrupted", file=sys.stderr)
        _write_stats(telemetry, args)  # partial verify.* counters
        return 130


def _run_checks(
    args, options, telemetry, machines, blocks_checked, checks, failures
) -> int:
    if args.kernels:
        # Lowering/optimization is machine-independent; compile once on
        # the (deterministic) paper machine, then verify the tuple block
        # against every selected target.
        for kernel in KERNELS:
            block = compile_source(
                kernel.source,
                get_machine("paper-simulation"),
                scheduler="none",
                name=kernel.name,
            ).block
            for machine in machines:
                report = check_block(
                    block,
                    machine,
                    options=options,
                    brute_cap=args.brute_cap,
                    telemetry=telemetry,
                    emit_dir=args.out,
                    optimality=args.optimality,
                )
                blocks_checked += 1
                checks += report.checks_run
                print(report.summary())
                if not report.ok:
                    failures += 1
                    if report.report_dir:
                        print(f"  report: {report.report_dir}")

    if args.loops:
        from .loops import run_loop_suite

        for report in run_loop_suite(
            machines,
            options=options,
            telemetry=telemetry,
            emit_dir=args.out,
        ):
            blocks_checked += 1
            checks += report.checks_run
            print(report.summary())
            if not report.ok:
                failures += 1
                if report.report_dir:
                    print(f"  report: {report.report_dir}")

    if args.blocks > 0:
        fuzz = run_fuzz(
            args.blocks,
            seed=args.seed,
            options=options,
            brute_cap=args.brute_cap,
            emit_dir=args.out,
            telemetry=telemetry,
            optimality=args.optimality,
        )
        blocks_checked += fuzz.blocks_checked
        checks += fuzz.checks_run
        print(fuzz.summary())
        for path in fuzz.report_dirs:
            print(f"  report: {path}")
        failures += len(fuzz.failures)

    status = "all consistent" if failures == 0 else f"{failures} FAILED"
    print(
        f"[verify] {blocks_checked} block/machine pairs, "
        f"{checks} checks: {status}"
    )
    _write_stats(telemetry, args)
    return 0 if failures == 0 else 1


def _write_stats(telemetry: Telemetry, args) -> None:
    if args.stats_json:
        telemetry.write_json(
            args.stats_json,
            meta={
                "kernels": bool(args.kernels),
                "loops": bool(args.loops),
                "blocks": args.blocks,
                "machines": args.machines,
                "seed": args.seed,
                "curtail": args.curtail,
                "optimality": args.optimality,
            },
        )
        print(f"[stats] telemetry written to {args.stats_json}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
