"""Run the benchmark: ``python3 perf/run.py [--workload W] [--seed N]
[--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]``.

With ``--workload`` one workload runs in this process and the last line
of stdout is the result object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` for
``--trace 0``, its per-layer metrics for ``--trace 1``.  Without it,
every workload runs in a fresh subprocess, one after another (with
``--trace 1``, each is followed by its traced run).

Every metric is also printed on its own line with its unit, sample
count and percentile rank.  The exit status is non-zero when any output
check failed.  Nothing is written into the checkout except under a
removed-on-exit ``.perf-*`` directory, unless ``--out`` or ``--spans``
names a file.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bootstrap import ROOT
from common import Outcome, env_record, log, scratch_dir, using_scratch

WORKLOADS = ("population", "compile", "loops", "service")

#: Each run stops starting new rounds past this many times ``--seconds``.
TIME_CAP_FACTOR = 6


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """One run of one workload in this process."""
    import service_load
    import workloads

    deadline = time.monotonic() + TIME_CAP_FACTOR * seconds
    with scratch_dir() as scratch, using_scratch(scratch) as env:
        if workload == "service":
            sizes = service_load.plan(seconds)
            if trace:
                return service_load.trace_run(seed, sizes, env, scratch)
            return service_load.measure(seed, sizes, env, scratch)
        sizes = workloads.plan(workload, seconds)
        if trace:
            return workloads.trace_run(workload, seed, sizes, deadline)
        return workloads.measure(workload, seed, sizes, env, deadline)


def _line(workload: str, name: str, m: Dict[str, Any]) -> str:
    extra = []
    if "samples" in m:
        extra.append(f"n={m['samples']}")
    if "rank" in m:
        extra.append(m["rank"])
    tail = f"  ({', '.join(extra)})" if extra else ""
    return f"[{workload}] {name:<40} {m['value']:>14.6g} {m['unit']}{tail}"


def report(outcome: Outcome, bench: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print every metric, then return the result object."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    for spec in wanted:
        m = outcome.metrics.get(spec["name"])
        if m is None:
            outcome.fail("report", f"metric {spec['name']} was not measured")
        elif m["unit"] != spec["unit"]:
            outcome.fail("report", f"metric {spec['name']} in {m['unit']}, not {spec['unit']}")
    names = [s["name"] for s in wanted]
    for name in names + sorted(set(outcome.metrics) - set(names)):
        if name in outcome.metrics:
            print(_line(outcome.workload, name, outcome.metrics[name]))
    for name, row in outcome.info.get("layers", {}).items():
        print(f"[{outcome.workload}] layer {name:<26} self {row['self_s']:>10.4f} s"
              f"  {100 * row['share']:5.1f}%  calls={row['calls']}")
    attempted = max(1, outcome.attempted)
    print(f"[{outcome.workload}] failed_frac {outcome.failed / attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    for op, message in list(outcome.failures.items())[:20]:
        print(f"[{outcome.workload}] FAILED {op}: {message}")
    return {
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name]["value"],
                   "unit": outcome.metrics[name]["unit"]}
            for name in names if name in outcome.metrics
        },
    }


def record(outcome: Outcome, result: Dict[str, Any], args) -> Dict[str, Any]:
    """The ``--out`` record: the result plus everything needed to
    compare and reproduce it."""
    return {
        "workload": outcome.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "env": env_record(),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": dict(list(outcome.failures.items())[:50]),
        "metrics": outcome.metrics,
        "info": outcome.info,
    }


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_one(args, bench: Dict[str, Any]) -> int:
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(outcome, bench, bool(args.trace))
    if args.out:
        _write_json(args.out, record(outcome, result, args))
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _suffixed(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}-{tag}{ext}"


def run_all(args) -> int:
    """Every workload in its own fresh subprocess, one after another."""
    records, status = [], 0
    with scratch_dir() as scratch:
        for workload in WORKLOADS:
            for trace in ((0, 1) if args.trace else (0,)):
                out = os.path.join(scratch, f"{workload}-{trace}.json")
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", out]
                if trace and args.spans:
                    cmd += ["--spans", _suffixed(args.spans, workload)]
                log(f"== {workload} ({'traced' if trace else 'untraced'})")
                child = subprocess.Popen(cmd, cwd=ROOT)
                try:
                    code = child.wait()
                finally:
                    if child.poll() is None:
                        child.terminate()
                        child.wait()
                status = status or code
                if os.path.exists(out):
                    with open(out, encoding="utf-8") as fh:
                        records.append(json.load(fh))
                else:
                    status = status or 1
    if args.out:
        _write_json(args.out, records)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload in this process (default: all, each "
                        "in a fresh subprocess)")
    parser.add_argument("--seed", type=int, default=1990,
                        help="input seed (default 1990, the paper's population stream)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run: per-layer metrics instead of "
                        "end-to-end ones")
    parser.add_argument("--out", default=None, help="write the full result record here")
    parser.add_argument("--spans", default=None,
                        help="traced runs: write the span records here as JSON lines")
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        import repro  # noqa: F401  (fail early, before any work, without src/)
    except (OSError, ValueError, ImportError) as exc:
        print(f"perf/run.py: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    # A terminated run unwinds like an exception, so daemons are stopped
    # and the scratch directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
