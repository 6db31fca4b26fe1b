"""Shared pieces of the benchmark: percentiles, seeds, digests, the
environment record, and the result object every workload returns."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from bootstrap import ROOT, SRC

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Candidate tail ranks, highest first.
TAIL_RANKS = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    return min(n, max(1, math.ceil(round(q * n / 100.0, 9))))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q)


def tail_rank(n: int, highest: float = 99.0) -> float:
    """The highest rank, at most ``highest``, with ``MIN_BEYOND`` samples
    beyond it (falls back to the median for tiny samples)."""
    for q in TAIL_RANKS:
        if q <= highest and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def rank_label(q: float) -> str:
    return f"p{q:g}"


def sub_seed(seed: int, label: str) -> int:
    """A 32-bit seed derived from ``seed`` for one named input stream."""
    raw = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(raw[:4], "big")


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss``) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def env_record() -> Dict[str, Any]:
    """The ``config.env`` record: everything a timing depends on."""
    from repro.native import compiler_info

    return {
        "python": platform.python_version(),
        "cc": compiler_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A throwaway directory inside the checkout (git-ignored as
    ``.perf-*``): stores, sockets, logs and the native build cache."""
    return tempfile.TemporaryDirectory(prefix=".perf-", dir=ROOT)


def child_env(scratch: str) -> Dict[str, str]:
    """Environment for benchmark child processes: ``src`` importable,
    temporary files and the native build cache kept in ``scratch``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = scratch
    env["REPRO_NATIVE_CACHE"] = os.path.join(scratch, "native")
    return env


@contextmanager
def using_scratch(scratch: str) -> Iterator[Dict[str, str]]:
    """Point this process's temporary files and native build cache at
    ``scratch`` so nothing is written outside the checkout; yields the
    environment for child processes.  Restores both on exit."""
    saved_env = {k: os.environ.get(k) for k in ("TMPDIR", "REPRO_NATIVE_CACHE")}
    saved_tempdir = tempfile.tempdir
    env = child_env(scratch)
    os.environ["TMPDIR"] = env["TMPDIR"]
    os.environ["REPRO_NATIVE_CACHE"] = env["REPRO_NATIVE_CACHE"]
    tempfile.tempdir = scratch
    try:
        yield env
    finally:
        tempfile.tempdir = saved_tempdir
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def metric(
    value: float,
    unit: str,
    samples: Optional[int] = None,
    rank: Optional[float] = None,
) -> Dict[str, Any]:
    """One reported metric.  ``samples`` is the count it was computed
    from, ``rank`` the percentile it reads (for latency metrics)."""
    out: Dict[str, Any] = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    if rank is not None:
        out["rank"] = rank_label(rank)
    return out


def latency_metrics(
    seconds: Sequence[float], tail: float, prefix: str = ""
) -> Dict[str, Dict[str, Any]]:
    """``p50_ms`` and ``tail_ms`` of per-operation latencies.

    ``tail`` is the workload's tail rank; it is lowered to the highest
    rank that still has ``MIN_BEYOND`` samples beyond it.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n == 0:
        return {}
    q = tail_rank(n, tail)
    return {
        f"{prefix}p50_ms": metric(percentile(ordered, 50) * 1e3, "ms", n, 50),
        f"{prefix}tail_ms": metric(percentile(ordered, q) * 1e3, "ms", n, q),
    }


#: A fresh interpreter importing a fixed set of standard-library
#: modules: the yardstick ``setup_s`` is measured against.
REFERENCE_START = (
    "import argparse, decimal, email.mime.multipart, http.client, json, "
    "unittest, xml.dom.minidom"
)

#: ``REFERENCE_START`` on the reference host (2-core x86, Python 3.11)
#: when nothing else loads it: the fastest tenth of 50 starts.
REFERENCE_START_S = 0.085


def process_seconds(args: Sequence[str], env: Dict[str, str], stdin: str = "") -> float:
    """Wall time of one child process run to completion; raises when it
    fails."""
    start = time.perf_counter()
    proc = subprocess.run(args, input=stdin, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:3]} failed: {proc.stderr.strip()[-500:]}")
    return seconds


def reference_start(env: Dict[str, str]) -> float:
    return process_seconds([sys.executable, "-c", REFERENCE_START], env)


def setup_metrics(pairs: Sequence[Tuple[float, float]]) -> Dict[str, Dict[str, Any]]:
    """``setup_s`` from (setup, reference start) pairs taken back to back.

    The host is shared, and other tenants' load slows process start-up
    by up to a factor of two for minutes at a time.  Each set-up is
    divided by a reference start run just before it and scaled by the
    reference's unloaded time, which brought the spread of ``setup_s``
    over ten runs from 20-50% to 3-22% on the loaded host.  The raw
    median and the reference median are kept alongside.
    """
    ratios = [s / r for s, r in pairs]
    return {
        "setup_s": metric(statistics.median(ratios) * REFERENCE_START_S, "s", len(pairs)),
        "raw.setup_s": metric(statistics.median(s for s, _ in pairs), "s", len(pairs)),
        "setup.reference_s": metric(statistics.median(r for _, r in pairs), "s", len(pairs)),
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    #: Failed operations: operation label -> first failure message.
    failures: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Input-set digest, trace summaries and anything else worth keeping
    #: in ``--out`` files but not reported as a metric.
    info: Dict[str, Any] = field(default_factory=dict)
    #: Span records of a traced run (written by ``--spans``).
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, message)

    def check(self, condition: bool, op: str, message: str) -> None:
        if not condition:
            self.fail(op, message)


def log(message: str) -> None:
    """Progress line on stderr (stdout carries only the results)."""
    print(message, file=sys.stderr, flush=True)
