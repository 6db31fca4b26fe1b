"""The ``service`` workload: a real ``repro serve --workers 2`` daemon
under seeded load from one process.

Every request carries 1-3 population blocks of at most 24 tuples.  70%
repeat a block set primed before timing (the cache read path); 30% are
fresh (search, certify on insert, store write).  The load generator has
two sender threads, each with its own client:

* open loop at 20 req/s, then at 60 req/s, with seeded Poisson arrivals.
  Latency is timed from the moment a request was *due*, so a stall
  counts against every request queued behind it; how late the senders
  ran and the largest backlog of due-but-unsent requests are reported;
* a closed loop on both senders over a fixed request sequence, for
  throughput.

Every phase sends a fixed, seeded set of requests, so what the daemon
answers does not depend on how fast it answers.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
import spans
from bootstrap import ROOT
from common import (
    Outcome,
    digest,
    latency_metrics,
    log,
    metric,
    percentile,
    reference_start,
    setup_metrics,
    sub_seed,
)
from workloads import (
    OPTIONS,
    layer_metrics,
    probe_layers,
    summarize_layers,
)

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.presets import get_machine
from repro.sched.multi import first_pipeline_assignment
from repro.service.cache import ScheduleCache
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.server import SCHEMA, SchedulingService
from repro.verify import certificate

MACHINE = "paper-simulation"
SENDERS = 2
LOW_RATE = 20.0
HIGH_RATE = 60.0
PRIMED_SHARE = 0.7
#: Closed-loop requests per second of ``closed_s``: about what two
#: senders get through at the commit that added the benchmark.
CLOSED_RATE = 90.0
SETUP_REPEATS = 5
READY_TIMEOUT = 60.0
DRAIN_TIMEOUT = 30.0


def plan(seconds: float) -> Dict[str, Any]:
    """Phase lengths for a run of ``seconds``: a quarter at 20 req/s,
    half at 60 req/s, and a closed loop sized to take about a quarter.
    Tests pass smaller plans."""
    s = max(1.0, seconds)
    return {"low_s": s / 4, "high_s": s / 2, "closed_s": s / 4, "primed": 24, "probe": 150}


@dataclass(frozen=True)
class Load:
    """Every request a run sends, generated from the seed."""

    primed: List[List[str]]  # block sets sent once before timing
    low: List[Tuple[float, List[str]]]  # (due offset, blocks) at 20 req/s
    high: List[Tuple[float, List[str]]]  # at 60 req/s
    closed: List[List[str]]  # the closed loop's requests, in order
    traced: List[List[str]]  # the traced run's second closed loop

    def digest(self) -> str:
        return digest([self.primed, self.low, self.high, self.closed, self.traced])


def make_load(seed: int, sizes: Dict[str, Any]) -> Load:
    rng = random.Random(sub_seed(seed, "service-requests"))
    closed_n = max(SENDERS, round(CLOSED_RATE * sizes["closed_s"]))
    expected = LOW_RATE * sizes["low_s"] + HIGH_RATE * sizes["high_s"] + 2 * closed_n
    fresh_sets = int((1 - PRIMED_SHARE) * expected * 1.5) + 4
    sizes_of = [rng.randint(1, 3) for _ in range(sizes["primed"] + fresh_sets)]
    blocks = iter(inputs.service_blocks(seed, sum(sizes_of)))
    sets = [[next(blocks) for _ in range(k)] for k in sizes_of]
    primed, fresh = sets[: sizes["primed"]], iter(sets[sizes["primed"]:])

    def pick() -> List[str]:
        if rng.random() < PRIMED_SHARE:
            return rng.choice(primed)
        # Past the fresh supply a request repeats a primed set (a hit).
        return next(fresh, None) or rng.choice(primed)

    def poisson(rate: float, duration: float) -> List[Tuple[float, List[str]]]:
        out, t = [], rng.expovariate(rate)
        while t < duration:
            out.append((t, pick()))
            t += rng.expovariate(rate)
        return out

    low = poisson(LOW_RATE, sizes["low_s"])
    high = poisson(HIGH_RATE, sizes["high_s"])
    closed = [pick() for _ in range(closed_n)]
    traced = [pick() for _ in range(closed_n)]
    return Load(primed, low, high, closed, traced)


# -- the daemon ---------------------------------------------------------
class Daemon:
    """One ``repro serve --workers 2 --cache DIR`` subprocess."""

    def __init__(self, scratch: str, env: Dict[str, str], label: str) -> None:
        self.ready_path = os.path.join(scratch, f"{label}.ready.json")
        self._log = open(os.path.join(scratch, f"{label}.log"), "w", encoding="utf-8")
        cmd = [
            sys.executable, "-m", "repro.console", "serve", "--port", "0",
            "--workers", "2", "--cache", os.path.join(scratch, f"{label}.store"),
            "--ready-file", self.ready_path,
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )
        self.url: Optional[str] = None

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/v1/health/ready`` answers 200."""
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} before ready")
            if self.url is None:
                try:
                    with open(self.ready_path, encoding="utf-8") as fh:
                        self.url = json.load(fh)["url"]
                except (OSError, ValueError, KeyError):
                    time.sleep(0.005)
                    continue
            try:
                ServiceClient(self.url, timeout=5.0, max_retries=0).ready()
                return time.perf_counter() - self.started
            except (ServiceClientError, OSError, http.client.HTTPException):
                time.sleep(0.005)
        raise RuntimeError(f"daemon not ready within {READY_TIMEOUT:g} s")

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the daemon and its worker processes."""
        total = 0
        for pid in [self.proc.pid] + _children(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total / 1024.0

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain), SIGKILL past the deadline; waits."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=DRAIN_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            return self.proc.returncode
        finally:
            self._log.close()


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


# -- load generation ----------------------------------------------------
@dataclass
class Sent:
    blocks: List[str]
    due: float  # when it should have been sent (perf_counter)
    sent: float
    done: float
    reply: Optional[Dict[str, Any]]
    error: Optional[str]

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def hit(self) -> bool:
        return self.reply is not None and self.reply["stats"]["misses"] == 0


def _send(client: ServiceClient, blocks: List[str]) -> Tuple[Optional[dict], Optional[str]]:
    try:
        return client.schedule(blocks, MACHINE), None
    except (ServiceClientError, OSError, http.client.HTTPException) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def open_loop(url: str, schedule: Sequence[Tuple[float, List[str]]]) -> List[Sent]:
    """Send each request at its due time; ``SENDERS`` threads take them
    in due order, so a request waits whenever both are busy."""
    records: List[Optional[Sent]] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        client = ServiceClient(url, timeout=60.0, max_retries=0)
        while True:
            with lock:
                i = cursor[0]
                if i >= len(schedule):
                    return
                cursor[0] += 1
            offset, blocks = schedule[i]
            due = origin + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            reply, error = _send(client, blocks)
            records[i] = Sent(blocks, due, sent, time.perf_counter(), reply, error)

    _run_threads(sender)
    # A request a dead sender never sent is an unanswered one.
    return [
        r if r is not None else Sent(blocks, origin + t, origin + t, origin + t, None,
                                     "never sent")
        for r, (t, blocks) in zip(records, schedule)
    ]


def closed_loop(url: str, sequence: Sequence[List[str]],
                tracer=None) -> Tuple[List[Sent], float]:
    """``SENDERS`` threads, each sending the next request of ``sequence``
    as soon as its last one is answered; (records, wall)."""
    records: List[Sent] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()

    def sender() -> None:
        client = ServiceClient(url, timeout=60.0, max_retries=0)
        while True:
            with lock:
                i = cursor[0]
                if i >= len(sequence):
                    return
                cursor[0] += 1
            blocks = sequence[i]
            sent = time.perf_counter()
            if tracer is None:
                reply, error = _send(client, blocks)
            else:
                with tracer.operation("service.http", f"req{i}"):
                    reply, error = _send(client, blocks)
            record = Sent(blocks, sent, sent, time.perf_counter(), reply, error)
            with lock:
                records.append(record)

    _run_threads(sender)
    return records, time.perf_counter() - start


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def lateness(records: Sequence[Sent]) -> Dict[str, Dict[str, Any]]:
    """How late the senders ran, and the largest backlog of requests
    that were due but not yet sent when one was sent."""
    late = sorted(r.sent - r.due for r in records)
    dues = sorted(r.due for r in records)
    by_due = sorted(records, key=lambda r: r.due)
    backlog = max(
        (bisect.bisect_right(dues, r.sent) - (k + 1) for k, r in enumerate(by_due)),
        default=0,
    )
    return {
        "loadgen.late_p99_ms": metric(percentile(late, 99) * 1e3 if late else 0.0, "ms",
                                      len(late), 99),
        "loadgen.backlog_max": metric(max(0, backlog), "count", len(late)),
    }


# -- checks -------------------------------------------------------------
class ReplyChecker:
    """Client-side certification of every reply entry, shared-nothing
    with the daemon.  Identical (block, schedule) pairs are certified
    once; every distinct block's quality is kept."""

    def __init__(self) -> None:
        self.machine = get_machine(MACHINE)
        self._verdicts: Dict[tuple, Optional[str]] = {}
        self.quality: Dict[str, Tuple[int, int, bool]] = {}

    def check(self, record: Sent) -> Optional[str]:
        if record.reply is None:
            return record.error or "no reply"
        entries = record.reply.get("entries", [])
        if len(entries) != len(record.blocks):
            return f"{len(entries)} entries for {len(record.blocks)} blocks"
        for j, (text, e) in enumerate(zip(record.blocks, entries)):
            if e["degraded"] or e["shed"]:
                return f"entry {j} was degraded or shed"
            key = (text, tuple(e["order"]), tuple(e["etas"]), e["total_nops"])
            if key not in self._verdicts:
                self._verdicts[key] = self._certify(text, e)
            if self._verdicts[key] is not None:
                return f"entry {j}: {self._verdicts[key]}"
            n = len(e["order"])
            self.quality[text] = (n + e["total_nops"], n, bool(e["completed"]))
        return None

    def _certify(self, text: str, entry: Dict[str, Any]) -> Optional[str]:
        block = parse_block(text, name=entry["name"])
        cert = certificate.check_schedule(
            block, self.machine, entry["order"], entry["etas"],
            assignment=first_pipeline_assignment(DependenceDAG(block), self.machine),
        )
        if not cert.ok:
            return cert.summary()
        if cert.required_nops != entry["total_nops"]:
            return (f"publishes {entry['total_nops']} NOPs, the certificate "
                    f"re-derives {cert.required_nops}")
        return None


def _check_all(checker: ReplyChecker, records: Sequence[Sent], outcome: Outcome,
               phase: str) -> None:
    for k, record in enumerate(records):
        outcome.attempted += 1
        message = checker.check(record)
        outcome.check(message is None, f"{phase}.{k}", message or "")


def _quality(checker: ReplyChecker) -> Dict[str, Dict[str, Any]]:
    q = checker.quality.values()
    instructions = sum(x[1] for x in q)
    out = {}
    if instructions:
        out["cycles_per_instr"] = metric(sum(x[0] for x in q) / instructions,
                                         "cycle/instr", len(q))
        out["proven_frac"] = metric(sum(x[2] for x in q) / len(q), "frac", len(q))
    return out


def _prime(url: str, load: Load, outcome: Outcome, checker: ReplyChecker) -> None:
    client = ServiceClient(url, timeout=60.0, max_retries=0)
    records = []
    for blocks in load.primed:
        t = time.perf_counter()
        reply, error = _send(client, blocks)
        records.append(Sent(blocks, t, t, time.perf_counter(), reply, error))
    _check_all(checker, records, outcome, "prime")


def _split(records: Sequence[Sent]) -> Dict[str, List[float]]:
    ok = [r for r in records if r.reply is not None]
    return {
        "hit": [r.done - r.sent for r in ok if r.hit],
        "miss": [r.done - r.sent for r in ok if not r.hit],
    }


# -- runs ---------------------------------------------------------------
def measure(seed: int, sizes: Dict[str, Any], env: Dict[str, str], scratch: str) -> Outcome:
    """The untraced run: spawn-to-ready ``setup_s``, priming, the two
    open-loop rates and the closed loop, then client-side checks."""
    outcome = Outcome("service")
    load = make_load(seed, sizes)
    outcome.info["inputs_sha256"] = load.digest()
    setup: List[Tuple[float, float]] = []
    for k in range(SETUP_REPEATS - 1):
        reference = reference_start(env)
        daemon = Daemon(scratch, env, f"setup{k}")
        try:
            setup.append((daemon.wait_ready(), reference))
        finally:
            daemon.stop()
    reference = reference_start(env)
    daemon = Daemon(scratch, env, "serve")
    checker = ReplyChecker()
    try:
        setup.append((daemon.wait_ready(), reference))
        _prime(daemon.url, load, outcome, checker)
        low = open_loop(daemon.url, load.low)
        log(f"[service] {len(low)} requests at {LOW_RATE:g} req/s")
        high = open_loop(daemon.url, load.high)
        log(f"[service] {len(high)} requests at {HIGH_RATE:g} req/s")
        closed, wall = closed_loop(daemon.url, load.closed)
        log(f"[service] {len(closed)} closed-loop requests in {wall:.2f} s")
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    outcome.check(code == 0, "drain", f"daemon drain exited {code}")

    for phase, records in (("low", low), ("high", high), ("closed", closed)):
        _check_all(checker, records, outcome, phase)
    answered_high = [r.latency for r in high if r.reply is not None]
    outcome.metrics.update(setup_metrics(setup))
    outcome.metrics.update(latency_metrics(answered_high, 99.0))
    outcome.metrics.update(latency_metrics(
        [r.latency for r in low if r.reply is not None], 99.0, prefix="r20."))
    answered = sum(r.reply is not None for r in closed)
    outcome.metrics["ops_per_s"] = metric(answered / wall, "1/s", answered)
    outcome.metrics.update(_quality(checker))
    outcome.metrics["peak_rss_mb"] = metric(rss, "MB")
    outcome.metrics.update(lateness(high))
    return outcome


def _inline_service(load: Load, scratch: str, label: str) -> SchedulingService:
    """The daemon's scheduling path in process: ``SchedulingService``
    with no pool and a fresh disk store, primed like the daemon."""
    service = SchedulingService(
        cache=ScheduleCache(path=os.path.join(scratch, f"{label}.store")), options=OPTIONS
    )
    for blocks in load.primed:
        service.schedule_batch(_payload(blocks))
    return service


def _payload(blocks: Sequence[str]) -> Dict[str, Any]:
    """The request body ``ServiceClient.schedule`` sends for ``blocks``."""
    return {"schema": SCHEMA, "machine": MACHINE,
            "blocks": [{"name": f"block{i}", "tuples": t} for i, t in enumerate(blocks)]}


def _inline_pass(service: SchedulingService, requests: Sequence[List[str]], tracer=None
                 ) -> Tuple[List[Optional[list]], Dict[str, List[float]], float]:
    """(reply cores, hit/miss latencies, wall) of ``requests`` sent
    through ``service`` in process."""
    cores: List[Optional[list]] = []
    split: Dict[str, List[float]] = {"hit": [], "miss": []}
    start = time.perf_counter()
    for i, blocks in enumerate(requests):
        t = time.perf_counter()
        if tracer is None:
            reply = service.schedule_batch(_payload(blocks))
        else:
            with tracer.operation("service.inline", f"req{i}"):
                reply = service.schedule_batch(_payload(blocks))
        split["hit" if reply["stats"]["misses"] == 0 else "miss"].append(
            time.perf_counter() - t)
        cores.append(_core(reply))
    return cores, split, time.perf_counter() - start


def _core(reply: Optional[Dict[str, Any]]) -> Optional[list]:
    """A reply minus provenance that legitimately varies (hit or miss,
    worker retries)."""
    if reply is None:
        return None
    return [{k: v for k, v in e.items() if k not in ("cache", "worker_retries")}
            for e in reply["entries"]]


def _p50_ms(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) * 1e3 if values else None


def trace_run(seed: int, sizes: Dict[str, Any], env: Dict[str, str], scratch: str) -> Outcome:
    """The traced run.

    Untraced, against the daemon: the 60 req/s phase (``tail_ms`` and
    the generator's health) and the closed loop (``ops_per_s``).  Traced:
    a second closed loop on its own requests, a span per round trip,
    split into hits and misses by the reply's ``stats``; then
    the same requests through the in-process inline path, untraced and
    traced, for the layer spans and ``service.overhead`` = http - inline.
    """
    outcome = Outcome("service")
    load = make_load(seed, sizes)
    outcome.info["inputs_sha256"] = load.digest()
    checker = ReplyChecker()
    tracer = spans.Tracer()
    daemon = Daemon(scratch, env, "trace")
    try:
        daemon.wait_ready()
        _prime(daemon.url, load, outcome, checker)
        high = open_loop(daemon.url, load.high)
        closed, wall = closed_loop(daemon.url, load.closed)
        traced_http, _ = closed_loop(daemon.url, load.traced, tracer)
    finally:
        code = daemon.stop()
    outcome.check(code == 0, "drain", f"daemon drain exited {code}")

    replayed = traced_http[: 2 * sizes["probe"]]
    requests = [r.blocks for r in replayed]
    cores, inline, wall_plain = _inline_pass(_inline_service(load, scratch, "inline"),
                                             requests)
    service = _inline_service(load, scratch, "traced")
    mark = len(tracer.spans)  # spans before this are the http round trips
    with tracer.patched():
        traced_cores, _, wall_traced = _inline_pass(service, requests, tracer)
        for phase, records in (("high", high), ("closed", closed), ("traced", traced_http)):
            _check_all(checker, records, outcome, phase)
    for k, (record, a, b) in enumerate(zip(replayed, cores, traced_cores)):
        outcome.check(a == b, f"inline.{k}", "traced inline reply differs from untraced")
        if record.reply is not None:
            outcome.check(_core(record.reply) == a, f"inline.{k}",
                          "daemon reply differs from the inline path")

    table = spans.layer_table(tracer.spans[mark:])
    op_table = spans.layer_table([s for s in tracer.spans[mark:] if s.op is not None])
    outcome.metrics["ops_per_s"] = metric(sum(r.reply is not None for r in closed) / wall,
                                          "1/s", len(closed))
    outcome.metrics.update(latency_metrics([r.latency for r in high if r.reply is not None],
                                           99.0))
    outcome.metrics["trace.overhead_frac"] = metric(wall_traced / wall_plain - 1.0, "frac")
    outcome.metrics["trace.coverage_frac"] = metric(
        sum(row["self_s"] for row in op_table.values()) / wall_traced, "frac")
    outcome.metrics.update(layer_metrics(table))

    http = _split(traced_http)
    for side in ("hit", "miss"):
        h, i = _p50_ms(http[side]), _p50_ms(inline[side])
        if h is not None:
            outcome.metrics[f"service.http.{side}_p50_ms"] = metric(h, "ms", len(http[side]), 50)
        if i is not None:
            outcome.metrics[f"service.inline.{side}_p50_ms"] = metric(
                i, "ms", len(inline[side]), 50)
        if h is not None and i is not None:
            outcome.metrics[f"service.overhead.{side}_p50_ms"] = metric(h - i, "ms")
    outcome.metrics.update(lateness(high))

    machine = get_machine(MACHINE)
    problems: Dict[str, Tuple[Any, Any]] = {}
    stream = []
    for blocks in load.primed + requests:
        for text in blocks:
            if text not in problems:
                problems[text] = (DependenceDAG(parse_block(text)), machine)
            stream.append(problems[text])
    distinct = list(problems.values())[: sizes["probe"]]
    outcome.metrics.update(probe_layers(distinct, outcome, stream))
    outcome.info["layers"] = summarize_layers(op_table, wall_traced)
    outcome.spans = spans.span_records(tracer.spans)
    return outcome
