"""Service-level load + chaos benchmark — ``repro bench --service``.

Where :mod:`repro.bench.hot_core` times the search engines in-process,
this harness measures the *daemon*: it spawns a real ``repro serve``
subprocess per configuration, drives concurrent clients over a seeded
synthetic workload, and records throughput and p50/p99 latency for a
cold store versus a warm one, per worker count.  The result lands in
``BENCH_service.json`` (schema ``repro-service-bench/1``; see
docs/file-formats.md §8).

Robustness is measured alongside speed, and *asserted*:

* every reply entry is certificate-verified client-side through
  :mod:`repro.verify.certificate` (shared-nothing with the daemon) —
  an uncertified, non-degraded, non-shed answer is a failure;
* SIGTERM must drain cleanly: exit 0 within the deadline with the
  ``--stats-json`` telemetry flushed;
* under ``--chaos`` the same workload runs again with seeded worker
  crash/hang/corrupt injection, and the schedule payloads must be
  bit-identical to the fault-free pass (modulo ``cache`` and
  ``worker_retries`` provenance, which legitimately depend on timing
  and faults) — the PR 4 chaos invariant, at the service layer.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ir.textual import format_block, parse_block
from ..machine.presets import get_machine
from ..synth.population import generate_from_params, sample_population_params
from .hot_core import bench_environment

__all__ = ["SERVICE_BENCH_SCHEMA", "run_service_bench"]

SERVICE_BENCH_SCHEMA = "repro-service-bench/1"

#: Workload blocks above this tuple count are skipped: service latency,
#: not search depth, is what this bench measures.
_MAX_BLOCK_TUPLES = 24

#: How long to wait for a spawned daemon's ready file.
_READY_TIMEOUT = 60.0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _build_workload(
    requests: int, blocks_per_request: int, master_seed: int
) -> List[List[str]]:
    """Seeded batches of tuple text, reproducible across runs."""
    need = requests * blocks_per_request
    texts: List[str] = []
    # Over-sample: empty (folded-away) and oversized blocks are skipped.
    for params in sample_population_params(max(4 * need, 32), master_seed):
        gb = generate_from_params(params)
        if not (1 <= len(gb.block) <= _MAX_BLOCK_TUPLES):
            continue
        texts.append(format_block(gb.block))
        if len(texts) == need:
            break
    if len(texts) < need:  # pragma: no cover - spec calibration safety net
        texts.extend(texts[: need - len(texts)])
    return [
        texts[i * blocks_per_request : (i + 1) * blocks_per_request]
        for i in range(requests)
    ]


class _Daemon:
    """One real ``repro serve`` subprocess under bench control."""

    def __init__(
        self,
        workers: int,
        store: Optional[str],
        workdir: str,
        curtail: int,
        chaos: Optional[str] = None,
        hang_timeout: Optional[float] = None,
        label: str = "daemon",
    ) -> None:
        self.label = label
        self.ready_path = os.path.join(workdir, f"{label}.ready.json")
        self.stats_path = os.path.join(workdir, f"{label}.stats.json")
        self.log_path = os.path.join(workdir, f"{label}.log")
        cmd = [
            sys.executable,
            "-m",
            "repro.console",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--queue-limit",
            "256",
            "--curtail",
            str(curtail),
            "--ready-file",
            self.ready_path,
            "--stats-json",
            self.stats_path,
        ]
        cmd += ["--cache", store] if store else ["--no-cache"]
        if chaos:
            cmd += ["--chaos", chaos]
        if hang_timeout is not None:
            cmd += ["--hang-timeout", str(hang_timeout)]
        env = dict(os.environ)
        import repro

        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env
        )

    def wait_ready(self) -> str:
        deadline = time.monotonic() + _READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.label}: daemon exited {self.proc.returncode} "
                    f"before becoming ready (see {self.log_path})"
                )
            try:
                with open(self.ready_path, "r", encoding="utf-8") as fh:
                    return json.load(fh)["url"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.05)
        raise RuntimeError(f"{self.label}: daemon not ready in {_READY_TIMEOUT}s")

    def terminate(self, deadline_seconds: float) -> Dict[str, Any]:
        """SIGTERM and measure the drain; kills on deadline overrun."""
        start = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        try:
            exit_code: Optional[int] = self.proc.wait(timeout=deadline_seconds)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            exit_code = None
        self._log.close()
        return {
            "exit_code": exit_code,
            "seconds": round(time.monotonic() - start, 3),
            "stats_flushed": os.path.exists(self.stats_path),
        }

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._log.closed:
            self._log.close()


def _drive(
    url: str, batches: List[List[str]], clients: int, deadline: Optional[float]
) -> Tuple[List[Optional[Dict[str, Any]]], List[float], float, List[str]]:
    """Concurrent clients over the batches; per-request latencies."""
    from ..service.client import ServiceClient, ServiceClientError

    replies: List[Optional[Dict[str, Any]]] = [None] * len(batches)
    latencies: List[float] = [0.0] * len(batches)
    errors: List[str] = []
    next_index = [0]
    lock = threading.Lock()

    def worker() -> None:
        client = ServiceClient(url, timeout=120.0, max_retries=3)
        while True:
            with lock:
                i = next_index[0]
                if i >= len(batches):
                    return
                next_index[0] += 1
            t0 = time.perf_counter()
            try:
                reply = client.schedule(
                    batches[i], "paper-simulation", deadline=deadline
                )
            except (ServiceClientError, OSError) as exc:
                with lock:
                    errors.append(f"request {i}: {exc}")
                continue
            latencies[i] = time.perf_counter() - t0
            replies[i] = reply

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(1, clients))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, latencies, time.perf_counter() - start, errors


def _certify_pass(
    batches: List[List[str]],
    replies: List[Optional[Dict[str, Any]]],
    machine,
) -> Tuple[Dict[str, int], List[str]]:
    """Client-side verification of every entry in every reply."""
    from ..ir.dag import DependenceDAG
    from ..machine.machine import first_pipeline_assignment
    from ..verify.certificate import check_schedule

    counts = {"certified": 0, "degraded": 0, "shed": 0, "entries": 0}
    failures: List[str] = []
    for i, reply in enumerate(replies):
        if reply is None:
            continue
        if len(reply.get("entries", [])) != len(batches[i]):
            failures.append(f"request {i}: entry count mismatch")
            continue
        for j, entry in enumerate(reply["entries"]):
            counts["entries"] += 1
            block = parse_block(batches[i][j], name=entry["name"])
            dag = DependenceDAG(block)
            cert = check_schedule(
                block,
                machine,
                entry["order"],
                entry["etas"],
                assignment=first_pipeline_assignment(dag, machine),
            )
            if not cert.ok or cert.required_nops != entry["total_nops"]:
                failures.append(
                    f"request {i} entry {j} ({entry['name']}): "
                    f"uncertified reply: {cert.summary()}"
                )
                continue
            counts["certified"] += 1
            if entry["degraded"]:
                counts["degraded"] += 1
            if entry["shed"]:
                counts["shed"] += 1
    return counts, failures


def _pass_record(
    latencies: List[float], wall: float, replies, counts: Dict[str, int]
) -> Dict[str, Any]:
    measured = sorted(lat for lat, r in zip(latencies, replies) if r is not None)
    stats = {"hits": 0, "misses": 0, "bypass": 0, "degraded": 0, "shed": 0}
    for reply in replies:
        if reply is not None:
            for key in stats:
                stats[key] += reply["stats"].get(key, 0)
    return {
        "requests": len(replies),
        "answered": len(measured),
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(len(measured) / wall, 3) if wall > 0 else 0.0,
        "p50_ms": round(_percentile(measured, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(measured, 0.99) * 1e3, 3),
        "stats": stats,
        "certified": counts["certified"],
        "degraded": counts["degraded"],
        "shed": counts["shed"],
    }


def _strip_provenance(reply: Optional[Dict[str, Any]]) -> Any:
    """The deterministic core of a reply: payloads minus timing-dependent
    provenance (``cache`` hit-vs-miss races, ``worker_retries``)."""
    if reply is None:
        return None
    return [
        {k: v for k, v in entry.items() if k not in ("cache", "worker_retries")}
        for entry in reply["entries"]
    ]


def run_service_bench(
    worker_counts: Sequence[int] = (1, 2),
    clients: int = 4,
    requests: int = 12,
    blocks_per_request: int = 3,
    curtail: int = 2_000,
    master_seed: int = 1990,
    chaos: Optional[str] = None,
    deadline: Optional[float] = None,
    drain_deadline: float = 30.0,
    workdir: Optional[str] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run the full grid; returns ``(payload, failures)``.

    ``workdir`` (when given) keeps the daemon logs/stats files around —
    CI uploads them on failure; the default is a throwaway tempdir.
    """
    batches = _build_workload(requests, blocks_per_request, master_seed)
    machine = get_machine("paper-simulation")
    failures: List[str] = []
    runs: List[Dict[str, Any]] = []

    own_tmp = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="repro-service-bench-")
    os.makedirs(workdir, exist_ok=True)

    for workers in worker_counts:
        label = f"w{workers}"
        store = os.path.join(workdir, f"{label}.store")
        daemon = _Daemon(
            workers, store, workdir, curtail, label=label
        )
        run: Dict[str, Any] = {"workers": workers}
        try:
            url = daemon.wait_ready()
            for phase in ("cold", "warm"):
                replies, lats, wall, errs = _drive(url, batches, clients, deadline)
                failures.extend(f"{label} {phase}: {e}" for e in errs)
                counts, cert_failures = _certify_pass(batches, replies, machine)
                failures.extend(f"{label} {phase}: {f}" for f in cert_failures)
                run[phase] = _pass_record(lats, wall, replies, counts)
                if phase == "cold":
                    clean_core = [_strip_provenance(r) for r in replies]
            run["drain"] = daemon.terminate(drain_deadline)
            if run["drain"]["exit_code"] != 0:
                failures.append(
                    f"{label}: SIGTERM drain exited "
                    f"{run['drain']['exit_code']} (want 0)"
                )
            if not run["drain"]["stats_flushed"]:
                failures.append(f"{label}: telemetry not flushed on drain")
        except RuntimeError as exc:
            failures.append(str(exc))
            daemon.kill()
            runs.append(run)
            continue
        finally:
            daemon.kill()

        if chaos:
            chaos_store = os.path.join(workdir, f"{label}.chaos.store")
            chaos_daemon = _Daemon(
                workers,
                chaos_store,
                workdir,
                curtail,
                chaos=chaos,
                hang_timeout=3.0,
                label=f"{label}-chaos",
            )
            try:
                url = chaos_daemon.wait_ready()
                replies, lats, wall, errs = _drive(url, batches, clients, deadline)
                failures.extend(f"{label} chaos: {e}" for e in errs)
                counts, cert_failures = _certify_pass(batches, replies, machine)
                failures.extend(f"{label} chaos: {f}" for f in cert_failures)
                chaos_core = [_strip_provenance(r) for r in replies]
                identical = chaos_core == clean_core
                if not identical:
                    diverged = [
                        i
                        for i, (a, b) in enumerate(zip(chaos_core, clean_core))
                        if a != b
                    ]
                    failures.append(
                        f"{label} chaos: schedule payloads diverged from the "
                        f"fault-free run on requests {diverged}"
                    )
                retries = sum(
                    entry.get("worker_retries", 0)
                    for reply in replies
                    if reply is not None
                    for entry in reply["entries"]
                )
                record = _pass_record(lats, wall, replies, counts)
                record["identical"] = identical
                record["worker_retries"] = retries
                run["chaos"] = record
                drain = chaos_daemon.terminate(drain_deadline)
                if drain["exit_code"] != 0:
                    failures.append(
                        f"{label} chaos: SIGTERM drain exited "
                        f"{drain['exit_code']} (want 0)"
                    )
            except RuntimeError as exc:
                failures.append(str(exc))
            finally:
                chaos_daemon.kill()
        runs.append(run)

    payload = {
        "schema": SERVICE_BENCH_SCHEMA,
        "config": {
            "worker_counts": list(worker_counts),
            "clients": clients,
            "requests": requests,
            "blocks_per_request": blocks_per_request,
            "curtail": curtail,
            "master_seed": master_seed,
            "deadline": deadline,
            "chaos": chaos or None,
            "env": bench_environment(),
        },
        "runs": runs,
        "summary": {
            "ok": not failures,
            "failures": failures,
        },
    }
    if own_tmp and not failures:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
    return payload, failures
