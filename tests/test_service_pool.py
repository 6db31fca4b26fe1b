"""The production-hardened service: worker pool, chaos, admission, drain.

The service-level invariant under test mirrors the chunk-level one in
``test_resilience.py``, lifted one layer up: **every HTTP response is
either certified-identical to a fault-free run or explicitly degraded/
shed** — a worker crash, hang, or corrupted reply may cost latency and
provenance (``worker_retries``), never correctness, and never a 500.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.ir.dag import DependenceDAG
from repro.ir.textual import parse_block
from repro.machine.machine import first_pipeline_assignment
from repro.machine.presets import get_machine
from repro.resilience.budget import BudgetManager
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import SupervisorConfig
from repro.sched.search import SearchOptions
from repro.service import (
    PoolSaturated,
    ScheduleCache,
    SchedulingService,
    ServiceClient,
    ServiceClientError,
    WorkerPool,
    create_server,
)
from repro.resilience.pool import PoolJob
from repro.service.jobs import execute_job
from repro.service.server import SCHEMA
from repro.telemetry import Telemetry
from repro.verify.certificate import check_schedule

OPTIONS = SearchOptions(curtail=10_000)

BLOCKS = [
    "1: Load #a\n2: Const 7\n3: Mul 1, 2\n4: Add 3, 1\n5: Store #a, 4",
    "1: Load #x\n2: Load #y\n3: Add 1, 2\n4: Store #z, 3",
    "1: Const 1\n2: Const 2\n3: Add 1, 2\n4: Mul 3, 3\n5: Store #o, 4",
]


def _entry_core(entry):
    """An entry minus the provenance fields faults may legitimately vary."""
    return {
        k: v for k, v in entry.items() if k not in ("cache", "worker_retries")
    }


def _certify_entry(tuples, machine, entry):
    dag = DependenceDAG(parse_block(tuples))
    cert = check_schedule(
        dag.block,
        machine,
        tuple(entry["order"]),
        tuple(entry["etas"]),
        assignment=first_pipeline_assignment(dag, machine),
    )
    assert cert.ok, cert.summary()
    assert cert.required_nops == entry["total_nops"]


def _pooled_service(
    workers=2,
    fault_plan=None,
    cache=None,
    hang_timeout=60.0,
    max_retries=2,
    queue_limit=32,
    pool_queue_limit=256,
    budget=None,
):
    pool = WorkerPool(
        workers,
        execute_job,
        context=cache.store_only() if cache is not None else None,
        config=SupervisorConfig(
            hang_timeout=hang_timeout,
            max_retries=max_retries,
            backoff_base=0.05,
            backoff_cap=0.2,
        ),
        fault_plan=fault_plan,
        queue_limit=pool_queue_limit,
    ).start()
    return SchedulingService(
        cache=cache, options=OPTIONS, pool=pool, queue_limit=queue_limit,
        budget=budget,
    )


@pytest.fixture
def baseline_reply():
    """The fault-free inline answer every chaos variant must reproduce."""
    service = SchedulingService(cache=None, options=OPTIONS)
    return service.schedule_batch(
        {"schema": SCHEMA, "machine": "paper-simulation",
         "blocks": [{"tuples": t} for t in BLOCKS]}
    )


def _run_batch(service, **overrides):
    payload = {
        "schema": SCHEMA,
        "machine": "paper-simulation",
        "blocks": [{"tuples": t} for t in BLOCKS],
    }
    payload.update(overrides)
    try:
        return service.schedule_batch(payload)
    finally:
        if service.pool is not None:
            service.pool.stop(drain_timeout=5.0)


class TestWorkerPool:
    def test_pooled_round_trip_matches_inline(self, baseline_reply):
        reply = _run_batch(_pooled_service(workers=2))
        assert reply["schema"] == SCHEMA
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert all(e["worker_retries"] == 0 for e in reply["entries"])

    def test_worker_crash_recovery_bit_identical(self, baseline_reply):
        # Satellite 4: a seeded FaultPlan kills a worker mid-request;
        # the reply must be bit-identical to the fault-free run, with
        # the retries visible only in provenance and telemetry.
        plan = FaultPlan(seed=7, crash_rate=1.0, max_faults_per_chunk=1)
        service = _pooled_service(workers=2, fault_plan=plan)
        reply = _run_batch(service)
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert all(e["worker_retries"] == 1 for e in reply["entries"])
        assert service.telemetry.counters["pool.crashes"] == len(BLOCKS)
        assert service.telemetry.counters["pool.retries"] == len(BLOCKS)
        assert "pool.degraded" not in service.telemetry.counters

    def test_corrupt_reply_detected_and_retried(self, baseline_reply):
        plan = FaultPlan(seed=11, corrupt_rate=1.0, max_faults_per_chunk=1)
        service = _pooled_service(workers=2, fault_plan=plan)
        reply = _run_batch(service)
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert (
            service.telemetry.counters["pool.corrupt_replies"]
            == len(BLOCKS)
        )

    def test_hung_worker_killed_and_retried(self, baseline_reply):
        plan = FaultPlan(
            seed=3, hang_rate=1.0, hang_seconds=30.0, max_faults_per_chunk=1
        )
        service = _pooled_service(workers=2, fault_plan=plan, hang_timeout=1.0)
        reply = _run_batch(service)
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert service.telemetry.counters["pool.hangs"] == len(BLOCKS)

    def test_persistent_crash_degrades_to_list_seed(self):
        # Every attempt crashes: past max_retries the entry degrades to
        # the list-schedule seed with explicit provenance — never a 500,
        # never a silent wrong answer (the seed still certifies).
        plan = FaultPlan(seed=5, crash_rate=1.0, max_faults_per_chunk=99)
        service = _pooled_service(workers=2, fault_plan=plan, max_retries=1)
        reply = _run_batch(service)
        machine = get_machine("paper-simulation")
        for tuples, entry in zip(BLOCKS, reply["entries"]):
            assert entry["degraded"] is True
            assert entry["completed"] is False
            assert entry["ladder"] == "list-seed"
            assert entry["worker_retries"] == 2  # max_retries + 1 attempts
            _certify_entry(tuples, machine, entry)
        assert reply["stats"]["degraded"] == len(BLOCKS)

    def test_only_workers_write_the_cache(self, tmp_path):
        cache = ScheduleCache(path=str(tmp_path / "store"))
        service = _pooled_service(workers=2, cache=cache)
        reply = _run_batch(service)
        assert [e["cache"] for e in reply["entries"]] == ["miss"] * len(BLOCKS)
        # The workers wrote through the shared store: a fresh cache over
        # the same directory serves every block without searching.
        local = ScheduleCache(path=str(tmp_path / "store"))
        machine = get_machine("paper-simulation")
        for tuples in BLOCKS:
            _, status = local.schedule_with_status(
                DependenceDAG(parse_block(tuples)), machine, OPTIONS
            )
            assert status == "hit"

    def test_pool_rejects_oversized_batch(self):
        pool = WorkerPool(1, execute_job, queue_limit=2)
        jobs = [
            PoolJob(("b", BLOCKS[0], "paper-simulation", OPTIONS, None))
            for _ in range(3)
        ]
        with pytest.raises(PoolSaturated) as exc:
            pool.submit(jobs)
        assert exc.value.retry_after >= 1.0


def _primed_store(tmp_path, blocks=BLOCKS):
    """A disk store holding every block of ``blocks``, solved inline."""
    store = str(tmp_path / "store")
    SchedulingService(cache=ScheduleCache(path=store), options=OPTIONS).schedule_batch(
        {"schema": SCHEMA, "machine": "paper-simulation",
         "blocks": [{"tuples": t} for t in blocks]}
    )
    return store


def _inline_reply(store, budget=None):
    """The ``--workers 0`` answer to the standard batch over ``store``."""
    service = SchedulingService(
        cache=ScheduleCache(path=store), options=OPTIONS, budget=budget
    )
    return service.schedule_batch(
        {"schema": SCHEMA, "machine": "paper-simulation",
         "blocks": [{"tuples": t} for t in BLOCKS]}
    )


def _spy_submissions(service):
    """Record every job the service submits to its pool."""
    submitted = []
    submit = service.pool.submit

    def spy(jobs):
        submitted.extend(jobs)
        return submit(jobs)

    service.pool.submit = spy
    return submitted


class TestFrontEndHits:
    """Stored blocks are answered by the front end, never by a worker."""

    def test_all_hit_batch_submits_no_pool_job(self, tmp_path):
        service = _pooled_service(cache=ScheduleCache(path=_primed_store(tmp_path)))
        submitted = _spy_submissions(service)
        reply = _run_batch(service)
        assert submitted == []
        assert [e["cache"] for e in reply["entries"]] == ["hit"] * len(BLOCKS)

    def test_hit_reply_equals_inline_reply_field_for_field(self, tmp_path):
        store = _primed_store(tmp_path)
        reply = _run_batch(_pooled_service(cache=ScheduleCache(path=store)))
        # Every field, provenance included: cache, omega_calls, ladder,
        # worker_retries, index and the batch stats.
        assert reply == _inline_reply(store)

    def test_store_less_daemon_hits_after_a_worker_miss(self, baseline_reply):
        # No disk store: the worker's reply hands its new entry to the
        # front end's memory tier, so the next request hits there.
        service = _pooled_service(cache=ScheduleCache())
        payload = {"schema": SCHEMA, "machine": "paper-simulation",
                   "blocks": [{"tuples": t} for t in BLOCKS]}
        try:
            first = service.schedule_batch(payload)
            submitted = _spy_submissions(service)
            second = service.schedule_batch(payload)
        finally:
            service.pool.stop(drain_timeout=5.0)
        assert [e["cache"] for e in first["entries"]] == ["miss"] * len(BLOCKS)
        assert submitted == []
        assert [e["cache"] for e in second["entries"]] == ["hit"] * len(BLOCKS)
        assert [_entry_core(e) for e in second["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert all("stored" not in e for e in first["entries"])

    @pytest.mark.parametrize("tamper", ["key", "order", "etas"])
    def test_tampered_entry_is_quarantined_and_searched_by_a_worker(
        self, tmp_path, tamper
    ):
        store = _primed_store(tmp_path, BLOCKS[:1])
        (path,) = [
            os.path.join(root, f)
            for root, _, files in os.walk(store)
            for f in files
            if f.endswith(".json")
        ]
        entry = json.loads(open(path).read())
        key = entry["key"]
        n = len(entry["best"]["order"])
        if tamper == "key":
            entry["key"] = "0" * 64
        elif tamper == "order":
            entry["best"]["order"] = [0] * n  # not a permutation
        else:
            entry["best"]["etas"] = ["x"] * n  # not NOP counts
        with open(path, "w") as fh:
            fh.write(json.dumps(entry))

        service = _pooled_service(cache=ScheduleCache(path=store))
        submitted = _spy_submissions(service)
        reply = _run_batch(service, blocks=[{"tuples": BLOCKS[0]}])
        (got,) = reply["entries"]
        assert len(submitted) == 1
        assert got["cache"] == "miss"
        assert got["completed"] is True and got["degraded"] is False
        assert got["worker_retries"] == 0
        _certify_entry(BLOCKS[0], get_machine("paper-simulation"), got)
        assert service.telemetry.counters["service.cache.quarantined"] == 1
        assert "service.cache.hits" not in service.telemetry.counters
        assert os.path.exists(os.path.join(store, "quarantine", key + ".json"))
        # The worker rewrote the slot: a fresh cache serves it again.
        _, status = ScheduleCache(path=store).schedule_with_status(
            DependenceDAG(parse_block(BLOCKS[0])),
            get_machine("paper-simulation"),
            OPTIONS,
        )
        assert status == "hit"

    def test_all_hit_batch_survives_crashing_workers(self, tmp_path):
        # Every worker attempt crashes; hits never reach a worker, so
        # the batch still answers in full, undegraded.
        store = _primed_store(tmp_path)
        plan = FaultPlan(seed=5, crash_rate=1.0, max_faults_per_chunk=99)
        service = _pooled_service(
            fault_plan=plan, cache=ScheduleCache(path=store), max_retries=1
        )
        reply = _run_batch(service)
        assert reply == _inline_reply(store)
        assert all(not e["degraded"] for e in reply["entries"])
        assert "pool.crashes" not in service.telemetry.counters

    def test_concurrent_hits_lose_no_count(self, tmp_path):
        # HTTP threads serve hits side by side: every reply is the
        # inline one and every hit reaches the shared registry.
        store = _primed_store(tmp_path)
        expected = _inline_reply(store)
        service = _pooled_service(cache=ScheduleCache(path=store))
        payload = {"schema": SCHEMA, "machine": "paper-simulation",
                   "blocks": [{"tuples": t} for t in BLOCKS]}
        replies = []

        def client():
            for _ in range(5):
                replies.append(service.schedule_batch(payload))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            service.pool.stop(drain_timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        assert replies == [expected] * 20
        assert service.telemetry.counters["service.cache.hits"] == 20 * len(BLOCKS)
        assert service.telemetry.counters["service.requests"] == 20

    def test_hit_charges_the_daemon_budget_the_cached_omega(self, tmp_path):
        store = _primed_store(tmp_path)
        budget = BudgetManager(run_omega_cap=10**9)
        service = _pooled_service(cache=ScheduleCache(path=store), budget=budget)
        reply = _run_batch(service)
        inline_budget = BudgetManager(run_omega_cap=10**9)
        _inline_reply(store, budget=inline_budget)
        spent = sum(e["omega_calls"] for e in reply["entries"])
        assert spent > 0
        assert budget.omega_spent == spent == inline_budget.omega_spent


class TestAdmissionControl:
    def test_429_with_retry_after(self):
        # A batch larger than the pool queue saturates admission
        # atomically — the whole request is shed with a structured 429.
        service = _pooled_service(workers=1, pool_queue_limit=2)
        server, url = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url, max_retries=0)
            with pytest.raises(ServiceClientError) as exc:
                client.schedule([BLOCKS[0]] * 3, "paper-simulation")
            assert exc.value.status == 429
            assert exc.value.retry_after is not None
            assert exc.value.retry_after >= 1.0
            assert (
                service.telemetry.counters["service.shed_requests"] == 1
            )
            # The daemon is still healthy and serves the next request.
            reply = client.schedule([BLOCKS[0]], "paper-simulation")
            assert reply["entries"][0]["completed"] is True
        finally:
            server.shutdown()
            server.server_close()
            service.pool.stop(drain_timeout=5.0)
            thread.join(timeout=5)


class TestDeadlines:
    def test_exhausted_deadline_sheds_with_provenance(self):
        service = SchedulingService(cache=None, options=OPTIONS)
        reply = service.schedule_batch(
            {"schema": SCHEMA, "machine": "paper-simulation",
             "blocks": [{"tuples": t} for t in BLOCKS],
             "deadline": 1e-6}
        )
        machine = get_machine("paper-simulation")
        shed = [e for e in reply["entries"] if e["shed"]]
        # The first block may sneak under the deadline; the rest shed.
        assert len(shed) >= len(BLOCKS) - 1
        for entry in shed:
            assert entry["degraded"] is True
            assert entry["ladder"] == "list-seed"
        for tuples, entry in zip(BLOCKS, reply["entries"]):
            _certify_entry(tuples, machine, entry)
        assert reply["stats"]["shed"] == len(shed)

    def test_generous_deadline_is_invisible(self, baseline_reply):
        service = SchedulingService(cache=None, options=OPTIONS)
        reply = service.schedule_batch(
            {"schema": SCHEMA, "machine": "paper-simulation",
             "blocks": [{"tuples": t} for t in BLOCKS],
             "deadline": 300.0}
        )
        assert [_entry_core(e) for e in reply["entries"]] == [
            _entry_core(e) for e in baseline_reply["entries"]
        ]
        assert all(not e["shed"] for e in reply["entries"])

    @pytest.mark.parametrize("bad", [0, -1, "soon", float("inf"), True])
    def test_invalid_deadline_is_a_400(self, bad):
        from repro.service import ServiceError

        service = SchedulingService(options=OPTIONS)
        with pytest.raises(ServiceError):
            service.schedule_batch(
                {"schema": SCHEMA, "machine": "paper-simulation",
                 "blocks": [{"tuples": BLOCKS[0]}], "deadline": bad}
            )


@pytest.fixture
def raw_service():
    """An in-process daemon plus a raw-socket sender for malformed HTTP."""
    service = SchedulingService(cache=None, options=OPTIONS)
    server, url = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = url[len("http://"):].rsplit(":", 1)

    def send(raw, read_reply=True):
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(raw)
            if not read_reply:
                return b""
            sock.settimeout(10)
            chunks = []
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except socket.timeout:
                pass
            return b"".join(chunks)

    try:
        yield service, url, send
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestRequestBodyEdgeCases:
    """Malformed bodies get clean 4xx answers, never a traceback."""

    def test_missing_content_length(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Traceback" not in reply

    def test_invalid_content_length(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 400")

    def test_negative_content_length(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -5\r\n\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 400")

    def test_oversized_body_is_413_without_reading_it(self, raw_service):
        _, _, send = raw_service
        reply = send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999\r\n\r\n" + b"x" * 1024
        )
        assert reply.startswith(b"HTTP/1.1 413")

    def test_disconnect_mid_body(self, raw_service):
        service, url, send = raw_service
        # Promise 1 MiB, send 10 bytes, hang up.  The daemon must log a
        # clean 400 path internally and keep serving.
        send(
            b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 1048576\r\n\r\n" + b"x" * 10,
            read_reply=False,
        )
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if service.telemetry.counters.get("service.http.bad_bodies"):
                break
            time.sleep(0.02)
        assert service.telemetry.counters.get("service.http.bad_bodies", 0) >= 1
        client = ServiceClient(url)
        assert client.health()["ok"] is True
        reply = client.schedule([BLOCKS[0]], "paper-simulation")
        assert reply["entries"][0]["completed"] is True


def _schedule_request(length_header=b"Content-Length"):
    body = json.dumps({"schema": SCHEMA, "machine": "paper-simulation",
                       "blocks": [{"tuples": BLOCKS[0]}]}).encode()
    return (b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            + length_header + b": %d\r\n\r\n" % len(body) + body)


def _address(url):
    host, port = url[len("http://"):].rsplit(":", 1)
    return host, int(port)


def _read_reply(rfile):
    """One response from ``rfile``: status line, headers (names
    lower-cased) and the decoded JSON body."""
    status = rfile.readline()
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(rfile.read(int(headers["content-length"])))


class TestHttpSubset:
    """The front end's HTTP subset: refusals answer JSON and close the
    connection; HTTP/1.1 keeps it open, HTTP/1.0 closes it."""

    @pytest.mark.parametrize("raw, status", [
        (b"GARBAGE\r\n\r\n", b"400"),
        (b"PUT /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}", b"501"),
        (b"GET /v1/health HTTP/2.0\r\n\r\n", b"505"),
        (b"GET /" + b"a" * 70 * 1024 + b" HTTP/1.1\r\n\r\n", b"414"),
        (b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"a" * 70 * 1024 + b"\r\n\r\n", b"431"),
        (b"GET /v1/health HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n", b"431"),
    ], ids=["garbage", "put", "http2", "long-line", "long-header", "101-headers"])
    def test_refusals_are_json_and_close(self, raw_service, raw, status):
        _, _, send = raw_service
        reply = send(raw)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 " + status + b" ")
        assert b"\r\nConnection: close" in head
        assert b"Traceback" not in reply
        assert "error" in json.loads(body)

    def test_refusal_reaches_a_client_still_sending(self, raw_service):
        # The daemon refuses after the headers and reads on past its
        # reply: closing over 4 MiB of unread input would reset the
        # connection, and the client would get an error, not the 413.
        _, _, send = raw_service
        reply = send(b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 999999999\r\n\r\n" + b"x" * (4 << 20))
        assert reply.startswith(b"HTTP/1.1 413 ")

    def test_hundred_headers_are_accepted(self, raw_service):
        _, _, send = raw_service
        reply = send(b"GET /v1/health/live HTTP/1.1\r\nConnection: close\r\n"
                     + b"".join(b"X-H%d: v\r\n" % i for i in range(99)) + b"\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_transfer_encoding_is_refused_and_closes(self, raw_service):
        _, url, _ = raw_service
        raw = _schedule_request().replace(
            b"Host: x\r\n", b"Host: x\r\nTransfer-Encoding: chunked\r\n"
        )
        with socket.create_connection(_address(url), timeout=10) as sock:
            sock.sendall(raw)
            rfile = sock.makefile("rb")
            status, headers, body = _read_reply(rfile)
            assert status.startswith(b"HTTP/1.1 400 ")
            assert "Transfer-Encoding" in body["error"]
            assert headers["connection"] == "close"
            assert rfile.read() == b""

    def test_http10_is_answered_then_closed(self, raw_service):
        _, url, _ = raw_service
        with socket.create_connection(_address(url), timeout=10) as sock:
            sock.sendall(b"GET /v1/health/live HTTP/1.0\r\n\r\n")
            rfile = sock.makefile("rb")
            status, headers, body = _read_reply(rfile)
            assert status.startswith(b"HTTP/1.1 200 ")
            assert body["ok"] is True
            assert rfile.read() == b""

    def test_http11_keeps_the_connection_for_later_requests(self, raw_service):
        _, url, _ = raw_service
        with socket.create_connection(_address(url), timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(_schedule_request())
            status, headers, body = _read_reply(rfile)
            assert status.startswith(b"HTTP/1.1 200 ")
            assert body["entries"][0]["completed"] is True
            assert headers["server"] == "repro-serve/2"
            assert headers["date"].endswith(" GMT")
            assert time.strptime(headers["date"], "%a, %d %b %Y %H:%M:%S GMT")
            # A GET's body is read past, not parsed as the next request.
            sock.sendall(b"GET /v1/health/live HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
                         b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, _, body = _read_reply(rfile)
            assert status.startswith(b"HTTP/1.1 200 ")
            status, _, body = _read_reply(rfile)
            assert status.startswith(b"HTTP/1.1 200 ")
            assert "counters" in body
            assert rfile.read() == b""

    def test_header_names_are_case_insensitive(self, raw_service):
        _, _, send = raw_service
        reply = send(_schedule_request(b"content-length").replace(
            b"Host: x\r\n", b"Host: x\r\nconnection: CLOSE\r\n"
        ))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["entries"][0]["completed"] is True


class TestHealthEndpoints:
    def test_liveness_and_readiness_split(self):
        service = _pooled_service(workers=1)
        server, url = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url, max_retries=0)
            assert client.live()["ok"] is True
            ready = client.ready()
            assert ready["ok"] is True
            assert ready["checks"]["workers"] is True
            assert ready["checks"]["engine"] is True
            # Draining: still alive, no longer ready (503).
            service.begin_drain()
            assert client.live()["ok"] is True
            with pytest.raises(ServiceClientError) as exc:
                client.ready()
            assert exc.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            service.pool.stop(drain_timeout=5.0)
            thread.join(timeout=5)


    def test_concurrent_readiness_probes_never_flap(self, tmp_path):
        # Concurrent store probes must not unlink each other's file and
        # read a healthy store as "not writable" (a 503 flap).
        service = SchedulingService(
            cache=ScheduleCache(path=str(tmp_path / "store")), options=OPTIONS
        )
        failures = []

        def probe():
            for _ in range(1000):
                if not service._store_writable():
                    failures.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert os.listdir(tmp_path / "store") == []


class TestCacheQuarantine:
    def _prime(self, tmp_path):
        store = str(tmp_path / "store")
        cache = ScheduleCache(path=store)
        dag = DependenceDAG(parse_block(BLOCKS[0]))
        machine = get_machine("paper-simulation")
        cache.schedule(dag, machine, OPTIONS)
        # Entries live in two-character shard directories.
        (path,) = [
            os.path.join(root, f)
            for root, _, files in os.walk(store)
            for f in files
            if f.endswith(".json")
        ]
        return store, path, dag, machine

    def test_torn_entry_is_quarantined_not_fatal(self, tmp_path, capsys):
        store, path, dag, machine = self._prime(tmp_path)
        with open(path, "w") as fh:
            fh.write('{"schema": "repro-schedule-cache/1", "key"')  # torn
        telemetry = Telemetry()
        fresh = ScheduleCache(path=store)
        result, status = fresh.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        assert status == "miss"  # recomputed, no crash
        assert result.completed
        assert telemetry.counters["service.cache.quarantined"] == 1
        key = os.path.basename(path)[: -len(".json")]
        qdir = os.path.join(store, "quarantine")
        assert os.path.exists(os.path.join(qdir, key + ".json"))
        reason = open(os.path.join(qdir, key + ".json.reason")).read()
        assert "torn" in reason
        assert "quarantined corrupt entry" in capsys.readouterr().err

    def test_key_mismatch_is_quarantined(self, tmp_path):
        store, path, dag, machine = self._prime(tmp_path)
        entry = json.loads(open(path).read())
        entry["key"] = "0" * 64
        with open(path, "w") as fh:
            fh.write(json.dumps(entry))
        telemetry = Telemetry()
        fresh = ScheduleCache(path=store)
        _, status = fresh.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        assert status == "miss"
        assert telemetry.counters["service.cache.quarantined"] == 1

    def test_schema_skew_is_a_plain_miss(self, tmp_path):
        # A future/old schema version is not corruption: silently miss.
        store, path, dag, machine = self._prime(tmp_path)
        entry = json.loads(open(path).read())
        entry["schema"] = "repro-schedule-cache/99"
        with open(path, "w") as fh:
            fh.write(json.dumps(entry))
        telemetry = Telemetry()
        fresh = ScheduleCache(path=store)
        _, status = fresh.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        assert status == "miss"
        assert "service.cache.quarantined" not in telemetry.counters
        assert not os.path.exists(os.path.join(store, "quarantine"))


class TestClientRetries:
    def _flaky_server(self, failures, status=500, retry_after=None):
        from http.server import BaseHTTPRequestHandler, HTTPServer

        state = {"left": failures, "hits": 0}

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - stdlib naming
                state["hits"] += 1
                if state["left"] > 0:
                    state["left"] -= 1
                    self.send_response(status)
                    if retry_after is not None:
                        self.send_header("Retry-After", str(retry_after))
                    body = b'{"error": "flaky"}'
                else:
                    self.send_response(200)
                    body = b'{"ok": true, "schema": "%s"}' % SCHEMA.encode()
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        return server, thread, url, state

    def test_retries_5xx_then_succeeds(self):
        server, thread, url, state = self._flaky_server(failures=2)
        try:
            telemetry = Telemetry()
            client = ServiceClient(
                url, max_retries=3, backoff=0.01, telemetry=telemetry
            )
            assert client.health()["ok"] is True
            assert state["hits"] == 3
            assert telemetry.counters["service.client.retries"] == 2
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_respects_retry_after_on_429(self):
        server, thread, url, state = self._flaky_server(
            failures=1, status=429, retry_after=0.05
        )
        try:
            client = ServiceClient(url, max_retries=1, backoff=0.001)
            start = time.monotonic()
            assert client.health()["ok"] is True
            assert time.monotonic() - start >= 0.05
            assert state["hits"] == 2
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_400_is_not_retried(self):
        server, thread, url, state = self._flaky_server(failures=99, status=400)
        try:
            client = ServiceClient(url, max_retries=3, backoff=0.01)
            with pytest.raises(ServiceClientError) as exc:
                client.health()
            assert exc.value.status == 400
            assert state["hits"] == 1
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_exhausted_retries_raise_last_error(self):
        server, thread, url, state = self._flaky_server(failures=99)
        try:
            client = ServiceClient(url, max_retries=2, backoff=0.01)
            with pytest.raises(ServiceClientError) as exc:
                client.health()
            assert exc.value.status == 500
            assert state["hits"] == 3
        finally:
            server.shutdown()
            thread.join(timeout=5)

    @pytest.mark.parametrize(
        "kwargs", [{"max_retries": -1}, {"backoff": -0.5}, {"timeout": 0}]
    )
    def test_ctor_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceClient("http://localhost:1", **kwargs)


class TestGracefulDrain:
    """SIGTERM under load: finish in-flight work, flush, exit 0."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        ready = tmp_path / "ready.json"
        stats = tmp_path / "stats.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.console", "serve",
                "--port", "0", "--no-cache", "--workers", "2",
                "--curtail", "10000",
                "--ready-file", str(ready),
                "--stats-json", str(stats),
                "--drain-timeout", "20",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, "daemon never became ready"
                time.sleep(0.05)
            url = json.loads(ready.read_text())["url"]
            client = ServiceClient(url, timeout=120.0)

            replies = []

            def fire():
                replies.append(client.schedule(BLOCKS, "paper-simulation"))

            worker = threading.Thread(target=fire)
            worker.start()
            time.sleep(0.1)  # let the request reach the pool
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=60)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out.decode()
            assert b"drained on SIGTERM" in out
            # In-flight work resolved (finished or degraded — never lost)
            # and telemetry was flushed on the way out.
            assert len(replies) == 1
            for entry in replies[0]["entries"]:
                assert entry["completed"] or entry["degraded"]
            flushed = json.loads(stats.read_text())
            assert flushed["counters"]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestDaemonDeath:
    """A daemon killed outright takes its workers with it."""

    #: How long an orphaned worker may take to notice its daemon died.
    EXIT_WITHIN = 10.0

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
    )
    def test_worker_exits_when_its_idle_daemon_is_killed(self, tmp_path):
        import repro

        from .test_service_libraries import _children

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        ready = tmp_path / "ready.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.console", "serve", "--port", "0",
             "--no-cache", "--workers", "1", "--ready-file", str(ready)],
            env=dict(os.environ, PYTHONPATH=src_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, "daemon never became ready"
                time.sleep(0.05)
            workers = _children(proc.pid)
            assert len(workers) == 1
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + self.EXIT_WITHIN
            while running(workers[0]) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not running(workers[0]), (
                f"worker {workers[0]} outlived its SIGKILLed daemon by "
                f"{self.EXIT_WITHIN:.0f} s"
            )
            # No process holds the caller's stdout pipe any more.
            proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()
