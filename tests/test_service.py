"""The scheduling service: result cache, daemon, and client.

The load-bearing invariant is *bit-for-bit transparency*: a cache-hit
``SearchResult`` equals the cold fast-engine result in every field
except ``elapsed_seconds``, passes the independent certificate checker,
and this holds across ident renamings, the disk tier, pickled workers,
and the HTTP daemon.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import threading

import pytest
from hypothesis import given, settings

from repro.driver import compile_source
from repro.ir.dag import DependenceDAG
from repro.ir.textual import format_block, parse_block
from repro.machine.machine import first_pipeline_assignment
from repro.machine.presets import get_machine
from repro.sched.search import SearchOptions, schedule_block
from repro.service import (
    CacheIntegrityError,
    ScheduleCache,
    SchedulingService,
    ServiceClient,
    ServiceClientError,
    ServiceError,
    create_server,
)
from repro.service.server import SCHEMA
from repro.synth.kernels import KERNELS
from repro.telemetry import Telemetry
from repro.verify.certificate import check_schedule

from .strategies import blocks, machines, rename_block

OPTIONS = SearchOptions(curtail=10_000)


def _strip(result):
    """SearchResult minus the one field wall clock is allowed to vary."""
    return dataclasses.replace(result, elapsed_seconds=0.0)


def _certify(dag, machine, timing):
    cert = check_schedule(
        dag.block,
        machine,
        timing.order,
        timing.etas,
        assignment=first_pipeline_assignment(dag, machine),
    )
    assert cert.ok, cert.summary()
    assert cert.required_nops == timing.total_nops


def _kernel_dag(kernel, name=None):
    block = compile_source(
        kernel.source,
        get_machine("paper-simulation"),
        scheduler="none",
        name=name or kernel.name,
    ).block
    return DependenceDAG(block)


class TestCacheTransparency:
    @pytest.mark.parametrize("preset", ["paper-simulation", "deep-memory"])
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_kernel_round_trip(self, kernel, preset):
        machine = get_machine(preset)
        dag = _kernel_dag(kernel)
        cold = schedule_block(dag, machine, OPTIONS)
        cache = ScheduleCache()
        telemetry = Telemetry()
        first, s1 = cache.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        second, s2 = cache.schedule_with_status(
            dag, machine, OPTIONS, telemetry=telemetry
        )
        assert (s1, s2) == ("miss", "hit")
        assert _strip(first) == _strip(cold)
        assert _strip(second) == _strip(cold)
        _certify(dag, machine, second.best)
        assert telemetry.counters["service.cache.hits"] == 1
        assert telemetry.counters["service.cache.misses"] == 1

    @settings(max_examples=40, deadline=None)
    @given(blocks(max_size=7), machines(max_pipelines=3))
    def test_fuzzed_round_trip(self, block, machine):
        dag = DependenceDAG(block)
        cold = schedule_block(dag, machine, OPTIONS)
        cache = ScheduleCache()
        hit, status = (
            cache.schedule(dag, machine, OPTIONS),
            cache.schedule_with_status(dag, machine, OPTIONS)[1],
        )
        assert status == "hit"
        assert _strip(hit) == _strip(cold)
        _certify(dag, machine, hit.best)

    def test_renamed_block_is_served_translated(self):
        machine = get_machine("paper-simulation")
        block = parse_block(
            "1: Load #a\n2: Const 7\n3: Mul 1, 2\n4: Add 3, 1\n5: Store #a, 4"
        )
        mapping = {1: 11, 2: 7, 3: 9, 4: 3, 5: 5}
        renamed = rename_block(block, mapping)
        cache = ScheduleCache()
        cache.schedule(DependenceDAG(block), machine, OPTIONS)

        dag2 = DependenceDAG(renamed)
        served, status = cache.schedule_with_status(dag2, machine, OPTIONS)
        assert status == "hit"
        # The hit must be indistinguishable from solving the renamed
        # block cold: same orders in the *renamed* namespace, same
        # certificates, same search accounting.
        cold = schedule_block(dag2, machine, OPTIONS)
        assert _strip(served) == _strip(cold)
        assert set(served.best.order) == set(dag2.idents)
        _certify(dag2, machine, served.best)

    def test_fast_result_served_to_vector_request(self, figure3_dag):
        # The canonical key excludes the engine, so a result solved
        # under "fast" must be a hit for a request naming the removed
        # "vector" engine — and indistinguishable from solving the block
        # cold under that name (which runs "fast").
        machine = get_machine("paper-simulation")
        fast_opts = dataclasses.replace(OPTIONS, engine="fast")
        vector_opts = dataclasses.replace(OPTIONS, engine="vector")
        cache = ScheduleCache()
        warm, s1 = cache.schedule_with_status(figure3_dag, machine, fast_opts)
        served, s2 = cache.schedule_with_status(
            figure3_dag, machine, vector_opts
        )
        assert (s1, s2) == ("miss", "hit")
        assert _strip(served) == _strip(warm)
        cold = schedule_block(figure3_dag, machine, vector_opts)
        assert _strip(served) == _strip(cold)
        _certify(figure3_dag, machine, served.best)


class TestCacheTiers:
    def test_disk_tier_survives_process_boundary(self, tmp_path, figure3_dag):
        machine = get_machine("paper-simulation")
        store = str(tmp_path / "store")
        warm = ScheduleCache(path=store)
        cold_result = warm.schedule(figure3_dag, machine, OPTIONS)

        fresh = ScheduleCache(path=store)  # simulates a new process
        served, status = fresh.schedule_with_status(figure3_dag, machine, OPTIONS)
        assert status == "hit"
        assert _strip(served) == _strip(cold_result)

    def test_pickled_cache_reopens_store(self, tmp_path, figure3_dag):
        machine = get_machine("paper-simulation")
        cache = ScheduleCache(path=str(tmp_path / "store"))
        cache.schedule(figure3_dag, machine, OPTIONS)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.path == cache.path
        _, status = clone.schedule_with_status(figure3_dag, machine, OPTIONS)
        assert status == "hit"

    def test_memory_lru_eviction(self, figure3_dag):
        machine = get_machine("paper-simulation")
        cache = ScheduleCache(memory_entries=1)
        cache.schedule(figure3_dag, machine, OPTIONS)
        # A second problem evicts the first from the (path-less) cache.
        other = DependenceDAG(parse_block("1: Load #a\n2: Store #b, 1"))
        cache.schedule(other, machine, OPTIONS)
        _, status = cache.schedule_with_status(figure3_dag, machine, OPTIONS)
        assert status == "miss"

    def test_tampered_disk_entry_degrades_to_miss(self, tmp_path, figure3_dag):
        machine = get_machine("paper-simulation")
        store = tmp_path / "store"
        cache = ScheduleCache(path=str(store))
        cache.schedule(figure3_dag, machine, OPTIONS)
        entries = list(store.rglob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{ torn json", encoding="utf-8")

        fresh = ScheduleCache(path=str(store))
        result, status = fresh.schedule_with_status(figure3_dag, machine, OPTIONS)
        assert status == "miss"  # re-solved, not crashed
        assert _strip(result) == _strip(schedule_block(figure3_dag, machine, OPTIONS))
        # ... and the store healed itself.
        assert json.loads(entries[0].read_text())["schema"] == "repro-cache/2"

    def test_wrong_schema_entry_degrades_to_miss(self, tmp_path, figure3_dag):
        machine = get_machine("paper-simulation")
        store = tmp_path / "store"
        cache = ScheduleCache(path=str(store))
        cache.schedule(figure3_dag, machine, OPTIONS)
        entry = next(iter(store.rglob("*.json")))
        data = json.loads(entry.read_text())
        data["schema"] = "repro-cache/999"
        entry.write_text(json.dumps(data), encoding="utf-8")
        _, status = ScheduleCache(path=str(store)).schedule_with_status(
            figure3_dag, machine, OPTIONS
        )
        assert status == "miss"

    def test_version_1_entry_is_a_miss_and_gets_replaced(
        self, tmp_path, figure3_dag
    ):
        """Entries from before the release-deadline bound carry another
        search's counters: a plain miss (never quarantined), overwritten
        by the re-solved entry, which then hits like a cold search."""
        machine = get_machine("paper-simulation")
        store = tmp_path / "store"
        ScheduleCache(path=str(store)).schedule(figure3_dag, machine, OPTIONS)
        entry = next(iter(store.rglob("*.json")))
        data = json.loads(entry.read_text())
        data["schema"] = "repro-cache/1"
        data["omega_calls"] = data["omega_calls"] + 1000
        entry.write_text(json.dumps(data), encoding="utf-8")

        telemetry = Telemetry()
        result, status = ScheduleCache(path=str(store)).schedule_with_status(
            figure3_dag, machine, OPTIONS, telemetry=telemetry
        )
        assert status == "miss"
        assert telemetry.counters.get("service.cache.quarantined", 0) == 0
        assert not (store / "quarantine").exists()
        assert json.loads(entry.read_text())["schema"] == "repro-cache/2"
        cold = schedule_block(figure3_dag, machine, OPTIONS)
        assert _strip(result) == _strip(cold)
        hit, status = ScheduleCache(path=str(store)).schedule_with_status(
            figure3_dag, machine, OPTIONS
        )
        assert status == "hit"
        assert _strip(hit) == _strip(cold)


class TestCacheSafety:
    def test_time_limited_searches_bypass(self, figure3_dag):
        machine = get_machine("paper-simulation")
        cache = ScheduleCache()
        telemetry = Telemetry()
        limited = dataclasses.replace(OPTIONS, time_limit=60.0)
        for _ in range(2):
            _, status = cache.schedule_with_status(
                figure3_dag, machine, limited, telemetry=telemetry
            )
            assert status == "bypass"
        assert telemetry.counters["service.cache.bypass"] == 2
        assert "service.cache.hits" not in telemetry.counters

    def test_corrupt_result_refused_on_insert(self, figure3_dag, monkeypatch):
        machine = get_machine("paper-simulation")

        def corrupt(dag, machine, options, **kwargs):
            result = schedule_block(dag, machine, options, **kwargs)
            broken = dataclasses.replace(
                result.best, etas=tuple(e + 1 for e in result.best.etas)
            )
            return dataclasses.replace(result, best=broken)

        monkeypatch.setattr("repro.service.cache.schedule_block", corrupt)
        cache = ScheduleCache()
        with pytest.raises(CacheIntegrityError):
            cache.schedule(figure3_dag, machine, OPTIONS)
        # Nothing was poisoned: the (unpatched) next call is a miss.
        monkeypatch.undo()
        _, status = cache.schedule_with_status(figure3_dag, machine, OPTIONS)
        assert status == "miss"

    def test_rejects_empty_lru(self):
        with pytest.raises(ValueError):
            ScheduleCache(memory_entries=0)


class TestPopulationIntegration:
    def test_warm_store_serves_identical_records(self, tmp_path):
        from repro.experiments.runner import run_population

        store = str(tmp_path / "store")
        n, curtail, seed = 14, 2_000, 7
        options = SearchOptions(curtail=curtail)

        cold_telemetry = Telemetry()
        cold = run_population(
            n, curtail, seed, options=options,
            telemetry=cold_telemetry,
            cache=ScheduleCache(path=store),
        )
        assert cold_telemetry.counters["service.cache.misses"] > 0

        warm_telemetry = Telemetry()
        warm = run_population(
            n, curtail, seed, options=options,
            telemetry=warm_telemetry,
            cache=ScheduleCache(path=store),
        )
        assert warm == cold  # BlockRecord equality excludes elapsed time
        assert warm_telemetry.counters["service.cache.hits"] > 0
        assert "service.cache.misses" not in warm_telemetry.counters

    def test_cacheless_run_matches_cached_run(self, tmp_path):
        from repro.experiments.runner import run_population

        n, curtail, seed = 10, 2_000, 3
        options = SearchOptions(curtail=curtail)
        plain = run_population(n, curtail, seed, options=options)
        cached = run_population(
            n, curtail, seed, options=options,
            cache=ScheduleCache(path=str(tmp_path / "store")),
        )
        assert cached == plain


@pytest.fixture
def service_url():
    """An in-process daemon over ephemeral TCP; yields its URL."""
    service = SchedulingService(cache=ScheduleCache(), options=OPTIONS)
    server, url = create_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield url
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestDaemon:
    def test_health(self, service_url):
        reply = ServiceClient(service_url).health()
        assert reply["ok"] is True
        assert reply["schema"] == SCHEMA
        assert reply["cache"] is True

    def test_batch_round_trip_second_pass_all_hits(self, service_url, figure3_block):
        client = ServiceClient(service_url)
        machine = get_machine("paper-simulation")
        blocks_ = [_kernel_dag(k).block for k in KERNELS[:3]] + [figure3_block]

        first = client.schedule(blocks_, "paper-simulation")
        assert first["schema"] == SCHEMA
        assert [e["cache"] for e in first["entries"]] == ["miss"] * len(blocks_)
        for spec, entry in zip(blocks_, first["entries"]):
            # The daemon's answer must match a cold local search of the
            # same wire payload, certificates included.
            dag = DependenceDAG(parse_block(format_block(spec), name=spec.name))
            cold = schedule_block(dag, machine, OPTIONS)
            assert tuple(entry["order"]) == cold.best.order
            assert tuple(entry["etas"]) == cold.best.etas
            assert entry["total_nops"] == cold.best.total_nops
            assert entry["omega_calls"] == cold.omega_calls
            assert entry["completed"] == cold.completed
            assert entry["ladder"] == (
                "optimal-search" if cold.completed else "curtailed-search"
            )

        second = client.schedule(blocks_, "paper-simulation")
        assert [e["cache"] for e in second["entries"]] == ["hit"] * len(blocks_)
        assert second["stats"] == {
            "hits": len(blocks_), "misses": 0, "bypass": 0,
            "degraded": 0, "shed": 0,
        }
        for a, b in zip(first["entries"], second["entries"]):
            # Identical schedules and accounting; only the provenance
            # field may (must) differ.
            assert {k: v for k, v in a.items() if k != "cache"} == {
                k: v for k, v in b.items() if k != "cache"
            }

    def test_duplicates_within_one_batch_dedup(self, service_url, figure3_block):
        client = ServiceClient(service_url)
        reply = client.schedule(
            [figure3_block, figure3_block], "paper-simulation",
            names=["one", "two"],
        )
        assert [e["cache"] for e in reply["entries"]] == ["miss", "hit"]
        assert reply["entries"][0]["order"] == reply["entries"][1]["order"]

    def test_machine_payload_and_options(self, service_url, figure3_block):
        client = ServiceClient(service_url)
        reply = client.schedule(
            [figure3_block],
            get_machine("deep-memory"),
            options={"curtail": 5_000},
        )
        assert reply["machine"] == "deep-memory"
        assert reply["entries"][0]["completed"] is True

    def test_protocol_errors(self, service_url, figure3_block):
        client = ServiceClient(service_url)
        with pytest.raises(ServiceClientError) as exc:
            client.schedule([figure3_block], "no-such-machine")
        assert exc.value.status == 400
        with pytest.raises(ServiceClientError) as exc:
            client.schedule(["1: Bogus ???"], "paper-simulation")
        assert exc.value.status == 400
        with pytest.raises(ServiceClientError) as exc:
            client.schedule(
                [figure3_block], "paper-simulation", options={"time_limit": 5}
            )
        assert exc.value.status == 400
        with pytest.raises(ServiceClientError) as exc:
            client._request("GET", "/v1/nope")
        assert exc.value.status == 404

    def test_unix_socket_transport(self, tmp_path, figure3_block):
        sock = str(tmp_path / "repro.sock")
        service = SchedulingService(cache=ScheduleCache(), options=OPTIONS)
        server, url = create_server(service, unix_path=sock)
        assert url == f"unix://{sock}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(url)
            assert client.health()["ok"] is True
            reply = client.schedule([figure3_block], "paper-simulation")
            assert reply["entries"][0]["completed"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_client_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            ServiceClient("ftp://nope")


class TestServiceProtocol:
    """schedule_batch validation, exercised without HTTP."""

    def setup_method(self):
        self.service = SchedulingService(options=OPTIONS)

    def _batch(self, **overrides):
        payload = {
            "schema": SCHEMA,
            "machine": "paper-simulation",
            "blocks": [{"name": "f3", "tuples": "1: Load #a\n2: Store #b, 1"}],
        }
        payload.update(overrides)
        return payload

    def test_ok_without_cache_counts_bypass(self):
        reply = self.service.schedule_batch(self._batch())
        assert reply["entries"][0]["cache"] == "bypass"
        assert reply["stats"] == {
            "hits": 0, "misses": 0, "bypass": 1, "degraded": 0, "shed": 0,
        }

    @pytest.mark.parametrize(
        "mutation",
        [
            {"schema": "repro-service/999"},
            {"machine": 42},
            {"machine": "unknown-preset"},
            {"blocks": []},
            {"blocks": [{"name": "x"}]},
            {"blocks": [{"tuples": "1: Frobnicate"}]},
            {"options": {"workers": 4}},
            {"options": {"curtail": -1}},
            {"options": "fast"},
        ],
    )
    def test_malformed_requests(self, mutation):
        with pytest.raises(ServiceError):
            self.service.schedule_batch(self._batch(**mutation))

    def test_non_object_body(self):
        with pytest.raises(ServiceError):
            self.service.schedule_batch([1, 2, 3])

    def test_non_deterministic_machine_refused(self):
        from repro.machine.serialize import machine_to_dict
        from repro.verify.fuzz import adversarial_machines

        twins = next(
            m for m in adversarial_machines() if not m.is_deterministic
        )
        with pytest.raises(ServiceError):
            self.service.schedule_batch(
                self._batch(machine=machine_to_dict(twins))
            )


class TestServeSmoke:
    """End-to-end: the real ``repro serve`` process (the CI smoke job)."""

    def test_serve_cli_round_trip(self, tmp_path):
        import os
        import subprocess
        import sys
        import time

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        ready = tmp_path / "ready.json"
        store = tmp_path / "store"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.console", "serve",
                "--port", "0", "--cache", str(store),
                "--curtail", "10000",
                "--ready-file", str(ready),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, "daemon never became ready"
                time.sleep(0.05)
            url = json.loads(ready.read_text())["url"]

            client = ServiceClient(url, timeout=120.0)
            assert client.health()["ok"] is True
            kernel_blocks = [_kernel_dag(k).block for k in KERNELS]
            first = client.schedule(kernel_blocks, "paper-simulation")
            second = client.schedule(kernel_blocks, "paper-simulation")
            assert first["stats"]["hits"] == 0
            assert second["stats"] == {
                "hits": len(kernel_blocks), "misses": 0, "bypass": 0,
                "degraded": 0, "shed": 0,
            }
            for a, b in zip(first["entries"], second["entries"]):
                assert {k: v for k, v in a.items() if k != "cache"} == {
                    k: v for k, v in b.items() if k != "cache"
                }
            # The store is durable and shared: a *local* cache over the
            # same directory hits every kernel without searching.
            local = ScheduleCache(path=str(store))
            machine = get_machine("paper-simulation")
            for block in kernel_blocks:
                _, status = local.schedule_with_status(
                    DependenceDAG(block), machine, OPTIONS
                )
                assert status == "hit"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
