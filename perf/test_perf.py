"""Tests of the benchmark itself: ``python -m pytest perf -q``.

Workload runs here are sized through function arguments to a few
operations each; they check plumbing and output checks, not speed.
"""

from __future__ import annotations

import dataclasses
import json
import os

import compare
import inputs
import pytest
import run
import service_load
import spans
import workloads
from bootstrap import ROOT
from common import (
    Outcome,
    latency_metrics,
    percentile,
    samples_beyond,
    tail_rank,
    using_scratch,
)

from repro import driver
from repro.machine.presets import get_machine

TINY = {
    "population": {"blocks": 6, "warmup": 2, "probe": 4},
    "compile": {"generated": 4, "kernels": 1, "warmup": 1, "probe": 4},
    "loops": {"paper": 2, "deep": 1, "kernels": 1, "warmup": 1, "probe": 4},
}
TINY_SERVICE = {"low_s": 0.5, "high_s": 1.0, "closed_s": 0.5, "primed": 3, "probe": 6}


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared(trace: bool):
    return {m["name"] for m in bench()["per_layer" if trace else "end_to_end"]}


# -- percentiles ------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_tail_rank_keeps_ten_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert tail_rank(1000) == 99
    assert samples_beyond(999, 99) == 9
    assert tail_rank(999) == 98
    assert tail_rank(200) == 95
    assert tail_rank(10_000, highest=95) == 95
    assert tail_rank(12) == 50


def test_latency_metrics_report_samples_and_rank():
    m = latency_metrics([i / 1000 for i in range(1, 201)], 99.0)
    assert m["p50_ms"]["samples"] == 200 and m["p50_ms"]["rank"] == "p50"
    assert m["tail_ms"]["rank"] == "p95"
    assert m["tail_ms"]["value"] == pytest.approx(190.0)


# -- spans --------------------------------------------------------------
def span(sid, start, end, parent=None):
    return spans.Span(sid, f"s{sid}", start, end, parent, "op")


def test_self_time_subtracts_nested_and_overlapping_children():
    tree = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 3.0, 6.0, parent=0),  # overlaps span 1
        span(3, 8.0, 12.0, parent=0),  # runs past its parent
        span(4, 1.5, 2.0, parent=1),  # grandchild: only span 1 loses it
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10 - (5 + 2))
    assert own[1] == pytest.approx(3 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(0.5)


def test_tracer_nests_spans_and_restores_patched_names():
    tracer = spans.Tracer()
    original = driver.optimize_block
    with tracer.patched():
        assert driver.optimize_block is not original
        with tracer.operation("driver", "op0"):
            driver.compile_source("a = b * c; d = a + b;", get_machine("scalar"))
    assert driver.optimize_block is original
    table = spans.layer_table(tracer.spans)
    assert {"driver", "frontend", "opt", "ir.dag", "sched.search", "regalloc",
            "codegen"} <= set(table)
    root = next(s for s in tracer.spans if s.name == "driver")
    assert all(s.op == "op0" for s in tracer.spans)
    assert all(s.parent == root.id for s in tracer.spans if s.name == "opt")
    own = spans.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(root.seconds)


def test_patch_table_follows_the_code():
    for owner, attr, _, _ in spans.LAYERS:
        assert hasattr(spans._resolve(owner), attr), f"{owner}.{attr} is gone"


# -- compare ------------------------------------------------------------
def runs(values):
    return list(enumerate(values))


def test_compare_verdicts():
    def verdict(a, b, better="lower", bound=0.1):
        return compare.verdict(runs(a), runs(b), better, bound)["verdict"]

    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(base, base) == "unchanged"
    assert verdict(base, [v * 0.8 for v in base]) == "improved"
    assert verdict(base, [v * 1.2 for v in base]) == "worse"
    assert verdict(base, [v * 0.8 for v in base], better="higher") == "worse"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
    assert verdict(base, noisy) == "unresolved"
    # A wide spread does not hide a change every run agrees on.
    assert verdict(noisy, [1.0, 1.5, 2.0, 1.2, 1.8]) == "improved"
    # Without a bound (per-layer metrics) only the pair rule decides.
    assert verdict(base, noisy, bound=None) == "unchanged"
    assert verdict(base, [v * 1.2 for v in base], bound=None) == "worse"
    # One run a side is too few for the pair rule.
    assert verdict([10.0], [5.0]) == "unchanged"
    assert verdict([10.0], [20.0], bound=None) == "unchanged"
    row = compare.verdict(runs(base), runs([v * 1.05 for v in base]), "lower", 0.1)
    assert row["verdict"] == "unchanged"
    assert row["ratio"] == pytest.approx(1.05)
    assert row["wins"] == 0.0


def test_compare_pairs_runs_by_seed():
    a = [(1, 10.0), (2, 20.0), (3, 30.0)]
    b = [(3, 29.0), (1, 9.0), (2, 19.0)]
    assert compare.pairs(a, b) == [(10.0, 9.0), (20.0, 19.0), (30.0, 29.0)]
    assert compare.verdict(a, b, "lower", None)["wins"] == 1.0
    assert len(compare.pairs(a, b[:2])) == 6


def test_compare_reads_result_files(tmp_path):
    def write(name, values):
        records = [{"workload": "compile", "trace": False, "seed": seed,
                    "metrics": {"peak_rss_mb": {"value": v, "unit": "MB"}}}
                   for seed, v in enumerate(values)]
        path = tmp_path / name
        path.write_text(json.dumps(records))
        return str(path)

    a = write("a.json", [2.0, 2.02, 1.98, 2.01, 1.99])
    b = write("b.json", [2.5, 2.52, 2.48, 2.51, 2.49])
    (row,) = compare.compare([a], [b])
    assert (row["workload"], row["metric"], row["verdict"]) == (
        "compile", "peak_rss_mb", "worse")
    assert compare.main(["--a", a, "--b", a]) == 0
    assert compare.main(["--a", a, "--b", b]) == 1


# -- inputs ---------------------------------------------------------------
@pytest.mark.parametrize("workload", ["population", "compile", "loops"])
def test_input_digest_follows_the_seed(workload):
    sizes = TINY[workload]
    first = workloads.make_rounds(workload, 7, sizes)[2]
    assert workloads.make_rounds(workload, 7, sizes)[2] == first
    assert workloads.make_rounds(workload, 8, sizes)[2] != first


def test_service_load_follows_the_seed():
    first = service_load.make_load(7, TINY_SERVICE).digest()
    assert service_load.make_load(7, TINY_SERVICE).digest() == first
    assert service_load.make_load(8, TINY_SERVICE).digest() != first


def test_generated_sources_run_cleanly():
    for batch in inputs.compile_sources(3, 1, 6, 0) + inputs.loop_sources(3, 1, 4, 1, 0):
        for source in batch:
            assert inputs._runs_cleanly(inputs.parse_program(source.source), source.memory)


# -- correctness checks -------------------------------------------------
def test_bad_schedule_fails_the_run(monkeypatch, capsys):
    real = driver.compile_source

    def over_padded(*args, **kwargs):
        result = real(*args, **kwargs)
        t = result.timing
        etas = t.etas[:-1] + (t.etas[-1] + 1,)
        return dataclasses.replace(result, timing=dataclasses.replace(t, etas=etas))

    monkeypatch.setattr(driver, "compile_source", over_padded)
    monkeypatch.setattr(workloads, "plan", lambda workload, seconds: TINY["compile"])
    status = run.main(["--workload", "compile", "--seed", "5", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def test_missing_metric_fails_the_report():
    outcome = Outcome("compile", attempted=3)
    result = run.report(outcome, bench(), trace=False)
    assert result["correct"] is False
    assert "report" in outcome.failures


# -- smoke runs ---------------------------------------------------------
@pytest.mark.parametrize("workload", ["population", "compile", "loops"])
def test_in_process_workload_smoke(workload, tmp_path):
    with using_scratch(str(tmp_path)) as env:
        outcome = workloads.measure(workload, 3, TINY[workload], env, deadline=float("inf"))
        traced = workloads.trace_run(workload, 3, TINY[workload], deadline=float("inf"))
    assert outcome.failures == {}
    assert declared(trace=False) <= set(outcome.metrics)
    assert traced.failures == {}
    assert declared(trace=True) <= set(traced.metrics)
    assert traced.metrics["trace.coverage_frac"]["value"] == pytest.approx(1.0, abs=0.05)
    assert traced.spans and traced.info["layers"]


def test_service_workload_smoke(tmp_path):
    with using_scratch(str(tmp_path)) as env:
        outcome = service_load.measure(3, TINY_SERVICE, env, str(tmp_path))
        traced = service_load.trace_run(3, TINY_SERVICE, env, str(tmp_path))
    assert outcome.failures == {}
    assert declared(trace=False) <= set(outcome.metrics)
    assert traced.failures == {}
    assert declared(trace=True) <= set(traced.metrics)
    assert "service.overhead.hit_p50_ms" in traced.metrics
