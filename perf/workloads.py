"""The in-process workloads: population, compile and loops.

One operation is one call of a public entry point, timed from outside:

* ``population`` — ``experiments.runner.schedule_generated_block(...,
  verify=True)`` on one Table-7 block;
* ``compile`` — ``driver.compile_source`` (``compile_program`` when the
  source has ``barrier;``) with ``verify_memory``;
* ``loops`` — ``driver.compile_loop`` with ``verify_memory``.

An untraced run makes three timed rounds and reports the end-to-end
metrics; a traced run times one round untraced, reruns it with every
layer wrapped (:mod:`spans`), checks that both produced the same output,
and adds the standalone layer probes.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import inputs
import spans
from common import (
    Outcome,
    digest,
    latency_metrics,
    log,
    metric,
    peak_rss_mb,
    process_seconds,
    reference_start,
    setup_metrics,
    sub_seed,
)

from repro import driver
from repro.experiments import runner
from repro.ir.dag import DependenceDAG
from repro.ir.textual import format_block
from repro.machine.presets import get_machine
from repro.sched.interblock import carry_out
from repro.sched.list_scheduler import list_schedule
from repro.sched.multi import first_pipeline_assignment
from repro.sched.nop_insertion import InitialConditions, compute_timing
from repro.sched.search import SearchOptions, root_lower_bound, schedule_block
from repro.service.cache import ScheduleCache
from repro.service.fingerprint import fingerprint_problem
from repro.verify import certificate

#: Every search runs with the defaults: engine ``fast``, curtail 50 000.
OPTIONS = SearchOptions()

#: Engines the traced run times on the probe subsample.
ENGINES = ("fast", "vector", "native", "reference")

#: Prune kinds reported per layer (``timeout`` never fires: no
#: workload sets a time limit).
PRUNE_KINDS = ("legality", "bounds", "equivalence", "alpha_beta", "curtail", "dominance")

ROUNDS = 3
SETUP_REPEATS = 5

#: Child-process script behind ``setup_s``: import the program and make
#: the workload's first public call on the payload read from stdin.
FIRST_CALL = """
import json, sys
kind, p = json.load(sys.stdin)
from repro.machine.presets import get_machine
if kind == "population":
    from repro.experiments.runner import schedule_generated_block
    from repro.frontend.ast import Program
    from repro.ir.textual import parse_block
    from repro.sched.search import SearchOptions
    from repro.synth.generator import GeneratedBlock
    gb = GeneratedBlock(parse_block(p["text"], name=p["name"]), Program([]), 0, 0, 0, 0)
    schedule_generated_block(0, gb, get_machine(p["machine"]), SearchOptions(), verify=True)
elif kind == "compile":
    from repro.driver import compile_program, compile_source
    entry = compile_program if p["barrier"] else compile_source
    entry(p["source"], get_machine(p["machine"]), verify_memory=p["memory"])
else:
    from repro.driver import compile_loop
    compile_loop(p["source"], get_machine(p["machine"]), verify_memory=p["memory"])
"""


@dataclass(frozen=True)
class Item:
    """One prepared operation input."""

    label: str
    source: Any  # GeneratedBlock or inputs.Source
    machine: Any  # MachineDescription


@dataclass(frozen=True)
class Kind:
    """How one workload calls, fingerprints, scores and checks an op."""

    name: str
    #: Span name of one whole operation: the caller's own layer, whose
    #: self time is what the wrapped layers leave over.
    root: str
    #: Preferred tail rank (lowered when too few samples).
    tail: float
    call: Callable[[Item], Any]
    #: Output fingerprint; traced and untraced runs must agree on it.
    output: Callable[[Any], Any]
    #: (cycles, instructions, proven or None when no search ran).
    quality: Callable[[Any], Tuple[int, int, Optional[bool]]]
    #: Independent check outside the timed call: a failure message or None.
    check: Callable[[Item, Any], Optional[str]]
    #: The block problems (DAG, machine) behind the output, for probes.
    problems: Callable[[Item, Any], List[Tuple[Any, Any]]]
    #: JSON payload of the first public call in a fresh process.
    payload: Callable[[Item], Dict[str, Any]]


# -- population ---------------------------------------------------------
def _population_call(item: Item):
    return runner.schedule_generated_block(
        0, item.source, item.machine, OPTIONS, verify=True
    )


def _population_output(r) -> tuple:
    return (r.size, r.initial_nops, r.seed_nops, r.final_nops, r.omega_calls,
            r.completed, r.degraded, r.ladder)


def _population_check(item: Item, r) -> Optional[str]:
    # The certificate itself runs inside the call (verify=True re-derives
    # the published schedule with verify.certificate.check_schedule and
    # raises on a rejected schedule or a NOP count that differs).
    if r.size != len(item.source.block):
        return f"record size {r.size} != block size {len(item.source.block)}"
    if r.final_nops > r.seed_nops:
        return f"search published {r.final_nops} NOPs, worse than its seed {r.seed_nops}"
    if r.completed and r.degraded:
        return "record is both proven optimal and degraded"
    return None


POPULATION = Kind(
    name="population",
    root="experiments",
    tail=99.0,
    call=_population_call,
    output=_population_output,
    quality=lambda r: (r.size + r.final_nops, r.size, r.completed if r.size else None),
    check=_population_check,
    problems=lambda item, r: (
        [(DependenceDAG(item.source.block), item.machine)] if r.size else []
    ),
    payload=lambda item: {
        "text": format_block(item.source.block),
        "name": item.source.block.name,
        "machine": item.machine.name,
    },
)


# -- compile ------------------------------------------------------------
def _compile_call(item: Item):
    entry = driver.compile_program if item.source.barrier else driver.compile_source
    return entry(item.source.source, item.machine, verify_memory=item.source.memory)


def _blocks(result) -> tuple:
    return result.blocks if hasattr(result, "blocks") else (result,)


def _compile_quality(result) -> Tuple[int, int, Optional[bool]]:
    blocks = _blocks(result)
    return (
        sum(b.issue_span_cycles for b in blocks),
        sum(len(b.block) for b in blocks),
        all(b.search.completed for b in blocks),
    )


def _compile_check(item: Item, result) -> Optional[str]:
    """Re-certify every published block schedule, each under the
    carry-in conditions its predecessor leaves."""
    conditions = InitialConditions()
    for index, b in enumerate(_blocks(result)):
        t = b.timing
        cert = certificate.check_schedule(
            b.block, item.machine, t.order, t.etas,
            assignment=first_pipeline_assignment(b.dag, item.machine),
            pipe_free=conditions.pipe_free,
            variable_ready=conditions.variable_ready,
        )
        if not cert.ok:
            return f"block {index}: {cert.summary()}"
        if cert.required_nops != t.total_nops:
            return (f"block {index}: publishes {t.total_nops} NOPs, the "
                    f"certificate re-derives {cert.required_nops}")
        conditions = carry_out(t, b.dag, item.machine)
    return None


COMPILE = Kind(
    name="compile",
    root="driver",
    tail=99.0,
    call=_compile_call,
    output=lambda result: [
        (list(b.timing.order), list(b.timing.etas), str(b.assembly))
        for b in _blocks(result)
    ],
    quality=_compile_quality,
    check=_compile_check,
    problems=lambda item, result: [(b.dag, item.machine) for b in _blocks(result)],
    payload=lambda item: vars(item.source),
)


# -- loops --------------------------------------------------------------
def _loops_call(item: Item):
    return driver.compile_loop(
        item.source.source, item.machine, verify_memory=item.source.memory
    )


def _loops_check(item: Item, compiled) -> Optional[str]:
    r = compiled.result
    if not compiled.certificate.ok:
        return f"steady-state certificate rejected: {compiled.certificate.summary()}"
    if not r.mii <= r.ii <= r.list_ii:
        return f"II {r.ii} outside [MII {r.mii}, list II {r.list_ii}]"
    return None


LOOPS = Kind(
    name="loops",
    root="driver",
    tail=95.0,
    call=_loops_call,
    output=lambda c: (c.ii, sorted(c.result.offsets.items()), c.kernel_text),
    quality=lambda c: (c.ii, len(c.loop.body), c.result.completed),
    check=_loops_check,
    problems=lambda item, c: [(DependenceDAG(c.loop.body), item.machine)],
    payload=lambda item: vars(item.source),
)

KINDS = {k.name: k for k in (POPULATION, COMPILE, LOOPS)}


# -- inputs -------------------------------------------------------------
def plan(workload: str, seconds: float) -> Dict[str, int]:
    """Input sizes for a run of ``seconds``: on an unloaded 2-core x86
    host one round takes a quarter to a third of it.  Tests pass
    smaller plans."""
    s = max(1.0, seconds)
    if workload == "population":
        return {"blocks": round(100 * s), "warmup": 20, "probe": 150}
    if workload == "compile":
        return {"generated": round(50 * s), "kernels": 10, "warmup": 5, "probe": 150}
    if workload == "loops":
        return {"paper": round(8 * s), "deep": max(1, round(s / 1.5)), "kernels": 6,
                "warmup": 3, "probe": 150}
    raise ValueError(f"no in-process workload {workload!r}")


def make_rounds(
    workload: str, seed: int, sizes: Dict[str, int], rounds: int = ROUNDS
) -> Tuple[List[List[Item]], List[Item], str]:
    """(timed rounds, warm-up items, input digest) for ``seed``.

    Population rounds repeat one block set (generating a block costs
    about as much as scheduling it); compile and loops rounds each get
    their own fresh programs, so a run sees three times as many.
    """
    machines: Dict[str, Any] = {}

    def machine(name: str):
        if name not in machines:
            machines[name] = get_machine(name)
        return machines[name]

    if workload == "population":
        def items(blocks, tag):
            return [Item(f"{tag}{i}", gb, machine("paper-simulation"))
                    for i, gb in enumerate(blocks)]

        blocks = inputs.population_blocks(seed, sizes["blocks"])
        warm = inputs.population_blocks(sub_seed(seed, "warmup"), sizes["warmup"])
        return ([items(blocks, "b")] * rounds, items(warm, "w"),
                digest(inputs.block_texts(blocks)))

    if workload == "compile":
        batches = inputs.compile_sources(seed, rounds, sizes["generated"], sizes["kernels"])
        warm = inputs.compile_sources(sub_seed(seed, "warmup"), 1, sizes["warmup"], 0)
    else:
        batches = inputs.loop_sources(seed, rounds, sizes["paper"], sizes["deep"],
                                      sizes["kernels"])
        warm = inputs.loop_sources(sub_seed(seed, "warmup"), 1, sizes["warmup"], 0, 0)

    def to_items(batch):
        return [Item(s.name, s, machine(s.machine)) for s in batch]

    return ([to_items(b) for b in batches], to_items(warm[0]),
            inputs.sources_digest(batches))


# -- measurement --------------------------------------------------------
def run_ops(
    kind: Kind,
    items: Sequence[Item],
    outcome: Outcome,
    tracer=None,
    consume: Optional[Callable[[Item, Any], Any]] = None,
) -> Tuple[List[float], List[Any]]:
    """Time ``kind.call`` on every item: (latencies, kept results).

    ``consume`` (untimed) reduces each result right after its call; what
    it returns is kept instead of the result.  A call that raises is a
    failed operation: it keeps ``None`` and its latency is left out.
    """
    latencies: List[float] = []
    kept: List[Any] = []
    for item in items:
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = kind.call(item)
            else:
                with tracer.operation(kind.root, item.label):
                    result = kind.call(item)
        except Exception as exc:  # noqa: BLE001 - one failed op, keep measuring
            outcome.fail(item.label, f"{type(exc).__name__}: {exc}")
            kept.append(None)
            continue
        latencies.append(time.perf_counter() - start)
        kept.append(result if consume is None else consume(item, result))
    return latencies, kept


def check(kind: Kind, item: Item, result: Any, outcome: Outcome) -> None:
    message = kind.check(item, result)
    outcome.check(message is None, item.label, message or "")


def quality_metrics(quality: Dict[str, Tuple[int, int, Optional[bool]]]
                    ) -> Dict[str, Dict[str, Any]]:
    """``cycles_per_instr`` and ``proven_frac`` over distinct inputs."""
    cycles = sum(q[0] for q in quality.values())
    instructions = sum(q[1] for q in quality.values())
    searched = [q[2] for q in quality.values() if q[2] is not None]
    out = {}
    if instructions:
        out["cycles_per_instr"] = metric(cycles / instructions, "cycle/instr", len(quality))
    if searched:
        out["proven_frac"] = metric(sum(searched) / len(searched), "frac", len(searched))
    return out


def setup_pairs(kind: Kind, item: Item, env: Dict[str, str],
                repeats: int = SETUP_REPEATS) -> List[Tuple[float, float]]:
    """(fresh-process import plus the first public call, reference
    start just before it), ``repeats`` times."""
    payload = json.dumps([kind.name, kind.payload(item)])
    pairs = []
    for _ in range(repeats):
        reference = reference_start(env)
        pairs.append((process_seconds([sys.executable, "-c", FIRST_CALL], env, payload),
                      reference))
    return pairs


def measure(
    workload: str,
    seed: int,
    sizes: Dict[str, int],
    env: Dict[str, str],
    deadline: float,
    rounds: int = ROUNDS,
) -> Outcome:
    """The untraced run: setup, warm-up, timed rounds, checks, metrics.

    ``ops_per_s`` is the median over rounds of operations per second of
    busy time (the summed latencies, so the untimed checks between
    operations do not count)."""
    kind = KINDS[workload]
    outcome = Outcome(workload)
    timed, warm, input_digest = make_rounds(workload, seed, sizes, rounds)
    outcome.info["inputs_sha256"] = input_digest
    setup = setup_pairs(kind, timed[0][0], env)
    run_ops(kind, warm, outcome)

    quality: Dict[str, Tuple[int, int, Optional[bool]]] = {}

    def consume(item: Item, result: Any) -> Any:
        check(kind, item, result, outcome)
        quality.setdefault(item.label, kind.quality(result))
        return kind.output(result)

    latencies: List[float] = []
    throughput: List[float] = []
    outputs_by_round = []
    for index, items in enumerate(timed):
        lat, outputs = run_ops(kind, items, outcome, consume=consume)
        latencies += lat
        throughput.append(len(lat) / sum(lat) if lat else 0.0)
        outputs_by_round.append(outputs)
        log(f"[{workload}] round {index + 1}: {len(items)} ops, {sum(lat):.2f} s busy")
        if time.monotonic() > deadline and index + 1 < len(timed):
            log(f"[{workload}] over the time cap, stopping after round {index + 1}")
            break
    if workload == "population":
        # Every round scheduled the same blocks: records must agree.
        for index, outputs in enumerate(outputs_by_round[1:], start=2):
            for item, first, again in zip(timed[0], outputs_by_round[0], outputs):
                if first is not None and again is not None and first != again:
                    outcome.fail(item.label, f"round {index} record differs from round 1")

    outcome.metrics.update(setup_metrics(setup))
    outcome.metrics.update(latency_metrics(latencies, kind.tail))
    outcome.metrics["ops_per_s"] = metric(statistics.median(throughput), "1/s",
                                          len(throughput))
    outcome.metrics.update(quality_metrics(quality))
    outcome.metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    return outcome


# -- traced run ---------------------------------------------------------
def probe_layers(
    problems: Sequence[Tuple[Any, Any]],
    outcome: Outcome,
    cache_stream: Optional[Sequence[Tuple[Any, Any]]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Standalone probes of single layers on the workload's own block
    problems: list seed, root bound, every search engine, fingerprint
    and cache.  ``cache_stream`` (default: the problems twice, so the
    second pass hits) is the request stream the cache probe replays."""
    if not problems:
        return {}
    seed_t, bound_t, fp_t = [], [], []
    for dag, machine in problems:
        start = time.perf_counter()
        compute_timing(dag, list_schedule(dag), machine)
        seed_t.append(time.perf_counter() - start)
        start = time.perf_counter()
        root_lower_bound(dag, machine)
        bound_t.append(time.perf_counter() - start)
        start = time.perf_counter()
        fingerprint_problem(dag, machine, OPTIONS)
        fp_t.append(time.perf_counter() - start)
    out = {
        "sched.seed.p50_us": metric(statistics.median(seed_t) * 1e6, "us", len(seed_t), 50),
        "sched.bound.p50_us": metric(statistics.median(bound_t) * 1e6, "us",
                                     len(bound_t), 50),
        "service.fingerprint.p50_us": metric(statistics.median(fp_t) * 1e6, "us",
                                             len(fp_t), 50),
    }

    dag0, machine0 = problems[0]
    start = time.perf_counter()
    schedule_block(dag0, machine0, replace(OPTIONS, engine="native"))
    out["sched.search.engine.native.setup_s"] = metric(time.perf_counter() - start, "s", 1)
    results = {}
    for engine in ENGINES:
        options = replace(OPTIONS, engine=engine)
        start = time.perf_counter()
        results[engine] = [schedule_block(d, m, options) for d, m in problems]
        out[f"sched.search.engine.{engine}.self_s"] = metric(
            time.perf_counter() - start, "s", len(problems))
    for engine in ENGINES[1:]:
        for i, (a, b) in enumerate(zip(results["fast"], results[engine])):
            if replace(a, elapsed_seconds=0.0) != replace(b, elapsed_seconds=0.0):
                outcome.fail(f"engine.{engine}.{i}", f"{engine} engine disagrees with fast")

    cache = ScheduleCache()
    hits, misses = [], []
    for dag, machine in cache_stream or list(problems) * 2:
        start = time.perf_counter()
        _, status = cache.schedule_with_status(dag, machine, OPTIONS)
        (hits if status == "hit" else misses).append(time.perf_counter() - start)
    if hits:
        out["service.cache.hit_p50_us"] = metric(statistics.median(hits) * 1e6, "us",
                                                 len(hits), 50)
    if misses:
        out["service.cache.miss_p50_ms"] = metric(statistics.median(misses) * 1e3, "ms",
                                                  len(misses), 50)
    return out


def layer_metrics(table: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics every workload reports, from the span table."""
    out: Dict[str, Dict[str, Any]] = {}
    dag = table.get("ir.dag")
    if dag:
        out["ir.dag.self_s"] = metric(dag["self_s"], "s", dag["calls"])
        out["ir.dag.edges"] = metric(dag["counts"].get("edges", 0) / dag["calls"], "count",
                                     dag["calls"])
    search = table.get("sched.search")
    if search:
        calls, counts = search["calls"], search["counts"]
        out["sched.search.self_s"] = metric(search["self_s"], "s", calls)
        out["sched.search.p50_us"] = metric(search["p50_us"], "us", calls, 50)
        out["sched.search.omega_calls"] = metric(counts.get("omega_calls", 0) / calls,
                                                 "count", calls)
        out["sched.search.proven_frac"] = metric(counts.get("proven", 0) / calls, "frac",
                                                 calls)
        for kind in PRUNE_KINDS:
            out[f"sched.search.prune.{kind}"] = metric(
                counts.get(f"prune.{kind}", 0) / calls, "count", calls)
    cert = table.get("verify.certificate")
    if cert:
        out["verify.certificate.p50_us"] = metric(cert["p50_us"], "us", cert["calls"], 50)
        out["verify.checked"] = metric(cert["counts"].get("checked", 0), "count")
    return out


def summarize_layers(table: Dict[str, Dict[str, Any]], wall: float) -> Dict[str, Any]:
    """The printed per-layer summary: self time and share of the traced
    wall time for every layer the trace saw."""
    return {
        name: {
            "self_s": round(row["self_s"], 6),
            "share": round(row["self_s"] / wall, 4) if wall else 0.0,
            "calls": row["calls"],
            "p50_us": round(row["p50_us"], 2),
            "counts": row["counts"],
        }
        for name, row in table.items()
    }


def trace_run(
    workload: str, seed: int, sizes: Dict[str, int], deadline: float
) -> Outcome:
    """The traced run: one round untraced, the same round traced, the
    output comparison, checks and the layer probes."""
    kind = KINDS[workload]
    outcome = Outcome(workload)
    timed, warm, input_digest = make_rounds(workload, seed, sizes, rounds=1)
    items = timed[0]
    outcome.info["inputs_sha256"] = input_digest
    run_ops(kind, warm, outcome)

    lat, plain = run_ops(kind, items, outcome)
    tracer = spans.Tracer()
    with tracer.patched():
        start = time.perf_counter()
        traced_lat, traced = run_ops(kind, items, outcome, tracer)
        wall_traced = time.perf_counter() - start
        op_spans = list(tracer.spans)
        for item, result in zip(items, plain):
            if result is not None:
                check(kind, item, result, outcome)
    for item, a, b in zip(items, plain, traced):
        if a is not None and b is not None and kind.output(a) != kind.output(b):
            outcome.fail(item.label, "traced run produced a different output")

    busy_plain, busy_traced = sum(lat), sum(traced_lat)
    table = spans.layer_table(tracer.spans)
    op_table = spans.layer_table(op_spans)
    covered = sum(row["self_s"] for row in op_table.values())
    outcome.metrics["ops_per_s"] = metric(len(lat) / busy_plain, "1/s", len(lat))
    outcome.metrics.update(latency_metrics(lat, kind.tail))
    outcome.metrics["trace.overhead_frac"] = metric(busy_traced / busy_plain - 1.0, "frac")
    outcome.metrics["trace.coverage_frac"] = metric(covered / wall_traced, "frac")
    outcome.metrics.update(layer_metrics(table))

    problems = itertools.islice(
        (p for item, r in zip(items, plain) if r is not None for p in kind.problems(item, r)),
        sizes["probe"])
    if time.monotonic() < deadline:
        outcome.metrics.update(probe_layers(list(problems), outcome))
    outcome.info["layers"] = summarize_layers(op_table, wall_traced)
    outcome.spans = spans.span_records(tracer.spans)
    return outcome
