"""Three-engine search benchmark (the ``BENCH_search.json`` writer).

Measurement method
------------------
Per block the three engines run back to back (fast, native, reference)
and each call is timed individually; per-engine wall time is
the sum of its own calls.  Interleaving makes the comparison robust
against machine load drifting over the run — a bias that back-to-back
*batches* are fully exposed to.  Every result triple is compared
field by field (schedule, Ω calls, prune counts, completion flags —
everything except wall time), and every native-engine schedule is
certified through :mod:`repro.verify.certificate`, which shares no code
with the schedulers.  A benchmark whose engines diverge is not a
benchmark, so divergence and certification failures are fatal (non-zero
exit from the CLI) while speedup itself is only reported, never
asserted — perf assertions belong to the acceptance pipeline, not to a
load-sensitive smoke job.

When no C compiler is found the "native" engine transparently degrades
to a second "fast" run (one warning line on stderr); the payload still
carries the native column so downstream trend tooling keeps a stable
shape, and ``config.env.cc`` is ``null`` so the run is honest about
what was measured.

Suites
------
``population``
    The synthetic corpus (``REPRO_SCALE``-sized, same master seed and
    curtail as the experiments), scheduled once per engine.  This is the
    headline number: single-threaded speedup over the exact workload the
    paper's Table 7 is derived from.
``kernels``
    The realistic kernels x deterministic machine presets, repeated
    (blocks are tiny, so one run is below timer resolution).  Shows the
    speedup holds on real dependence structure, not just synthetic
    statistics.

Schema (``repro-bench/4``)::

    {
      "schema": "repro-bench/4",
      "config": {
        "blocks": 2000, "master_seed": 1990, "curtail": 50000,
        "repeats": 25,
        "env": {"python": "3.11.7",
                "cc": {"path": "/usr/bin/cc", "version": "cc ... 12.2.0"},
                "platform": "Linux-6.8-x86_64", "cpu_count": 8}
      },
      "suites": {
        "population": {
          "blocks": 1964,                    # non-empty blocks scheduled
          "omega_calls": 1449520,            # identical across engines
          "engines": {
            "fast":      {"wall_seconds": 6.0, "omega_per_sec": 240000.0},
            "native":    {"wall_seconds": 1.6, "omega_per_sec": 905000.0},
            "reference": {"wall_seconds": 14.0, "omega_per_sec": 103000.0}
          },
          "speedups": {"fast": 2.33, "native": 8.75},
          "identical": true,                 # every result field matched
          "certified": 1964                  # schedules certificate-checked
        },
        "kernels": {
          "entries": [
            {"kernel": "dot4", "machine": "paper_simulation",
             "omega_calls": 123,
             "seconds": {"fast": ..., "native": ..., "reference": ...},
             "speedups": {"fast": ..., "native": ...},
             "identical": true},
            ...
          ],
          "speedups": {...}                  # total ref / total engine
        }
      },
      "summary": {"speedups": {"fast": 2.33, "native": 8.75},
                  "identical": true, "failures": []}
    }

Schema history: ``repro-bench/1`` had two engines, a scalar ``speedup``
field (reference/fast) and only ``config.python``; ``/2`` added the
vector column, per-engine ``speedups`` and the ``config.env`` record;
``/3`` added the native column and ``config.env.cc`` (the discovered C
compiler, or ``null`` when the native engine ran its fallback); ``/4``
drops the vector column and ``config.env.numpy`` with the removed
vector engine.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, List, Optional, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription, first_pipeline_assignment
from ..machine.presets import (
    deep_memory_machine,
    paper_simulation_machine,
    scalar_machine,
)
from ..sched.nop_insertion import PipelineAssignment
from ..sched.search import ENGINES, SearchOptions, SearchResult, schedule_block
from ..experiments.runner import DEFAULT_CURTAIL, population_size
from ..synth.kernels import KERNELS
from ..synth.population import PopulationSpec, sample_population

#: Version tag of the ``BENCH_search.json`` payload.
SCHEMA = "repro-bench/4"

#: Engines compared field-by-field against "fast" per block (every
#: engine in ``ENGINES`` is timed, in order; "reference" is the base
#: for speedups).
_TWINS = tuple(name for name in ENGINES if name != "fast")

#: Deterministic presets the kernel suite runs on (name -> factory).
KERNEL_MACHINES = (
    ("paper_simulation", paper_simulation_machine),
    ("deep_memory", deep_memory_machine),
    ("scalar", scalar_machine),
)


def bench_environment() -> Dict:
    """The ``config.env`` record: everything a timing depends on."""
    from ..native.build import compiler_info

    return {
        "python": platform.python_version(),
        "cc": compiler_info(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def _result_fields(r: SearchResult) -> tuple:
    """Everything two engines must agree on (all but wall time)."""
    return (
        r.best,
        r.initial,
        r.omega_calls,
        r.completed,
        r.improvements,
        r.proved_by_bound,
        r.timed_out,
        r.memo_evicted,
        dict(r.prune_counts),
    )


def _assignment_for(
    dag: DependenceDAG, machine: MachineDescription
) -> Optional[PipelineAssignment]:
    """Pin pipelines iff the machine is non-deterministic for this block."""
    if any(
        len(machine.pipelines_for(t.op)) > 1 for t in dag.block
    ):
        return first_pipeline_assignment(dag, machine)
    return None


def _certify(
    dag: DependenceDAG,
    machine: MachineDescription,
    result: SearchResult,
    assignment: Optional[PipelineAssignment],
) -> Optional[str]:
    """Certificate-check one schedule; returns a failure summary or None."""
    from ..verify.certificate import check_schedule

    if assignment is None:
        assignment = first_pipeline_assignment(dag, machine)
    cert = check_schedule(
        dag.block,
        machine,
        result.best.order,
        result.best.etas,
        assignment=assignment,
    )
    if not cert.ok:
        return cert.summary()
    if cert.required_nops != result.final_nops:
        return (
            f"certificate re-derives {cert.required_nops} NOPs, "
            f"search reports {result.final_nops}"
        )
    return None


def _engine_options(curtail: int) -> Dict[str, SearchOptions]:
    return {
        name: SearchOptions(curtail=curtail, engine=name) for name in ENGINES
    }


def _speedups(seconds: Dict[str, float]) -> Dict[str, Optional[float]]:
    """Per-engine speedup over the reference engine's wall time."""
    ref = seconds["reference"]
    return {
        name: round(ref / seconds[name], 3) if seconds[name] else None
        for name in ENGINES
        if name != "reference"
    }


def bench_population(
    n_blocks: int,
    master_seed: int,
    curtail: int,
    certify: bool = True,
    failures: Optional[List[str]] = None,
) -> Dict:
    """Every engine over the synthetic corpus, interleaved per block."""
    machine = paper_simulation_machine()
    options = _engine_options(curtail)
    perf = time.perf_counter
    seconds = {name: 0.0 for name in ENGINES}
    omega = scheduled = certified = 0
    identical = True
    if failures is None:
        failures = []
    for index, gb in zip(
        range(n_blocks), sample_population(n_blocks, master_seed, PopulationSpec())
    ):
        if len(gb.block) == 0:
            continue
        dag = DependenceDAG(gb.block)
        results: Dict[str, SearchResult] = {}
        for name in ENGINES:
            t0 = perf()
            results[name] = schedule_block(dag, machine, options[name])
            seconds[name] += perf() - t0
        fast = results["fast"]
        omega += fast.omega_calls
        scheduled += 1
        base = _result_fields(fast)
        for name in _TWINS:
            if _result_fields(results[name]) != base:
                identical = False
                failures.append(
                    f"population block {index}: fast != {name} "
                    f"(nops {fast.final_nops} vs {results[name].final_nops}, "
                    f"omega {fast.omega_calls} vs "
                    f"{results[name].omega_calls})"
                )
        if certify:
            problem = _certify(dag, machine, results["native"], None)
            if problem is None:
                certified += 1
            else:
                failures.append(f"population block {index}: {problem}")
    return {
        "blocks": scheduled,
        "omega_calls": omega,
        "engines": {
            name: {
                "wall_seconds": round(seconds[name], 4),
                "omega_per_sec": round(omega / seconds[name], 1)
                if seconds[name]
                else None,
            }
            for name in ENGINES
        },
        "speedups": _speedups(seconds),
        "identical": identical,
        "certified": certified,
    }


def _kernel_dag(source: str) -> DependenceDAG:
    from ..frontend.lowering import lower_program
    from ..frontend.parser import parse_program
    from ..opt import optimize_block

    block = optimize_block(lower_program(parse_program(source), "bench"))
    return DependenceDAG(block)


def bench_kernels(
    curtail: int,
    repeats: int,
    failures: Optional[List[str]] = None,
) -> Dict:
    """All engines over kernels x machine presets, repeated and interleaved."""
    options = _engine_options(curtail)
    perf = time.perf_counter
    entries = []
    totals = {name: 0.0 for name in ENGINES}
    if failures is None:
        failures = []
    for kernel in KERNELS:
        dag = _kernel_dag(kernel.source)
        for machine_name, factory in KERNEL_MACHINES:
            machine = factory()
            assignment = _assignment_for(dag, machine)
            seconds = {name: 0.0 for name in ENGINES}
            results: Dict[str, SearchResult] = {}
            for _ in range(repeats):
                for name in ENGINES:
                    t0 = perf()
                    results[name] = schedule_block(
                        dag, machine, options[name], assignment=assignment
                    )
                    seconds[name] += perf() - t0
            base = _result_fields(results["fast"])
            identical = all(
                _result_fields(results[name]) == base for name in _TWINS
            )
            if not identical:
                failures.append(
                    f"kernel {kernel.name} on {machine_name}: "
                    "engines diverge"
                )
            problem = _certify(dag, machine, results["native"], assignment)
            if problem is not None:
                failures.append(
                    f"kernel {kernel.name} on {machine_name}: {problem}"
                )
            for name in ENGINES:
                totals[name] += seconds[name]
            entries.append(
                {
                    "kernel": kernel.name,
                    "machine": machine_name,
                    "instructions": len(dag),
                    "omega_calls": results["fast"].omega_calls,
                    "seconds": {
                        name: round(seconds[name], 5) for name in ENGINES
                    },
                    "speedups": _speedups(seconds),
                    "identical": identical,
                }
            )
    return {
        "entries": entries,
        "speedups": _speedups(totals),
    }


def run_bench(
    blocks: Optional[int] = None,
    master_seed: int = 1990,
    curtail: int = DEFAULT_CURTAIL,
    repeats: int = 25,
    kernels: bool = True,
    certify: bool = True,
) -> Tuple[Dict, List[str]]:
    """Run every suite; returns ``(payload, failures)``.

    ``failures`` lists engine divergences and certificate rejections —
    empty means the fast and native engines are (still) bit-for-bit
    the reference.  ``blocks`` defaults to the ``REPRO_SCALE``-sized
    population (the same corpus the experiments schedule).
    """
    if blocks is None:
        blocks = population_size()
    failures: List[str] = []
    suites: Dict[str, Dict] = {
        "population": bench_population(
            blocks, master_seed, curtail, certify=certify, failures=failures
        )
    }
    if kernels:
        suites["kernels"] = bench_kernels(curtail, repeats, failures=failures)
    payload = {
        "schema": SCHEMA,
        "config": {
            "blocks": blocks,
            "master_seed": master_seed,
            "curtail": curtail,
            "repeats": repeats if kernels else None,
            "env": bench_environment(),
        },
        "suites": suites,
        "summary": {
            "speedups": suites["population"]["speedups"],
            "identical": not failures,
            "failures": failures,
        },
    }
    return payload, failures
