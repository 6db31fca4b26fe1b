"""Span recording for the traced run.

While a run is traced, :meth:`Tracer.patched` replaces each layer's
public entry points, under the names the driver, the experiment runner
and the service look them up by, with wrappers that time the call and
record a span: name, start, end, parent span, operation id and counts.
Nothing under ``src/`` changes, and the wrapped functions get the same
arguments, so a traced run computes exactly what an untraced one does.
Spans stay in memory until the run ends.

A layer's self time is its spans' duration minus the part of each
interval that child spans cover (children may overlap one another).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


def _edges(dag, _args) -> Dict[str, int]:
    return {"edges": len(dag.edges)}


def _search(result, _args) -> Dict[str, int]:
    counts = {"omega_calls": result.omega_calls, "proven": int(result.completed)}
    for kind, n in result.prune_counts.items():
        counts[f"prune.{kind}"] = n
    return counts


def _removed(block, args) -> Dict[str, int]:
    return {"tuples_removed": len(args[0]) - len(block)}


def _instructions(assembly, _args) -> Dict[str, int]:
    return {"instructions": assembly.instruction_count}


def _modulo(result, _args) -> Dict[str, int]:
    return {"ii": result.ii, "mii": result.mii, "placements": result.placements}


def _cache(outcome, _args) -> Dict[str, int]:
    return {"hit": int(outcome[1] == "hit")}


def _certificate(report, _args) -> Dict[str, int]:
    return {"checked": 1, "rejected": int(not report.ok)}


#: (owner, attribute, layer, counter): every entry point a traced run
#: wraps.  ``owner`` is the module (or ``module:Class``) the *caller*
#: resolves the name in, so each call site is covered exactly once.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.driver", "parse_program", "frontend", None),
    ("repro.driver", "lower_program", "frontend", None),
    ("repro.frontend.lowering", "lower_loop", "frontend", None),
    ("repro.driver", "optimize_block", "opt", _removed),
    ("repro.driver", "DependenceDAG", "ir.dag", _edges),
    ("repro.experiments.runner", "DependenceDAG", "ir.dag", _edges),
    ("repro.sched.pipelining", "DependenceDAG", "ir.dag", _edges),
    ("repro.service.server", "DependenceDAG", "ir.dag", _edges),
    ("repro.driver", "schedule_block", "sched.search", _search),
    ("repro.experiments.runner", "schedule_block", "sched.search", _search),
    ("repro.sched.pipelining", "schedule_block", "sched.search", _search),
    ("repro.service.cache", "schedule_block", "sched.search", _search),
    ("repro.sched.pipelining", "schedule_loop", "sched.pipelining", _modulo),
    ("repro.sched.pipelining", "min_initiation_interval", "sched.pipelining.mii", None),
    ("repro.driver", "allocate_registers", "regalloc", None),
    ("repro.driver", "generate_assembly", "codegen", _instructions),
    ("repro.simulator.core:PipelineSimulator", "run_padded", "simulator", None),
    ("repro.simulator.register_machine:RegisterMachine", "run_text", "simulator", None),
    ("repro.driver", "run_program", "interp", None),
    ("repro.ir.interp", "run_block", "interp", None),
    ("repro.ir.loop", "run_loop", "interp", None),
    ("repro.verify.certificate", "check_schedule", "verify.certificate", _certificate),
    ("repro.verify.certificate", "check_steady_state", "verify.steady_state", None),
    ("repro.service.cache", "fingerprint_problem", "service.fingerprint", None),
    ("repro.service.cache:ScheduleCache", "schedule_with_status", "service.cache", _cache),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        counter: Optional[Callable] = None,
    ) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        op = getattr(self._local, "op", None)
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = counter(result, args) if counter and result is not None else {}
            self._record(Span(sid, name, start, end, parent, op, counts))

    @contextmanager
    def operation(self, name: str, op: str) -> Iterator[None]:
        """A root span for one benchmark operation; spans opened inside
        it carry ``op`` as their operation id."""
        self._local.op = op
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._local.op = None
            self._record(Span(sid, name, start, end, parent, op))

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    @contextmanager
    def patched(self, layers: Sequence[tuple] = LAYERS) -> Iterator["Tracer"]:
        """Wrap every entry point in ``layers`` for the duration.

        A missing attribute raises: the table must follow the code it
        traces, or the trace would silently lose a layer.
        """
        saved = []
        try:
            for owner, attr, name, counter in layers:
                obj = _resolve(owner)
                original = getattr(obj, attr)
                saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, covered_to = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, covered_to), min(b, hi)
        if b > a:
            total += b - a
            covered_to = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.seconds - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, Any]]:
    """Per layer: self time, calls, median call time, summed counts."""
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    table: Dict[str, Dict[str, Any]] = {}
    for name, group in sorted(by_name.items()):
        counts: Dict[str, int] = defaultdict(int)
        for s in group:
            for key, n in s.counts.items():
                counts[key] += n
        table[name] = {
            "self_s": sum(own[s.id] for s in group),
            "calls": len(group),
            "p50_us": statistics.median(s.seconds for s in group) * 1e6,
            "counts": dict(counts),
        }
    return table


def span_records(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """JSON-ready span records, times in seconds since the first start."""
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {
            "id": s.id,
            "name": s.name,
            "start": round(s.start - t0, 9),
            "end": round(s.end - t0, 9),
            "parent": s.parent,
            "op": s.op,
            "counts": s.counts,
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]
