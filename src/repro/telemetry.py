"""Search telemetry — cheap counters and phase timers for the schedulers.

Combinatorial schedulers live and die by visibility into their pruning
behaviour: the surveys on combinatorial instruction scheduling stress
measuring propagation/pruning effectiveness, and the SMT/ASP lines of
work report solver statistics as first-class output.  This module is the
repository's equivalent: a tiny registry of integer counters and float
timers that the branch-and-bound searches (``sched.search``,
``sched.multi``, ``sched.splitting``) fill in as they prune, that the
population runners aggregate across blocks *and* across worker
processes, and that the CLIs serialize with ``--stats-json``.

Prune-event taxonomy (one counter per kind, ``prune.<kind>``):

``legality``
    Candidates excluded because ``rho(xi) ⊄ Φ`` — the exact ready-set
    realization of the paper's steps [5a]/[5b] quick earliest/latest
    window check plus the real legality test.
``bounds``
    Nodes abandoned by the admissible earliest/latest lower bounds
    (latency-weighted critical path / per-pipeline enqueue capacity),
    including incumbents proven optimal at the root.
``equivalence``
    Candidates filtered by the sound step-[5c] interchangeability
    refinement.
``alpha_beta``
    Step [6] branch-and-bound cutoffs (``mu(Φ) >= mu(pi)``).
``curtail``
    Searches truncated by the curtail point λ (Ω-call budget).
``timeout``
    Searches truncated by a wall-clock deadline.
``dominance``
    Nodes pruned by the dominance memo (an expanded twin prefix was at
    least as cheap).

Searches additionally report ``search.memo_evicted`` — dominance-memo
entries dropped (FIFO) to honor ``max_memo_entries``; a non-zero count
means the memo hit its cap and degraded gracefully instead of growing
without bound.

Loop taxonomy (``loop.<kind>``, added once per ``schedule_loop`` call by
the modulo scheduler in ``repro.sched.pipelining``):

``loop.placements``
    Slot attempts spent by the modulo placement search, summed over the
    candidate IIs of the call (they share one budget).
``loop.refuted``
    Candidate IIs below the answer that the search proved infeasible.
``loop.budget_exhausted``
    Calls whose placement budget ran out before a candidate was decided:
    the returned II is the best known, not a proven optimum.
``loop.proven``
    Calls whose II is proven minimal (it meets MII, or every smaller
    candidate was refuted).

Verification taxonomy (``verify.<kind>``, filled in by the independent
checker in ``repro.verify`` — the oracle, the fuzzer and the
``verify=True`` population hook):

``verify.blocks``
    Block/machine pairs put through the differential oracle.
``verify.schedules_checked``
    Schedules re-derived through the certificate checker.
``verify.certificate_failures``
    Schedules the certificate rejected (illegal order, wrong pipeline,
    under- or over-padded stream, or a NOP count that does not re-derive).
``verify.invariant_failures``
    Cross-scheduler invariants violated (e.g. search worse than its list
    seed, exhaustive optimum below a "proven" optimum).
``verify.sim_skipped``
    Simulator cross-checks skipped because block *semantics* (not
    timing) failed under the synthetic memory, e.g. division by zero.
``verify.blocks_failed``
    Block/machine pairs with at least one discrepancy.
``verify.optimality.runs``
    Blocks put through the cross-solver ILP witness (``repro.ilp``,
    oracle ``optimality=True``).
``verify.optimality.proved``
    Witness runs whose branch and bound completed — the search
    incumbent (or a better schedule) was proven optimal.
``verify.optimality.gaps``
    Witness runs curtailed by a node/pivot/time budget, leaving a
    certified optimality gap (incumbent minus dual lower bound).
``verify.optimality.improved``
    Witness runs that beat the search incumbent outright.

Resilience taxonomy (``resilience.<kind>``, filled in by the budget
ladder in ``repro.experiments.runner`` and the supervised parallel
engine — see ``repro.resilience``):

``resilience.ladder.<step>``
    Blocks published by each rung of the degradation ladder
    (``optimal-search``, ``curtailed-search``, ``split-windows``,
    ``list-seed``).
``resilience.run_budget_exhausted``
    Blocks that skipped the search because the run-level wall-clock or
    Ω budget was already spent.
``resilience.journal_blocks_skipped``
    Blocks recovered from a checkpoint journal on ``--resume`` instead
    of being re-scheduled.
``resilience.poison_blocks``
    Blocks of population chunks the worker pool degraded (retries
    exhausted), published as list seeds.

Worker-pool taxonomy (``pool.<kind>``, counted by the one supervised
pool that population runs and the daemon share — see
``repro.resilience.pool``):

``pool.crashes`` / ``pool.hangs``
    Job attempts lost to a worker found dead (pipe EOF, corpse) / past
    its hang deadline without progress (killed); the worker is replaced.
``pool.corrupt_replies`` / ``pool.worker_errors``
    Replies rejected by the job's validator (the worker is recycled),
    and clean in-worker exceptions (the worker is kept).
``pool.retries`` / ``pool.degraded``
    Failed attempts requeued with backoff, and jobs degraded after
    exhausting their retries or force-resolved at shutdown.
``pool.lost``
    Jobs resolved because the dispatcher thread was gone (a pool bug).
``pool.spawn_failures``
    Worker spawns that failed (fork ``EAGAIN``); the fleet is topped
    back up with backoff on later dispatcher ticks.

Service taxonomy (``service.<kind>``, filled in by the result cache and
the batch daemon — see ``repro.service``):

``service.cache.hits``
    Lookups served from the canonical-form result cache (each also
    replays ``record_search`` so the search aggregates above stay
    consistent with a cold run).
``service.cache.misses``
    Lookups that ran the real search (and, when cache-safe, stored it).
``service.cache.bypass``
    Lookups skipped on purpose: a wall-clock ``time_limit`` was set (the
    outcome is not a function of the problem alone), or the daemon ran
    without a cache.
``service.requests`` / ``service.blocks``
    Batches answered by the daemon, and blocks across them.
``service.cache.quarantined``
    Corrupt disk entries (torn JSON, unreadable, key mismatch) moved to
    ``<store>/quarantine/`` with a reason sidecar instead of silently
    degrading to misses forever.
``service.shed_requests``
    Batches shed by admission control (429 + ``Retry-After``) — the
    in-flight cap or the worker-pool queue was full.
    (Blocks shed by an exhausted request ``deadline`` reuse
    ``resilience.run_budget_exhausted`` — the deadline *is* a request-
    scoped run budget.)
``service.pool.degraded_entries``
    Reply entries published as the list-schedule seed because the
    worker pool degraded their job (see ``pool.*`` above).
``service.http.bad_bodies`` / ``service.http.disconnects``
    Request bodies rejected before parsing (missing/invalid
    ``Content-Length``, oversized, truncated mid-body) and replies that
    failed because the client hung up.
``service.client.retries``
    Client-side request attempts retried with jittered backoff after a
    retryable answer (429, 5xx, transport error).

The registry is deliberately dumb: the searches accumulate plain local
integers in their hot loops and flush them here once per block, so the
per-node overhead of telemetry is a handful of integer adds whether or
not a registry is attached.

Serialized schema (stable; ``--stats-json``)::

    {
      "schema": "repro-telemetry/1",
      "counters": {"prune.alpha_beta": 123, ...},
      "timers": {"phase.schedule": 1.25, ...},
      "meta": {...}                       # free-form run context
    }
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from .prunes import PRUNE_KINDS

#: Version tag of the serialized payload.
SCHEMA = "repro-telemetry/1"


class Telemetry:
    """A mergeable registry of counters and wall-clock timers."""

    __slots__ = ("counters", "timers")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}

    # -- accumulation --------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase (additive across entries)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(f"phase.{name}", time.perf_counter() - start)

    def record_search(self, result: Any) -> None:
        """Fold one search outcome into the registry.

        Accepts any of the scheduler results (``SearchResult``,
        ``MultiScheduleResult``, ``SplitScheduleResult``) — anything with
        ``omega_calls``/``elapsed_seconds`` and an optional
        ``prune_counts`` mapping.
        """
        self.count("search.runs")
        self.count("search.omega_calls", getattr(result, "omega_calls", 0))
        completed = getattr(result, "completed", None)
        if completed is None:
            completed = getattr(result, "all_windows_completed", False)
        if completed:
            self.count("search.completed")
        if getattr(result, "timed_out", False):
            self.count("search.timed_out")
        # Dominance-memo evictions (zero-filled so the key always exists).
        self.count("search.memo_evicted", getattr(result, "memo_evicted", 0))
        for kind in PRUNE_KINDS:
            self.counters.setdefault(f"prune.{kind}", 0)
        for kind, n in (getattr(result, "prune_counts", None) or {}).items():
            self.count(f"prune.{kind}", n)
        self.add_time("time.search", getattr(result, "elapsed_seconds", 0.0))

    # -- aggregation ---------------------------------------------------
    def merge(self, other: Union["Telemetry", Mapping[str, Any]]) -> None:
        """Add another registry (or its ``as_dict`` payload) into this one.

        This is how per-worker statistics from the parallel population
        engine are combined: counters and timers are both additive.
        """
        if isinstance(other, Telemetry):
            counters: Mapping[str, int] = other.counters
            timers: Mapping[str, float] = other.timers
        else:
            counters = other.get("counters", {})
            timers = other.get("timers", {})
        for name, n in counters.items():
            self.count(name, n)
        for name, seconds in timers.items():
            self.add_time(name, seconds)

    # -- serialization -------------------------------------------------
    def as_dict(self, meta: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "timers": dict(sorted(self.timers.items())),
        }
        if meta is not None:
            payload["meta"] = dict(meta)
        return payload

    def dumps(self, meta: Optional[Mapping[str, Any]] = None) -> str:
        return json.dumps(self.as_dict(meta), indent=2, sort_keys=False)

    def write_json(
        self, path: str, meta: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Write the payload atomically (readers never see a torn file)."""
        from .ioutil import atomic_write_text

        atomic_write_text(path, self.dumps(meta) + "\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry({len(self.counters)} counters, "
            f"{len(self.timers)} timers)"
        )
