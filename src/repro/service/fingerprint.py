"""Canonical fingerprints for scheduling problems.

Two (block, machine, options) triples that are *isomorphic* — the same
problem up to a renaming of tuple reference numbers and pipeline
identifiers, and up to the order of commutative operands — admit exactly
the same searches: every candidate order, prune decision, Ω call and
incumbent of one maps to the other through the renaming.  This module
derives a stable content hash under which such problems collide, so a
result cache (:mod:`repro.service.cache`) can serve one's solved
``SearchResult`` for the other.

Canonical form
--------------
The key is built from the same dense lowering the fast engine uses
(:class:`repro.sched.core._Flat`):

* **Instructions** are named by position in ``dag.idents`` (program
  order).  The search itself is covariant under ident renaming: the
  list-schedule seed tie-breaks on positions/heights/descendant counts,
  and the fast engine keys every mask, memo entry and candidate sort on
  dense indices — so any two blocks with equal flat tables behave
  identically, Ω accounting and prune counts included.
* **Pipelines** are named by a *label-free* signature sort: each dense
  pipeline is summarized as ``(latency, enqueue_time, carry-in,
  sorted dense users)`` and pipelines are renumbered in that order.
  Sorting by raw pipeline ident would leak labels into the key (swapping
  which ident the loader and the multiplier carry changes nothing about
  the problem); the signature sort does not.  Pipelines with identical
  signatures are interchangeable, so ties are harmless.  The *whole*
  pipeline table participates — a pipeline no instruction uses still
  changes ``machine.max_latency`` and with it the dominance-memo window,
  hence the prune counts.
* **Operands** enter the payload only through the dependence edges
  (commutative operand order is already invisible there) — except under
  a register-pressure budget (``options.max_live``), where liveness
  additionally depends on which *values* each tuple consumes; the dense
  value-reference sets and produces-a-value flags are folded in exactly
  then.
* **Options** participate minus ``engine``: all three engines (fast,
  native, reference) are bit-for-bit identical in every field the cache
  stores, so they share entries — a result solved under one
  engine is served to requests arriving under any other.

The fingerprint deliberately does **not** try to canonicalize away the
program order itself (graph canonization): blocks that differ by a
legal reordering are distinct cache entries.  That keeps key derivation
O(n log n) and collision-free by construction — the hypothesis suite in
``tests/test_fingerprint.py`` pins both directions (isomorphic problems
collide; any latency/enqueue/dependence mutation separates).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..sched.core import _Flat
from ..sched.list_scheduler import list_schedule, program_order
from ..sched.nop_insertion import (
    InitialConditions,
    PipelineAssignment,
    SigmaResolver,
)
from ..sched.search import ScheduleRequest, SearchOptions

__all__ = ["CanonicalForm", "fingerprint_problem", "canonical_payload"]

#: Version tag folded into every key: bump on any change to the payload
#: layout so stale stores turn into clean misses, never wrong hits.
CANON_VERSION = "repro-canon/1"

#: ``SearchOptions`` fields that shape the search outcome and therefore
#: the key.  ``engine`` is excluded on purpose: the fast, native and
#: reference engines are bit-for-bit identical in every stored field.
_OPTION_FIELDS = (
    "curtail",
    "alpha_beta",
    "equivalence_prune",
    "lower_bound_prune",
    "dominance_prune",
    "heuristic_seeds",
    "seed_with_list_schedule",
    "cheapest_first",
    "max_memo_entries",
    "time_limit",
    "max_live",
)


@dataclass(frozen=True)
class CanonicalForm:
    """A scheduling problem reduced to its canonical dense tables.

    ``key`` is the cache key (sha256 hex digest over the canonical
    payload); ``idents`` maps dense instruction indices back to the
    *caller's* tuple reference numbers, which is how a cached dense
    result is translated into the caller's namespace on a hit.
    """

    key: str
    n: int
    idents: Tuple[int, ...]

    def __str__(self) -> str:
        return f"CanonicalForm({self.key[:12]}…, n={self.n})"


def _dense_seed(
    dag: DependenceDAG,
    options: SearchOptions,
    seed: Optional[Sequence[int]],
) -> Tuple[int, ...]:
    """The seed schedule in dense positions.

    Mirrors ``schedule_block``'s default: the list schedule (or program
    order with ``seed_with_list_schedule`` off).  The ``max_live``
    fallback to program order needs no special handling — it is a pure
    function of quantities already in the payload (the seed, the value
    references, the budget), so equal payloads take the same fallback.
    """
    if seed is None:
        seed = (
            list_schedule(dag)
            if options.seed_with_list_schedule
            else program_order(dag)
        )
    index_of = {ident: k for k, ident in enumerate(dag.idents)}
    return tuple(index_of[i] for i in seed)


def canonical_payload(
    dag: DependenceDAG,
    machine: MachineDescription,
    options: SearchOptions = SearchOptions(),
    assignment: Optional[PipelineAssignment] = None,
    seed: Optional[Sequence[int]] = None,
    initial_conditions: Optional[InitialConditions] = None,
) -> Dict[str, Any]:
    """The canonical (renaming-free) description of one search problem."""
    resolver = SigmaResolver(dag, machine, assignment)
    initial = (
        initial_conditions if initial_conditions is not None else InitialConditions()
    )
    flat = _Flat(dag, machine, resolver, initial)

    # Pipelines, renamed by label-free signature.  ``_Flat`` orders its
    # pipe arrays by sorted raw ident; recover the per-pipe latency in
    # that same order, then renumber.
    pipe_ids = sorted(p.ident for p in machine.pipelines)
    pipe_lat = [machine.pipeline(pid).latency for pid in pipe_ids]
    users: list[list[int]] = [[] for _ in range(flat.P)]
    for k, p in enumerate(flat.sig):
        if p >= 0:
            users[p].append(k)
    pipe_sig = [
        (
            pipe_lat[p],
            flat.pipe_enq[p],
            # None sorts nowhere; encode the idle carry-in as a sentinel
            # below any reachable last-issue time.
            flat.pipe_last[p] if flat.pipe_last[p] is not None else -(10**9),
            tuple(users[p]),
        )
        for p in range(flat.P)
    ]
    order = sorted(range(flat.P), key=lambda p: pipe_sig[p])
    canon_of = {p: c for c, p in enumerate(order)}

    rows = [
        (
            flat.lat[k],
            flat.enq[k],
            canon_of[flat.sig[k]] if flat.sig[k] >= 0 else -1,
            sorted(flat.preds[k]),
            flat.var_bound[k],
        )
        for k in range(flat.n)
    ]
    payload: Dict[str, Any] = {
        "version": CANON_VERSION,
        "n": flat.n,
        "rows": rows,
        "pipes": [pipe_sig[p] for p in order],
        "seed": _dense_seed(dag, options, seed),
        "options": {f: getattr(options, f) for f in _OPTION_FIELDS},
    }
    if options.max_live is not None:
        # Register pressure sees values, not just dependences: fold in
        # each tuple's consumed value set and whether it defines one.
        index_of = flat.index_of
        payload["liveness"] = [
            (
                sorted(index_of[r] for r in t.value_refs),
                bool(t.op.produces_value),
            )
            for t in dag.block
        ]
    return payload


def fingerprint_problem(
    dag,
    machine: Optional[MachineDescription] = None,
    options: SearchOptions = SearchOptions(),
    assignment: Optional[PipelineAssignment] = None,
    seed: Optional[Sequence[int]] = None,
    initial_conditions: Optional[InitialConditions] = None,
) -> CanonicalForm:
    """Hash a scheduling problem into its canonical cache key.

    Accepts either the legacy ``(dag, machine, ...)`` arguments or a
    complete :class:`~repro.sched.search.ScheduleRequest` as the sole
    argument (the unified request API) — the same problem produces the
    same key through either spelling.  Loop requests are rejected: the
    result cache stores straight-line ``SearchResult`` payloads only.
    """
    if isinstance(dag, ScheduleRequest):
        request = dag
        overridden = [
            name
            for name, value, default in (
                ("machine", machine, None),
                ("options", options, SearchOptions()),
                ("assignment", assignment, None),
                ("seed", seed, None),
                ("initial_conditions", initial_conditions, None),
            )
            if value != default
        ]
        if overridden:
            raise ValueError(
                "pass either a ScheduleRequest or the legacy keyword "
                f"arguments, not both (also given: {', '.join(overridden)})"
            )
        if request.is_loop:
            raise TypeError(
                "loop scheduling problems are not fingerprinted: the "
                "result cache stores straight-line SearchResult payloads"
            )
        machine = request.machine
        options = request.options
        assignment = request.assignment
        seed = request.seed
        initial_conditions = request.initial_conditions
        dag = request.dag
    if machine is None:
        raise TypeError(
            "machine is required unless a ScheduleRequest is passed"
        )
    payload = canonical_payload(
        dag, machine, options, assignment, seed, initial_conditions
    )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return CanonicalForm(key=key, n=payload["n"], idents=dag.idents)
