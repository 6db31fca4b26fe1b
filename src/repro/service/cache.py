"""Two-tier canonical-form result cache for the branch-and-bound search.

``ScheduleCache.schedule`` is a drop-in for
:func:`repro.sched.search.schedule_block`: it fingerprints the problem
(:mod:`repro.service.fingerprint`), serves a previously solved
``SearchResult`` when the canonical form is known, and otherwise runs
the real search and memoizes the outcome.  Cached results are stored in
*dense positional* form and translated back through the caller's
``dag.idents`` on a hit — that is what lets a block solved under one
ident naming satisfy an isomorphic block under another.

Tiers
-----
* **Memory**: a bounded LRU (``memory_entries``) guarded by a lock, so
  a threaded server can share one cache instance.
* **Disk** (optional, ``path``): one JSON file per key under
  ``<path>/<key[:2]>/<key>.json``, written atomically and fsync'd via
  :mod:`repro.ioutil` — concurrent population workers can share a store
  directory without coordination (last writer wins with an identical
  payload), and a crash can never leave a torn entry.  Entries from an
  unknown schema version degrade to plain misses; *corrupt* entries
  (torn JSON, tampered keys, unreadable files) additionally move to
  ``<store>/quarantine/<key>.json`` with a ``.reason`` sidecar and count
  ``service.cache.quarantined``, so corruption is observable instead of
  an invisible miss.
* The daemon's pool workers hold a :class:`StoreOnlyCache`: the disk
  tier and the insert check, no memory tier (the front end's serves
  every hit).

Safety
------
* Results are **certificate-verified on insert** through
  :mod:`repro.verify.certificate` (an independent implementation); a
  search result that fails its certificate raises
  :class:`CacheIntegrityError` instead of poisoning the store.
* Lookups are **bypassed** (counted, not served) whenever the problem is
  not cache-safe: a wall-clock ``time_limit`` makes the outcome depend
  on machine load, not just the problem.  For the same reason a
  ``timed_out`` result is never stored.  Curtailed-but-not-timed-out
  results are deterministic and cached like any other.
* The pickle form drops the memory tier and its lock: a cache shipped
  to a population worker process re-opens the same disk store with a
  cold LRU.

Telemetry: every lookup counts ``service.cache.hits`` /
``service.cache.misses`` / ``service.cache.bypass`` on the registry
passed to :meth:`ScheduleCache.schedule`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

from ..ioutil import atomic_write_json
from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription, first_pipeline_assignment
from ..prunes import PRUNE_KINDS
from ..sched.nop_insertion import (
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
)
from ..sched.search import SearchOptions, SearchResult, schedule_block
from ..telemetry import Telemetry
from ..verify import certificate
from .fingerprint import CanonicalForm, fingerprint_problem

__all__ = ["ScheduleCache", "StoreOnlyCache", "CacheIntegrityError", "STORE_SCHEMA"]

#: Version tag of one on-disk entry.  Entries with any other tag are
#: treated as misses (forward/backward compatible by re-solving) and
#: overwritten by the re-solved entry.  Version 2 came with the
#: release-deadline search bound, which changes the Omega calls, prune
#: counts and curtailed incumbents an entry stores: a version-1 entry
#: would replay a search that no longer runs, so a hit would differ
#: from a cold search.
STORE_SCHEMA = "repro-cache/2"

#: Lookup outcomes (the provenance the server reports per entry).
HIT, MISS, BYPASS = "hit", "miss", "bypass"


class CacheIntegrityError(AssertionError):
    """A result failed its independent certificate check on insert."""


def _timing_payload(timing: ScheduleTiming, index_of: Dict[int, int]) -> Dict[str, Any]:
    return {
        "order": [index_of[i] for i in timing.order],
        "etas": list(timing.etas),
        "issue_times": list(timing.issue_times),
    }


def _timing_from_payload(data: Dict[str, Any], idents: Tuple[int, ...]) -> ScheduleTiming:
    return ScheduleTiming(
        order=tuple(idents[k] for k in data["order"]),
        etas=tuple(data["etas"]),
        issue_times=tuple(data["issue_times"]),
    )


class ScheduleCache:
    """Memoized ``schedule_block`` over a canonical-form key."""

    def __init__(
        self,
        path: Optional[str] = None,
        memory_entries: int = 4096,
        verify_on_insert: bool = True,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be positive")
        self.path = os.fspath(path) if path is not None else None
        self.memory_entries = memory_entries
        self.verify_on_insert = verify_on_insert
        self._mem: OrderedDict[str, Dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()

    # -- pickling (population workers) ---------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "memory_entries": self.memory_entries,
            "verify_on_insert": self.verify_on_insert,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.memory_entries = state["memory_entries"]
        self.verify_on_insert = state["verify_on_insert"]
        self._mem = OrderedDict()
        self._lock = threading.Lock()

    def store_only(self) -> "StoreOnlyCache":
        """This cache as the daemon's pool workers hold it."""
        return StoreOnlyCache(self.path, verify_on_insert=self.verify_on_insert)

    # -- tiers ---------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        assert self.path is not None
        return os.path.join(self.path, key[:2], f"{key}.json")

    def _mem_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self._mem.move_to_end(key)
            return entry

    def _mem_put(self, key: str, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._mem[key] = entry
            self._mem.move_to_end(key)
            while len(self._mem) > self.memory_entries:
                self._mem.popitem(last=False)

    def _disk_get(
        self, key: str, telemetry: Optional[Telemetry] = None
    ) -> Optional[Dict[str, Any]]:
        if self.path is None:
            return None
        try:
            with open(self._entry_path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(key, f"unreadable: {exc}", telemetry)
            return None
        except ValueError as exc:
            self._quarantine(key, f"torn or non-JSON payload: {exc}", telemetry)
            return None
        if not isinstance(entry, dict):
            self._quarantine(
                key, f"payload is {type(entry).__name__}, not an object", telemetry
            )
            return None
        if entry.get("schema") != STORE_SCHEMA:
            # An unknown schema is a version skew, not corruption: leave
            # the file for the tooling that understands it and re-solve.
            return None
        if entry.get("key") != key:
            self._quarantine(
                key, f"key mismatch: file names {entry.get('key')!r}", telemetry
            )
            return None
        return entry

    def _quarantine(
        self, key: str, reason: str, telemetry: Optional[Telemetry] = None
    ) -> None:
        """Move a corrupt disk entry aside so corruption is observable.

        The entry lands in ``<store>/quarantine/<key>.json`` next to a
        ``.reason`` sidecar instead of silently degrading to a miss
        forever; the next solve rewrites the canonical slot.  Best
        effort — a store too broken to rename in is still just a miss.
        """
        assert self.path is not None
        dst = os.path.join(self.path, "quarantine", f"{key}.json")
        try:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            os.replace(self._entry_path(key), dst)
            with open(dst + ".reason", "w", encoding="utf-8") as fh:
                fh.write(reason + "\n")
        except OSError:
            pass
        if telemetry is not None:
            telemetry.count("service.cache.quarantined")
        print(
            f"repro cache: quarantined corrupt entry {key[:12]}... ({reason})",
            file=sys.stderr,
        )

    def _disk_put(self, key: str, entry: Dict[str, Any]) -> None:
        if self.path is None:
            return
        target = self._entry_path(key)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        atomic_write_json(target, entry, indent=None, sort_keys=True)

    def _lookup(
        self, key: str, telemetry: Optional[Telemetry] = None
    ) -> Optional[Dict[str, Any]]:
        entry = self._mem_get(key)
        if entry is not None:
            return entry
        entry = self._disk_get(key, telemetry=telemetry)
        if entry is not None:
            self._mem_put(key, entry)
        return entry

    def reject(
        self, key: str, reason: str, telemetry: Optional[Telemetry] = None
    ) -> None:
        """Drop a stored entry that proved corrupt after it was read.

        The memory tier forgets it and, with a disk store, the file is
        quarantined like one that failed to parse, so the next lookup
        misses and the next search rewrites the slot.
        """
        with self._lock:
            self._mem.pop(key, None)
        if self.path is not None:
            self._quarantine(key, reason, telemetry)
        elif telemetry is not None:
            telemetry.count("service.cache.quarantined")

    def adopt(self, entry: Dict[str, Any]) -> None:
        """Put an entry another process stored into the memory tier."""
        self._mem_put(entry["key"], entry)

    # -- (de)hydration -------------------------------------------------
    def _entry_from_result(
        self, form: CanonicalForm, result: SearchResult
    ) -> Dict[str, Any]:
        index_of = {ident: k for k, ident in enumerate(form.idents)}
        return {
            "schema": STORE_SCHEMA,
            "key": form.key,
            "n": form.n,
            "best": _timing_payload(result.best, index_of),
            "initial": _timing_payload(result.initial, index_of),
            "omega_calls": result.omega_calls,
            "completed": result.completed,
            "improvements": result.improvements,
            "proved_by_bound": result.proved_by_bound,
            "memo_evicted": result.memo_evicted,
            "prune_counts": {
                kind: int(result.prune_counts.get(kind, 0))
                for kind in PRUNE_KINDS
            },
        }

    def _result_from_entry(
        self, entry: Dict[str, Any], idents: Tuple[int, ...], elapsed: float
    ) -> SearchResult:
        return SearchResult(
            best=_timing_from_payload(entry["best"], idents),
            initial=_timing_from_payload(entry["initial"], idents),
            omega_calls=entry["omega_calls"],
            completed=entry["completed"],
            elapsed_seconds=elapsed,
            improvements=entry["improvements"],
            proved_by_bound=entry["proved_by_bound"],
            timed_out=False,
            memo_evicted=entry["memo_evicted"],
            prune_counts=dict(entry["prune_counts"]),
        )

    # -- verification ---------------------------------------------------
    def _certify(
        self,
        dag: DependenceDAG,
        machine: MachineDescription,
        result: SearchResult,
        assignment: Optional[PipelineAssignment],
        initial_conditions: Optional[InitialConditions],
    ) -> None:
        if assignment is None:
            assignment = first_pipeline_assignment(dag, machine)
        initial = initial_conditions or InitialConditions()
        for label, timing in (("best", result.best), ("initial", result.initial)):
            cert = certificate.check_schedule(
                dag.block,
                machine,
                timing.order,
                timing.etas,
                assignment=assignment,
                pipe_free=initial.pipe_free,
                variable_ready=initial.variable_ready,
                tuple_ready=initial.tuple_ready,
            )
            if not cert.ok or cert.required_nops != timing.total_nops:
                raise CacheIntegrityError(
                    f"refusing to cache {label} schedule of block "
                    f"{dag.block.name!r} on {machine.name}: {cert.summary()}"
                )

    # -- the public surface --------------------------------------------
    def lookup(
        self, form: CanonicalForm, telemetry: Optional[Telemetry] = None
    ) -> Optional[SearchResult]:
        """The stored result of an already-fingerprinted problem, or None.

        The read half of :meth:`schedule_with_status`, for a caller that
        fingerprinted the problem itself (the daemon's front end, which
        needs the key to deduplicate a batch anyway).  A hit counts
        ``service.cache.hits``; a miss counts nothing, since the search
        that follows counts it.  An entry too malformed to hydrate is
        quarantined and reads as a miss.
        """
        start = time.perf_counter()
        entry = self._lookup(form.key, telemetry=telemetry)
        if entry is None or entry.get("n") != form.n:
            return None
        try:
            result = self._result_from_entry(
                entry, form.idents, time.perf_counter() - start
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            self.reject(form.key, f"malformed entry: {exc!r}", telemetry)
            return None
        if telemetry is not None:
            telemetry.count("service.cache.hits")
            # Replayed searches keep the search/prune aggregates
            # consistent with what a cold run would report.
            telemetry.record_search(result)
        return result

    def schedule(
        self,
        dag: DependenceDAG,
        machine: MachineDescription,
        options: SearchOptions = SearchOptions(),
        assignment: Optional[PipelineAssignment] = None,
        seed: Optional[Sequence[int]] = None,
        initial_conditions: Optional[InitialConditions] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> SearchResult:
        """Cached :func:`repro.sched.search.schedule_block`."""
        return self.schedule_with_status(
            dag,
            machine,
            options,
            assignment=assignment,
            seed=seed,
            initial_conditions=initial_conditions,
            telemetry=telemetry,
        )[0]

    def schedule_with_status(
        self,
        dag: DependenceDAG,
        machine: MachineDescription,
        options: SearchOptions = SearchOptions(),
        assignment: Optional[PipelineAssignment] = None,
        seed: Optional[Sequence[int]] = None,
        initial_conditions: Optional[InitialConditions] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> Tuple[SearchResult, str]:
        """Like :meth:`schedule`, plus the lookup provenance.

        Returns ``(result, status)`` with ``status`` one of ``"hit"``,
        ``"miss"`` or ``"bypass"``.
        """
        if options.time_limit is not None:
            # Wall-clock-limited searches are not functions of the
            # problem alone; never serve or store them.
            if telemetry is not None:
                telemetry.count("service.cache.bypass")
            result = schedule_block(
                dag,
                machine,
                options,
                assignment=assignment,
                seed=seed,
                initial_conditions=initial_conditions,
                telemetry=telemetry,
            )
            return result, BYPASS

        form = fingerprint_problem(
            dag, machine, options, assignment, seed, initial_conditions
        )
        result = self.lookup(form, telemetry=telemetry)
        if result is not None:
            return result, HIT

        result = schedule_block(
            dag,
            machine,
            options,
            assignment=assignment,
            seed=seed,
            initial_conditions=initial_conditions,
            telemetry=telemetry,
        )
        if telemetry is not None:
            telemetry.count("service.cache.misses")
        if not result.timed_out:
            if self.verify_on_insert:
                self._certify(dag, machine, result, assignment, initial_conditions)
            entry = self._entry_from_result(form, result)
            self._mem_put(form.key, entry)
            self._disk_put(form.key, entry)
        return result, MISS


class StoreOnlyCache(ScheduleCache):
    """The daemon's cache as a pool worker holds it: no memory tier.

    The front end's :class:`ScheduleCache` serves every hit, so a worker
    only sees problems the front end missed; an LRU of its own would be
    a second copy of the front end's.  Inserts are still certified and
    written to the shared disk store, where the front end's next lookup
    finds them.  Without a disk store, the entry a job stored waits in
    :attr:`stored` until the job's reply carries it to the front end
    (:meth:`ScheduleCache.adopt`), the only way a solved block can
    become a hit there.
    """

    #: The entry the current job stored, when there is no disk store.
    stored: Optional[Dict[str, Any]] = None

    def _mem_get(self, key: str) -> Optional[Dict[str, Any]]:
        return None

    def _mem_put(self, key: str, entry: Dict[str, Any]) -> None:
        if self.path is None:
            self.stored = entry
