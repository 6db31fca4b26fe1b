"""Scheduling as a service: canonical-form result cache + batch daemon.

Layers:

* :mod:`repro.service.fingerprint` — a label-free canonical form of one
  (block, machine, options) scheduling problem, hashed into a stable
  cache key under which isomorphic problems collide.
* :mod:`repro.service.cache` — :class:`ScheduleCache`, a two-tier
  (in-process LRU over a disk-backed, fsync'd store) memo of full
  ``SearchResult``s, certificate-verified on insert; corrupt disk
  entries are quarantined, never silently dropped.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  ``repro serve`` batch daemon speaking the ``repro-service/2`` JSON
  protocol (admission control, per-request deadlines, liveness/readiness
  health, graceful drain), and its retrying client.  The front end
  serves cache hits itself; the daemon's searches run as
  :func:`execute_job` jobs (:mod:`repro.service.jobs`, which loads no
  HTTP stack) on the supervised worker pool shared with population runs
  (:class:`WorkerPool`, from :mod:`repro.resilience.pool`), which gives
  it crash isolation: a segfault, hang, or OOM kills one worker, the
  request retries on a fresh one and degrades honestly past the retry
  cap.
"""

from .. import _lazy_namespace

#: Version tag of the request/response payloads, here so that the client
#: and the daemon share it without importing each other.
SCHEMA = "repro-service/2"

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".fingerprint": ("CanonicalForm", "fingerprint_problem"),
    ".cache": ("ScheduleCache", "StoreOnlyCache", "CacheIntegrityError"),
    ".jobs": ("execute_block", "execute_job"),
    ".server": ("SchedulingService", "ServiceError", "ServiceOverloadError",
        "ServiceDrainingError", "create_server"),
    ".client": ("ServiceClient", "ServiceClientError"),
    "..resilience.pool": ("WorkerPool", "PoolSaturated"),
})
