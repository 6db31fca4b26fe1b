"""Deterministic fault injection for the supervised worker pool.

Chaos testing a supervisor is only useful when the chaos replays: a CI
failure must reproduce locally from the same seed.  A :class:`FaultPlan`
is therefore a pure function of ``(seed, chunk_id, attempt)`` — no global
RNG, no wall clock — that tells a worker to **crash** (hard ``os._exit``,
simulating an OOM kill or segfault), **hang** (sleep far past the
supervisor's hang timeout, simulating a livelock), or **corrupt** its
reply (one that fails the parent's validation, simulating memory
corruption or a serialization bug).

``max_faults_per_chunk`` bounds how many *attempts* of one job can
fault, so a faulted run always converges: once a job has burned its
fault allowance, the next retry runs clean and produces exactly the
reply a fault-free run would — which is what lets the chaos suites
assert byte-identical output.  (Set it above the supervisor's retry cap
to exercise the degrade/quarantine path instead.)

The plan travels to the workers of :mod:`repro.resilience.pool`, where
``chunk_id`` is the pool job's sequence number: a population chunk's id
(``repro experiments --chaos``), or a daemon job's arrival rank
(``repro serve --chaos``).  Each job function decides where a crash or
hang strikes — a population chunk at its midpoint, after some records
are already built, so recovery must *discard* partial work; a daemon job
after parsing its block.
"""

from __future__ import annotations

import os
import random
import time
from typing import Optional

from ..record import Record, setslot

#: Fault kinds a plan can schedule.
FAULT_KINDS = ("crash", "hang", "corrupt")

#: Exit status of an injected worker crash (distinctive in process tables).
CRASH_EXIT_CODE = 70


class FaultPlan(Record):
    """Seeded schedule of worker faults (rates are per chunk *attempt*)."""

    __slots__ = ("seed", "crash_rate", "hang_rate", "corrupt_rate", "hang_seconds",
                 "max_faults_per_chunk")

    def __init__(self, seed: int = 0, crash_rate: float = 0.0, hang_rate: float = 0.0,
                 corrupt_rate: float = 0.0, hang_seconds: float = 30.0,
                 max_faults_per_chunk: int = 2):
        setslot(self, "seed", seed)
        setslot(self, "crash_rate", crash_rate)
        setslot(self, "hang_rate", hang_rate)
        setslot(self, "corrupt_rate", corrupt_rate)
        setslot(self, "hang_seconds", hang_seconds)
        setslot(self, "max_faults_per_chunk", max_faults_per_chunk)
        for name in ("crash_rate", "hang_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1] (got {rate})")
        if self.crash_rate + self.hang_rate + self.corrupt_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if self.max_faults_per_chunk < 0:
            raise ValueError("max_faults_per_chunk must be non-negative")

    def decide(self, chunk_id: int, attempt: int) -> Optional[str]:
        """The fault (if any) attempt ``attempt`` of chunk ``chunk_id`` takes.

        Deterministic: integer-mixed seeding, no dependence on process
        state, so the parent can predict exactly what its workers will do.
        """
        if attempt >= self.max_faults_per_chunk:
            return None
        rng = random.Random(
            self.seed * 2_654_435_761 + chunk_id * 40_503 + attempt
        )
        draw = rng.random()
        if draw < self.crash_rate:
            return "crash"
        if draw < self.crash_rate + self.hang_rate:
            return "hang"
        if draw < self.crash_rate + self.hang_rate + self.corrupt_rate:
            return "corrupt"
        return None

    def inject(self, fault: Optional[str]) -> None:
        """Execute a crash or hang fault in the calling worker process.

        (``corrupt`` is applied to the result payload by the worker, not
        here — it must survive until the records are returned.)
        """
        if fault == "crash":
            os._exit(CRASH_EXIT_CODE)
        elif fault == "hang":
            time.sleep(self.hang_seconds)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from CLI syntax: ``"crash=0.1,hang=0.05,seed=7"``.

        Keys: ``crash``, ``hang``, ``corrupt`` (rates), ``seed``,
        ``hang-seconds``, ``max-faults``.
        """
        kwargs: dict = {}
        mapping = {
            "crash": ("crash_rate", float),
            "hang": ("hang_rate", float),
            "corrupt": ("corrupt_rate", float),
            "seed": ("seed", int),
            "hang-seconds": ("hang_seconds", float),
            "max-faults": ("max_faults_per_chunk", int),
        }
        for piece in spec.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, sep, value = piece.partition("=")
            key = key.strip()
            if not sep or key not in mapping:
                raise ValueError(
                    f"bad --chaos entry {piece!r} "
                    f"(keys: {', '.join(sorted(mapping))})"
                )
            name, cast = mapping[key]
            try:
                kwargs[name] = cast(value.strip())
            except ValueError:
                raise ValueError(
                    f"bad --chaos value for {key!r}: {value.strip()!r}"
                ) from None
        return cls(**kwargs)
