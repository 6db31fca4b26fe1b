"""Resource budgets and the degradation ladder.

The paper's curtail point λ (section 2.3, step [6]) is already a
graceful-degradation primitive: stop searching, keep the best schedule
found so far, and *say so* on the result.  Production runs need the same
anytime contract for every resource, not just Ω calls.  This module
unifies the three block-level budgets —

* **wall clock** (``SearchOptions.time_limit``),
* **node expansions** (the curtail point λ), and
* **dominance-memo memory** (``SearchOptions.max_memo_entries``)

— plus two *run*-level budgets (total wall clock and total Ω calls across
a whole population), behind one :class:`BudgetManager`, and defines the
**degradation ladder** a block walks down as budgets tighten:

``optimal-search``
    The branch-and-bound exhausted its pruned space (or the incumbent met
    an admissible lower bound); the published schedule is provably optimal.
``curtailed-search``
    The Ω budget (λ) truncated the search; the published schedule is the
    best incumbent — the paper's condition [2].  Deterministic: the same
    block and λ always stop at the same incumbent.
``split-windows``
    The wall-clock deadline truncated the search; the section-5.3 windowed
    scheduler re-ran the block under a small *deterministic* per-window Ω
    budget and beat the list-schedule seed.  The published schedule is
    locally optimal per window.
``list-seed``
    Nothing beat the list-schedule seed within budget (or the run-level
    budget was already exhausted, or a poisoned worker chunk was
    quarantined); the published schedule is the deterministic list
    schedule itself.

Every rung (named in :mod:`repro.resilience.ladder`) is recorded on
``BlockRecord.ladder`` and counted in the ``resilience.ladder.*``
telemetry namespace, so a degraded run is never silently
indistinguishable from a complete one.
"""

from __future__ import annotations

import time
from typing import Optional

from ..record import Record, setslot
from ..sched.search import SearchOptions

#: Per-window Ω budget of the split-windows rung.  Small enough that the
#: fallback costs a fraction of the primary search, large enough that a
#: 20-instruction window almost always completes.
DEFAULT_SPLIT_CURTAIL = 2_000

#: Window size of the split-windows rung (the paper's suggestion).
DEFAULT_SPLIT_WINDOW = 20


class BlockBudget(Record):
    """Per-block resource caps (``None`` = uncapped).

    ``wall_clock`` bounds the seconds one block may spend in the
    branch-and-bound; ``omega_cap`` clamps the curtail point λ;
    ``memo_cap`` clamps the dominance-memo entry count (memory).
    """

    __slots__ = ("wall_clock", "omega_cap", "memo_cap")

    def __init__(self, wall_clock: Optional[float] = None, omega_cap: Optional[int] = None,
                 memo_cap: Optional[int] = None):
        setslot(self, "wall_clock", wall_clock)
        setslot(self, "omega_cap", omega_cap)
        setslot(self, "memo_cap", memo_cap)
        if self.wall_clock is not None and self.wall_clock <= 0:
            raise ValueError("block wall_clock budget must be positive")
        if self.omega_cap is not None and self.omega_cap < 1:
            raise ValueError("block omega_cap must be at least 1")
        if self.memo_cap is not None and self.memo_cap < 0:
            raise ValueError("block memo_cap must be non-negative")


class BudgetManager:
    """Budgets for one population run, and the ladder configuration.

    The manager is picklable and crosses process boundaries into the
    population workers: block-level clamps (:meth:`options_for_block`)
    and the split-rung configuration are stateless, so workers apply them
    locally.  Run-level accounting (:meth:`charge`, :meth:`run_exhausted`)
    is kept by whichever process merges records — the parent, for
    parallel runs — so the run-level Ω cap is exact for serial runs and
    chunk-granular for parallel ones.

    ``time.monotonic`` is system-wide on the platforms we target, so the
    run deadline set in the parent holds in forked workers too.
    """

    def __init__(
        self,
        block: BlockBudget = BlockBudget(),
        run_wall_clock: Optional[float] = None,
        run_omega_cap: Optional[int] = None,
        split_fallback: bool = True,
        split_window: int = DEFAULT_SPLIT_WINDOW,
        split_curtail: int = DEFAULT_SPLIT_CURTAIL,
    ) -> None:
        if run_wall_clock is not None and run_wall_clock <= 0:
            raise ValueError("run wall-clock budget must be positive")
        if run_omega_cap is not None and run_omega_cap < 1:
            raise ValueError("run omega cap must be at least 1")
        if split_window < 1:
            raise ValueError("split window must be at least 1")
        if split_curtail < 1:
            raise ValueError("split curtail must be at least 1")
        self.block = block
        self.run_wall_clock = run_wall_clock
        self.run_omega_cap = run_omega_cap
        self.split_fallback = split_fallback
        self.split_window = split_window
        self.split_curtail = split_curtail
        self._deadline: Optional[float] = None
        self._omega_spent = 0

    # -- run-level accounting ------------------------------------------
    def start(self) -> "BudgetManager":
        """Arm the run-level wall clock (idempotent)."""
        if self.run_wall_clock is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.run_wall_clock
        return self

    def charge(self, omega_calls: int) -> None:
        """Account ``omega_calls`` against the run-level Ω budget."""
        self._omega_spent += omega_calls

    @property
    def omega_spent(self) -> int:
        return self._omega_spent

    def remaining_run_seconds(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def run_exhausted(self) -> Optional[str]:
        """Why the *run* budget is spent (``None`` while it is not).

        Once exhausted, remaining blocks drop straight to the
        ``list-seed`` rung instead of searching at all — the anytime
        contract: a run over budget still publishes a legal schedule for
        every block.
        """
        if self.run_omega_cap is not None and self._omega_spent >= self.run_omega_cap:
            return "omega"
        remaining = self.remaining_run_seconds()
        if remaining is not None and remaining <= 0:
            return "wall-clock"
        return None

    # -- block-level clamps --------------------------------------------
    def options_for_block(self, options: SearchOptions) -> SearchOptions:
        """Clamp ``options`` to this manager's block budgets.

        The curtail point, wall-clock limit and memo cap each become the
        minimum of the caller's value and the budget's; the remaining
        run-level wall clock also bounds the block deadline, so the last
        block before a run deadline cannot overshoot it by a whole block
        budget.
        """
        curtail = options.curtail
        if self.block.omega_cap is not None:
            curtail = min(curtail, self.block.omega_cap)
        limits = [
            t
            for t in (
                options.time_limit,
                self.block.wall_clock,
                self.remaining_run_seconds(),
            )
            if t is not None
        ]
        # A run deadline already blown is handled by run_exhausted();
        # clamp to a tiny positive limit rather than an invalid one.
        time_limit = max(min(limits), 1e-9) if limits else None
        max_memo = options.max_memo_entries
        if self.block.memo_cap is not None:
            max_memo = min(max_memo, self.block.memo_cap)
        if (
            curtail == options.curtail
            and time_limit == options.time_limit
            and max_memo == options.max_memo_entries
        ):
            return options
        return options._replace(
            curtail=curtail,
            time_limit=time_limit,
            max_memo_entries=max_memo,
        )

    # -- pickling (run-level state is process-local) -------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # Ω accounting never crosses the pickle boundary: the merging
        # process owns it.  The armed deadline *does* cross (monotonic is
        # system-wide), so forked workers respect the run deadline.
        state["_omega_spent"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BudgetManager(block={self.block}, "
            f"run_wall_clock={self.run_wall_clock}, "
            f"run_omega_cap={self.run_omega_cap}, "
            f"split_fallback={self.split_fallback})"
        )
