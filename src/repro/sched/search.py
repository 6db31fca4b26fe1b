"""The optimal pipeline scheduler — section 4.2.3's pruned search.

A branch-and-bound search over dependence-legal schedules, seeded with the
list schedule and pruned by optimality-preserving criteria.  The paper's
own prunes:

* **Legality** (steps [5a]/[5b]): only instructions whose whole ``rho``
  set is already in the partial schedule Φ are candidates.  We maintain
  an exact ready set, which realizes both the quick approximate check on
  ``earliest``/``latest`` and the real test ``rho(xi) ⊆ Φ`` at once.
* **Equivalence** (step [5c]): the paper skips a swap when both
  instructions use no pipeline and have no predecessors.  Applied
  naively per candidate set that is *unsound* — two such instructions
  with different consumers are not interchangeable (scheduling Const A
  here may admit a zero-NOP completion that Const B does not).  We
  implement the sound refinement: candidates with no pipeline, no
  predecessors, no carry-in release and *identical successor sets* are
  provably interchangeable, and only the first is tried (DESIGN.md §4).
* **Alpha-beta / branch-and-bound** (step [6]): a partial schedule is
  extended only while ``mu(Φ) < mu(pi)`` — NOPs never decrease as a
  schedule grows.  Strict inequality prunes equal-cost subtrees without
  sacrificing optimality (completing them could only tie).
* **Curtail point λ** (steps [2]/[4]): the search stops after λ Ω calls;
  the best schedule found so far is returned and flagged as possibly
  suboptimal (condition [2] of section 2.3).

Plus three further optimality-preserving prunes in the same spirit
("the search space is pruned dramatically, but the optimal solution will
never be pruned"), each individually toggleable for the ablation
experiments:

* **Heuristic incumbents**: besides pricing the list-schedule seed, the
  pipeline-aware Gross/greedy baselines are priced and the cheapest
  becomes the starting incumbent — a tighter α-β bound from the start.
* **Admissible lower bounds**: a node is abandoned when
  ``mu(Φ) + LB ≥ mu(pi)`` for a bound LB on the NOPs any completion
  must still add.  Two cheap gaps run first: the latency-weighted
  critical path of the unscheduled region (each ready candidate's
  earliest issue plus its downstream chain, against the remaining issue
  slots), and per-pipeline enqueue capacity (k pending users of a
  pipeline cannot issue closer than its enqueue time).  Where neither
  prunes, the *release-deadline* bound runs.  With no NOPs to spare,
  the last instruction issues at ``tl + remaining``, where ``tl`` is
  the prefix's last issue.  Every unscheduled instruction, in program
  (topological) order, gets a release: the latest of ``tl + 1``, each
  predecessor's issue or release plus its latency, its pipeline's last
  enqueue plus the enqueue time (carry-in included) and its carry-in
  variable bound.  Its deadline is ``tl + remaining`` less its
  downstream chain.  LB is the largest lateness of three relaxations:
  a single release past its deadline; the instructions as unit tasks on
  one issue slot per cycle, swept earliest-deadline-first; and, per
  pipeline with enqueue time ``e > 1``, its users as tasks holding the
  enqueue slot for ``e`` cycles, swept by preemptive EDF.  EDF
  minimizes maximum lateness in both sweeps, so each lateness is the
  fewest extra NOPs its relaxation needs.  All three ignore precedence
  among the unscheduled and the register budget, so LB stays admissible
  under carry-in conditions, ``max_live`` and pinned assignments.
  Evaluated at the root (:func:`root_lower_bound`), the same bound, plus
  a term that places each pipeline's users by issue position (how many
  ancestors each must follow, how soon the later ones are due), sometimes
  proves the incumbent optimal before any search ("instant proof");
  otherwise the search ends at the first improvement that meets it.
* **Dominance memoization**: two partial schedules with the same
  scheduled *set* and the same timing interface — relative pipeline
  busy times plus the clamped ready-time contributions of recently
  issued producers that still have unscheduled consumers — admit exactly
  the same completions at the same future cost; a node whose prefix NOP
  count is no better than a previously expanded twin is pruned.

Ω-call accounting
-----------------
``omega_calls`` counts every NOP-insertion evaluation over a schedule or
schedule extension: ``n`` per incumbent-seeding schedule priced (step
[1]) plus one per candidate extension examined (step [4] increments Λ
once per considered swap).  This matches the magnitudes of the paper's
Table 1 "Proposed Pruning Calls" column.

Candidate ordering tries cheapest extensions first (fewest immediate
NOPs, then seed-schedule position), so the search deepens along good
schedules early — this is what makes the alpha-beta bound effective.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from ..ir.block import BasicBlock
from ..ir.dag import DependenceDAG
from ..machine.machine import MachineDescription
from ..record import Record, setslot
from .list_scheduler import list_schedule, program_order
from .nop_insertion import (
    InitialConditions,
    PipelineAssignment,
    ScheduleTiming,
    SigmaResolver,
)

if TYPE_CHECKING:
    from ..telemetry import Telemetry

#: Default curtail point; the paper found λ on the order of 1,000
#: sufficient for the vast majority of blocks and used values "always
#: large relative to the number of items searched for an optimal search
#: of an average block".
DEFAULT_CURTAIL = 50_000

#: The search engines, bit-for-bit identical in every ``SearchResult``
#: field except ``elapsed_seconds``: ``"fast"`` (the flattened array
#: engine in ``repro.sched.core`` — bitmask ready sets, explicit stack,
#: in-place do/undo), ``"native"`` (the same DFS compiled to C in
#: ``repro.native`` and bound through ctypes; degrades to ``"fast"``
#: with a one-line notice when no C compiler is available) and
#: ``"reference"`` (the readable recursion in ``repro.sched.reference``,
#: kept for ablation and differential testing).
ENGINES = ("fast", "native", "reference")


def check_engine(engine: str) -> str:
    """Validate an engine name and return it unchanged.

    Besides :data:`ENGINES` this accepts the removed ``"vector"`` name,
    which :func:`repro.sched.core.resolve_engine` runs as ``"fast"``.
    """
    if engine not in ENGINES and engine != "vector":
        raise ValueError(
            f"unknown search engine {engine!r} "
            f"(expected one of {', '.join(map(repr, ENGINES))})"
        )
    return engine


class SearchOptions(Record):
    """Tuning knobs of the branch-and-bound search.

    The boolean flags exist for the ablation experiments; disabling any
    of them never changes the optimum found (every prune is
    optimality-preserving), only the work done.  ``SearchOptions.paper()``
    is the paper-faithful configuration (α-β + equivalence only);
    the default enables everything.  ``cheapest_first`` orders candidates
    by immediate eta; ``time_limit`` is in seconds (``None``: unlimited);
    ``engine`` names the DFS implementation, one of :data:`ENGINES`.
    ``max_live`` is a register-pressure budget: section 3.1's spill code
    makes *program order* fit it, and the search treats a schedule whose
    linear-scan pressure exceeds it as illegal, so allocation never needs
    new spills.  ``None`` assumes "always enough registers", as the
    paper's simulations do.
    """

    __slots__ = ("curtail", "alpha_beta", "equivalence_prune", "lower_bound_prune",
                 "dominance_prune", "heuristic_seeds", "seed_with_list_schedule",
                 "cheapest_first", "max_memo_entries", "time_limit", "max_live", "engine")

    def __init__(self, curtail: int = DEFAULT_CURTAIL, alpha_beta: bool = True,
                 equivalence_prune: bool = True, lower_bound_prune: bool = True,
                 dominance_prune: bool = True, heuristic_seeds: bool = True,
                 seed_with_list_schedule: bool = True, cheapest_first: bool = True,
                 max_memo_entries: int = 1_000_000, time_limit: Optional[float] = None,
                 max_live: Optional[int] = None, engine: str = "fast"):
        if curtail < 1:
            raise ValueError("curtail point must be positive")
        if time_limit is not None and time_limit <= 0:
            raise ValueError("time limit must be positive")
        check_engine(engine)
        if max_memo_entries < 0:
            raise ValueError("max_memo_entries must be non-negative")
        if max_live is not None and max_live < 3:
            raise ValueError("max_live must be at least 3 (a binary operation keeps "
                             "three values live at once)")
        for name, value in zip(SearchOptions.__slots__, (
                curtail, alpha_beta, equivalence_prune, lower_bound_prune, dominance_prune,
                heuristic_seeds, seed_with_list_schedule, cheapest_first, max_memo_entries,
                time_limit, max_live, engine)):
            setslot(self, name, value)

    @classmethod
    def paper(cls, curtail: int = DEFAULT_CURTAIL) -> "SearchOptions":
        """The prune set exactly as published (sections 4.2.3 and 2.3),
        with 5c in its sound refinement."""
        return cls(
            curtail=curtail,
            alpha_beta=True,
            equivalence_prune=True,
            lower_bound_prune=False,
            dominance_prune=False,
            heuristic_seeds=False,
            cheapest_first=False,
        )


def unsupported_backend_option(backend: str, field_name: str) -> ValueError:
    """Structured error for a request field a backend cannot honor.

    Every unsupported backend/option combination raises through here so
    the message shape is uniform and the offending field is carried as
    machine-readable attributes (``error.backend`` / ``error.field``).
    """
    error = ValueError(
        f"the {backend!r} backend does not support {field_name!r}; "
        "use backend='search'"
    )
    error.backend = backend
    error.field = field_name
    return error


class SearchResult(Record):
    """Outcome of one optimal-scheduling run.

    ``completed`` is condition [1]: the search was exhausted and ``best``
    is optimal.  ``improvements`` counts incumbent replacements,
    ``proved_by_bound`` means the incumbent met the root lower bound,
    ``timed_out`` that the wall-clock deadline cut the search short.
    ``memo_evicted`` counts dominance-memo entries evicted (FIFO) under
    ``max_memo_entries``; ``prune_counts`` counts prunes by kind
    (``repro.prunes.PRUNE_KINDS``)."""

    __slots__ = ("best", "initial", "omega_calls", "completed", "elapsed_seconds",
                 "improvements", "proved_by_bound", "timed_out", "memo_evicted", "prune_counts")

    def __init__(self, best: ScheduleTiming, initial: ScheduleTiming, omega_calls: int,
                 completed: bool, elapsed_seconds: float, improvements: int,
                 proved_by_bound: bool = False, timed_out: bool = False, memo_evicted: int = 0,
                 prune_counts: Mapping[str, int] = None):
        for name, value in zip(SearchResult.__slots__, (
                best, initial, omega_calls, completed, elapsed_seconds, improvements,
                proved_by_bound, timed_out, memo_evicted,
                {} if prune_counts is None else prune_counts)):
            setslot(self, name, value)

    @property
    def optimal(self) -> bool:
        """Provably optimal (alias of ``completed``)."""
        return self.completed

    @property
    def initial_nops(self) -> int:
        return self.initial.total_nops

    @property
    def final_nops(self) -> int:
        return self.best.total_nops

    def __str__(self) -> str:
        status = "optimal" if self.completed else "truncated"
        return (
            f"SearchResult({status}, nops {self.initial_nops} -> "
            f"{self.final_nops}, {self.omega_calls} omega calls)"
        )


def root_lower_bound(
    dag: DependenceDAG,
    machine: MachineDescription,
    assignment: Optional[Mapping[int, Optional[int]]] = None,
    initial_conditions: Optional[InitialConditions] = None,
) -> int:
    """Admissible lower bound on any schedule's NOP count (the "root"
    bound every engine tests its first incumbent against).

    The release-deadline bound of the module docstring at the empty
    prefix: the fewest NOPs for which every instruction's earliest issue
    fits before its latest one, the unit-task EDF sweep over the issue
    slots succeeds, and each pipeline's users fit its enqueue windows —
    or, if larger, the users' lateness by issue position
    (:func:`repro.sched.bounds.position_lateness`).  Carry-in
    ``initial_conditions`` only delay releases.  Exposed so the
    verify oracle can record the bound that was active when a search was
    curtailed; it is :func:`repro.sched.bounds.root_bound`, the one
    implementation all three engines call.
    """
    from .bounds import downstream_chains, root_bound
    from .core import _Flat

    resolver = SigmaResolver(dag, machine, assignment)
    flat = _Flat(dag, machine, resolver, initial_conditions)
    return root_bound(flat, downstream_chains(flat))


class _Curtailed(Exception):
    """Internal unwind signal: the curtail point (or time limit) was hit."""


def schedule_block(
    dag: Union[DependenceDAG, BasicBlock],
    machine: MachineDescription,
    options: SearchOptions = SearchOptions(),
    assignment: Optional[PipelineAssignment] = None,
    seed: Optional[Sequence[int]] = None,
    initial_conditions: Optional[InitialConditions] = None,
    telemetry: Optional[Telemetry] = None,
    backend: str = "search",
    ilp_options=None,
) -> SearchResult:
    """Find a minimum-NOP schedule of ``dag`` for ``machine``.

    Parameters
    ----------
    dag:
        Dependence DAG of the block to schedule (a
        :class:`~repro.ir.block.BasicBlock` is lowered to one).
    machine:
        Target machine description; must be deterministic (every
        operation on at most one pipeline) unless ``assignment`` pins
        each tuple's pipeline (used by the multi-pipeline extension).
    options:
        Search configuration (curtail point, prune toggles, engine).
        ``options.engine`` is one of :data:`ENGINES`.  All engines
        return bit-for-bit identical results (everything except
        ``elapsed_seconds``); ``"native"`` degrades to ``"fast"`` when no
        C compiler is available, with a one-line stderr notice once per
        process.  See :mod:`repro.sched.core` and :mod:`repro.native`.
    assignment:
        Optional per-tuple pipeline assignment.
    seed:
        Initial schedule.  Defaults to the list schedule (or program
        order when ``options.seed_with_list_schedule`` is off).
    initial_conditions:
        Carry-in pipeline/memory state from preceding blocks (footnote 1,
        see ``repro.sched.interblock``).  Defaults to an idle machine.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` registry; the
        search's prune counters and wall time are folded into it.
    backend:
        ``"search"`` (this module's branch-and-bound over orders) or
        ``"ilp"`` (the time-indexed ILP witness in :mod:`repro.ilp`,
        which proves the incumbent optimal or beats it and returns an
        ``IlpSearchResult`` carrying its LP dual bound).  The ILP
        backend ignores ``options.engine`` and does not support
        ``max_live``, which raises the structured ``ValueError`` of
        :func:`unsupported_backend_option`.
    ilp_options:
        Optional :class:`repro.ilp.IlpOptions` budgets; only meaningful
        with ``backend="ilp"``.

    Returns
    -------
    SearchResult
        ``completed=True`` means the search exhausted the pruned space
        (or the incumbent met an admissible lower bound) and ``best`` is
        provably optimal; otherwise the curtail point or time limit
        truncated the search and ``best`` is the incumbent.
    """
    start = time.perf_counter()
    if isinstance(dag, BasicBlock):
        dag = DependenceDAG(dag)
    n = len(dag)
    if backend not in ("search", "ilp"):
        raise ValueError(
            f"unknown scheduling backend {backend!r} (expected 'search' or 'ilp')"
        )
    if backend == "ilp" and options.max_live is not None:
        raise unsupported_backend_option("ilp", "max_live")

    def _done(result: SearchResult) -> SearchResult:
        if telemetry is not None:
            telemetry.record_search(result)
        return result

    resolver = SigmaResolver(dag, machine, assignment)
    initial = (
        initial_conditions if initial_conditions is not None else InitialConditions()
    )

    budget = options.max_live

    def fits_budget(order) -> bool:
        if budget is None:
            return True
        from ..regalloc.liveness import max_live as pressure_of

        return pressure_of(dag.block, order) <= budget

    if seed is None:
        seed = (
            list_schedule(dag)
            if options.seed_with_list_schedule
            else program_order(dag)
        )
        if not fits_budget(seed):
            # Program order is the one schedule the spill pre-pass
            # guarantees to fit the register budget (section 3.1).
            seed = program_order(dag)
    seed = tuple(seed)
    if sorted(seed) != sorted(dag.idents):
        raise ValueError("seed must be a permutation of the block's tuples")
    if not fits_budget(seed):
        raise ValueError(
            f"seed schedule needs more than max_live={budget} registers; "
            "run the spill pre-pass (repro.regalloc.insert_spill_code) first"
        )

    if backend == "ilp":
        from ..ilp.backend import run_ilp_search

        return _done(
            run_ilp_search(
                dag, machine, resolver, options, ilp_options, initial,
                seed, assignment, start,
            )
        )

    # ------------------------------------------------------------------
    # Engine dispatch: from here on the flattened array engine and the
    # recursion in repro.sched.reference run the *same* search —
    # identical seed pricing, incumbents, candidate order, prune
    # decisions, Ω accounting and memo policy — so every field of the
    # result except elapsed_seconds is bit-for-bit equal.  Each engine's
    # module loads only when that engine runs; fast and native share
    # run_fast_search's preamble, and native passes in its C DFS
    # (resolve_engine turns an unavailable native into fast; the ILP
    # backend above never resolves one).
    # ------------------------------------------------------------------
    if options.engine != "reference":
        from .core import resolve_engine, run_fast_search

        engine_name = resolve_engine(options.engine, telemetry=telemetry)
        dfs = None
        if engine_name == "native":
            from ..native.bindings import native_dfs as dfs
        return _done(
            run_fast_search(
                dag, machine, resolver, options, initial, seed,
                fits_budget, start, dfs=dfs,
            )
        )

    from .reference import run_reference_search

    return _done(
        run_reference_search(
            dag, machine, resolver, options, initial, seed, fits_budget,
            start, assignment,
        )
    )
