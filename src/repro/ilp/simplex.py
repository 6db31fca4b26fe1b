"""Bounded-variable two-phase primal simplex — dependency-free.

The ILP optimality backend (:mod:`repro.ilp`) needs an LP solver and the
repository bakes in no solver dependency, so this module implements the
textbook algorithm from scratch: a dense-tableau primal simplex over
variables with general box bounds ``l <= x <= u`` (upper bounds handled
by status flags and bound flips, *not* by doubling the variable count —
the time-indexed scheduling encodings are all 0/1 variables, so
doubling would be ruinous), with a phase-1 artificial-variable start for
rows the slack basis cannot satisfy.

Design notes
------------
* **Dense tableau.**  The scheduling LPs top out around a thousand
  columns and a couple hundred rows; a dense ``B^-1 A`` tableau with
  rank-1 pivot updates is simpler and, at this size, faster than any
  sparse cleverness.  When NumPy is importable the tableau rows and the
  reduced-cost row are ``float64`` arrays and a pivot is two vectorized
  updates; without it the same algorithm runs on plain lists (the
  solver must *work* everywhere — the bare CI ``optimality`` job runs
  it — it just solves small instances more slowly).
* **Anti-cycling.**  Dantzig's rule (most negative reduced cost) until
  the objective stalls for ``_STALL_LIMIT`` consecutive pivots, then
  Bland's rule (lowest eligible index) permanently; with bounds this is
  the standard finite-termination guarantee.
* **Determinism.**  Entering/leaving ties break on the lowest index and
  no randomization is used anywhere, so a given program always returns
  the same solution — the property the differential oracle and the
  resumable verify runs rely on.

The solver reports one of four statuses: ``optimal``, ``infeasible``,
``unbounded`` (cannot happen for the scheduling encodings, where every
structural variable is boxed — defensive only) and ``pivot-limit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

try:  # NumPy accelerates pivots but is never required.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the bare CI optimality job
    _np = None

INF = math.inf

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
PIVOT_LIMIT = "pivot-limit"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

#: Pivots without objective progress before switching to Bland's rule.
_STALL_LIMIT = 200

#: Feasibility / reduced-cost tolerance.  The scheduling encodings are
#: all small integers, so drift stays far below this.
TOL = 1e-7


@dataclass
class LinearProgram:
    """``min c.x`` subject to linear rows and box bounds ``l <= x <= u``.

    Rows are ``(coefficients keyed by column, sense, rhs)`` with sense
    one of ``"<="``, ``">="``, ``"=="``.  Every variable must have a
    finite lower bound (the encodings only ever need ``0`` or small
    non-negative floors).
    """

    objective: List[float] = field(default_factory=list)
    lower: List[float] = field(default_factory=list)
    upper: List[float] = field(default_factory=list)
    rows: List[Tuple[Dict[int, float], str, float]] = field(default_factory=list)

    @property
    def n_cols(self) -> int:
        return len(self.objective)

    def add_variable(
        self, lower: float = 0.0, upper: float = INF, objective: float = 0.0
    ) -> int:
        if not math.isfinite(lower):
            raise ValueError("every variable needs a finite lower bound")
        if upper < lower:
            raise ValueError(f"empty bound interval [{lower}, {upper}]")
        self.objective.append(float(objective))
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        return len(self.objective) - 1

    def add_row(self, coeffs: Dict[int, float], sense: str, rhs: float) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown row sense {sense!r}")
        for j in coeffs:
            if not 0 <= j < self.n_cols:
                raise ValueError(f"row references unknown column {j}")
        self.rows.append(
            ({j: float(c) for j, c in coeffs.items() if c}, sense, float(rhs))
        )


@dataclass(frozen=True)
class LpSolution:
    """Outcome of one :func:`solve` call."""

    status: str
    objective: float
    x: Tuple[float, ...]
    pivots: int

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def solve(
    program: LinearProgram,
    lower: Optional[Sequence[float]] = None,
    upper: Optional[Sequence[float]] = None,
    pivot_limit: int = 50_000,
) -> LpSolution:
    """Minimize ``program`` (optionally overriding the variable bounds).

    ``lower``/``upper`` — per-structural-column bound overrides — exist
    for branch and bound: a node fixes a handful of binaries by
    tightening bounds without mutating (or copying) the shared program.
    """
    tab = _Tableau(program, lower, upper, pivot_limit)
    return tab.run()


class _Tableau:
    """One solve: builds the start basis, runs phase 1 then phase 2."""

    def __init__(
        self,
        program: LinearProgram,
        lower: Optional[Sequence[float]],
        upper: Optional[Sequence[float]],
        pivot_limit: int,
    ) -> None:
        self.program = program
        self.pivot_limit = pivot_limit
        self.pivots = 0
        n = program.n_cols
        self.nstruct = n
        self.lo: List[float] = list(program.lower if lower is None else lower)
        self.up: List[float] = list(program.upper if upper is None else upper)
        if len(self.lo) != n or len(self.up) != n:
            raise ValueError("bound override length must match the program")
        self.infeasible_bounds = any(
            self.lo[j] > self.up[j] + TOL for j in range(n)
        )

    # ------------------------------------------------------------------
    # Setup: slack/artificial columns, identity start basis.
    # ------------------------------------------------------------------
    def _build(self) -> None:
        prog = self.program
        n = self.nstruct
        lo, up = self.lo, self.up
        # Nonbasic structural variables start at their (finite) lower
        # bound; row residuals decide which rows get an artificial.
        start = list(lo)
        plans = []  # (dense coeffs, basic_col_kind, scale, basic_value)
        n_slack = 0
        n_art = 0
        for coeffs, sense, rhs in prog.rows:
            act = sum(c * start[j] for j, c in coeffs.items())
            resid = rhs - act
            if sense == "<=":
                slack_id = n_slack
                n_slack += 1
                if resid >= 0:
                    plans.append((coeffs, sense, ("slack", slack_id), 1.0, resid))
                else:
                    plans.append(
                        (coeffs, sense, ("art", n_art, slack_id), -1.0, -resid)
                    )
                    n_art += 1
            elif sense == ">=":
                slack_id = n_slack
                n_slack += 1
                if resid <= 0:
                    # surplus = act - rhs >= 0 is basic; scale the row by
                    # -1 so its own coefficient comes out +1.
                    plans.append((coeffs, sense, ("slack", slack_id), -1.0, -resid))
                else:
                    plans.append(
                        (coeffs, sense, ("art", n_art, slack_id), 1.0, resid)
                    )
                    n_art += 1
            else:  # "=="
                scale = 1.0 if resid >= 0 else -1.0
                plans.append((coeffs, sense, ("art", n_art, None), scale, abs(resid)))
                n_art += 1

        m = len(plans)
        N = n + n_slack + n_art
        self.m, self.N = m, N
        self.lo = lo + [0.0] * (n_slack + n_art)
        self.up = up + [INF] * (n_slack + n_art)
        self.is_art = [False] * N
        self.cost = list(prog.objective) + [0.0] * (n_slack + n_art)
        self.status = [_AT_LOWER] * N
        self.basis: List[int] = [0] * m
        self.xB: List[float] = [0.0] * m

        rows: List[List[float]] = []
        for i, (coeffs, sense, basic, scale, bval) in enumerate(plans):
            row = [0.0] * N
            for j, c in coeffs.items():
                row[j] = c * scale
            slack_sign = {"<=": 1.0, ">=": -1.0, "==": 0.0}[sense]
            if basic[0] == "slack":
                scol = n + basic[1]
                row[scol] = slack_sign * scale
                bcol = scol
            else:
                acol = n + n_slack + basic[1]
                row[acol] = 1.0
                self.is_art[acol] = True
                if basic[2] is not None:  # nonbasic slack still in the row
                    row[n + basic[2]] = slack_sign * scale
                bcol = acol
            rows.append(row)
            self.basis[i] = bcol
            self.status[bcol] = _BASIC
            self.xB[i] = bval
        self.n_art = n_art

        if _np is not None:
            self.T = _np.array(rows, dtype=_np.float64) if m else _np.zeros((0, N))
            # NumPy mirrors of the per-column state: the entering-variable
            # scan is the only O(N)-per-pivot loop, and vectorizing it
            # needs these as arrays (all updates are scalar writes, which
            # work identically on arrays and lists).
            self.lo = _np.array(self.lo, dtype=_np.float64)
            self.up = _np.array(self.up, dtype=_np.float64)
            self.status = _np.array(self.status, dtype=_np.int8)
        else:
            self.T = rows

    # ------------------------------------------------------------------
    # The shared pivot loop (one phase).
    # ------------------------------------------------------------------
    def _reduced_costs(self, cost: List[float]):
        """``d = c - c_B . B^-1 A`` and the objective for the basis."""
        if _np is not None:
            d = _np.array(cost, dtype=_np.float64)
            for i, b in enumerate(self.basis):
                cb = cost[b]
                if cb:
                    d -= cb * self.T[i]
        else:
            d = list(cost)
            for i, b in enumerate(self.basis):
                cb = cost[b]
                if cb:
                    row = self.T[i]
                    for j in range(self.N):
                        d[j] -= cb * row[j]
        obj = sum(cost[self.basis[i]] * self.xB[i] for i in range(self.m))
        for j in range(self.N):
            if self.status[j] == _AT_LOWER:
                if cost[j] and self.lo[j]:
                    obj += cost[j] * self.lo[j]
            elif self.status[j] == _AT_UPPER:
                if cost[j]:
                    obj += cost[j] * self.up[j]
        return d, obj

    def _entering(self, d, bland: bool) -> Tuple[int, int]:
        """Eligible nonbasic column and its direction (+1 up, -1 down)."""
        lo, up, status = self.lo, self.up, self.status
        if _np is not None:
            free = (up - lo) > TOL
            viol = _np.where(
                (status == _AT_LOWER) & free,
                -d,
                _np.where((status == _AT_UPPER) & free, d, -INF),
            )
            if bland:
                idx = _np.nonzero(viol > TOL)[0]
                if idx.size == 0:
                    return -1, 0
                j = int(idx[0])
            else:
                j = int(_np.argmax(viol))
                if viol[j] <= TOL:
                    return -1, 0
            return j, (1 if status[j] == _AT_LOWER else -1)
        best_j, best_viol, best_s = -1, TOL, 0
        for j in range(self.N):
            st = status[j]
            if st == _BASIC or up[j] - lo[j] <= TOL:
                continue  # fixed columns (incl. retired artificials)
            dj = d[j]
            if st == _AT_LOWER and dj < -TOL:
                viol, s = -dj, 1
            elif st == _AT_UPPER and dj > TOL:
                viol, s = dj, -1
            else:
                continue
            if bland:
                return j, s
            if viol > best_viol:
                best_j, best_viol, best_s = j, viol, s
        return best_j, best_s

    def _iterate(self, cost: List[float]) -> str:
        d, obj = self._reduced_costs(cost)
        self.obj = obj
        stall = 0
        bland = False
        lo, up = self.lo, self.up
        while True:
            if self.pivots >= self.pivot_limit:
                return PIVOT_LIMIT
            enter, s = self._entering(d, bland)
            if enter < 0:
                return OPTIMAL
            if _np is not None:
                col = self.T[:, enter]
            else:
                col = [self.T[i][enter] for i in range(self.m)]
            # Ratio test: the entering variable's own bound span versus
            # each basic variable hitting one of its bounds.
            limit = up[enter] - lo[enter]
            leave, leave_to = -1, _AT_LOWER
            for i in range(self.m):
                a = col[i] * s
                b = self.basis[i]
                if a > TOL:
                    ratio = max(self.xB[i] - lo[b], 0.0) / a
                    if ratio < limit - 1e-12:
                        limit, leave, leave_to = ratio, i, _AT_LOWER
                elif a < -TOL and up[b] < INF:
                    ratio = max(up[b] - self.xB[i], 0.0) / (-a)
                    if ratio < limit - 1e-12:
                        limit, leave, leave_to = ratio, i, _AT_UPPER
            if limit == INF:
                return UNBOUNDED
            delta = max(limit, 0.0)
            if delta:
                if _np is not None:
                    self.xB = (
                        _np.asarray(self.xB) - s * delta * col
                    ).tolist()
                else:
                    for i in range(self.m):
                        self.xB[i] -= s * delta * col[i]
                self.obj += d[enter] * s * delta
            if leave < 0:
                # Bound flip: no basis change.
                self.status[enter] = (
                    _AT_UPPER if self.status[enter] == _AT_LOWER else _AT_LOWER
                )
            else:
                leaving = self.basis[leave]
                entering_val = (
                    lo[enter] if self.status[enter] == _AT_LOWER else up[enter]
                ) + s * delta
                self._pivot(leave, enter, d)
                self.xB[leave] = entering_val
                self.basis[leave] = enter
                self.status[enter] = _BASIC
                self.status[leaving] = leave_to
                if self.is_art[leaving]:
                    # An artificial that left the basis never returns.
                    self.up[leaving] = 0.0
            self.pivots += 1
            if self.obj < self.last_obj - 1e-9:
                self.last_obj = self.obj
                stall = 0
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True

    def _pivot(self, r: int, c: int, d) -> None:
        """Row-reduce column ``c`` to the ``r``-th unit vector."""
        if _np is not None:
            T = self.T
            T[r] = T[r] / T[r][c]
            colvals = T[:, c].copy()
            colvals[r] = 0.0
            T -= _np.outer(colvals, T[r])
            dc = d[c]
            if dc:
                d -= dc * T[r]
        else:
            T = self.T
            piv = T[r][c]
            rowr = [v / piv for v in T[r]]
            T[r] = rowr
            for i in range(self.m):
                if i == r:
                    continue
                f = T[i][c]
                if f:
                    rowi = T[i]
                    T[i] = [x - f * y for x, y in zip(rowi, rowr)]
            dc = d[c]
            if dc:
                for j in range(self.N):
                    d[j] -= dc * rowr[j]

    # ------------------------------------------------------------------
    # Two phases + extraction.
    # ------------------------------------------------------------------
    def run(self) -> LpSolution:
        if self.infeasible_bounds:
            return LpSolution(INFEASIBLE, INF, (), 0)
        self._build()
        self.last_obj = INF
        if self.n_art:
            phase1 = [1.0 if a else 0.0 for a in self.is_art]
            status = self._iterate(phase1)
            if status != OPTIMAL:
                return LpSolution(status, INF, (), self.pivots)
            if self.obj > 1e-6:
                return LpSolution(INFEASIBLE, INF, (), self.pivots)
            self._retire_artificials()
        self.last_obj = INF
        status = self._iterate(self.cost)
        x = self._extract()
        obj = sum(self.cost[j] * x[j] for j in range(self.nstruct))
        return LpSolution(status, obj, tuple(x[: self.nstruct]), self.pivots)

    def _retire_artificials(self) -> None:
        """After phase 1: lock artificials at zero, pivot basic ones out."""
        d_dummy = (
            _np.zeros(self.N) if _np is not None else [0.0] * self.N
        )
        for i in range(self.m):
            b = self.basis[i]
            if not self.is_art[b]:
                continue
            # A basic artificial at value 0; swap in any usable column.
            row = self.T[i]
            swap = -1
            for j in range(self.N):
                if self.is_art[j] or self.status[j] == _BASIC:
                    continue
                if abs(row[j]) > TOL:
                    swap = j
                    break
            if swap >= 0:
                old_status = self.status[swap]
                self._pivot(i, swap, d_dummy)
                self.basis[i] = swap
                self.status[swap] = _BASIC
                self.status[b] = _AT_LOWER
                self.xB[i] = (
                    self.lo[swap] if old_status == _AT_LOWER else self.up[swap]
                )
            # else: the row is redundant; the artificial stays basic at 0
            # and no pivot can move it (its row is zero elsewhere).
        for j in range(self.N):
            if self.is_art[j]:
                self.up[j] = 0.0

    def _extract(self) -> List[float]:
        x = [0.0] * self.N
        for j in range(self.N):
            x[j] = self.lo[j] if self.status[j] == _AT_LOWER else (
                self.up[j] if self.status[j] == _AT_UPPER else 0.0
            )
        for i in range(self.m):
            x[self.basis[i]] = self.xB[i]
        return x
