"""Dependency-free ILP backend for NOP-minimization.

An independent optimality witness for the branch-and-bound search: the
same problem the search explores order-by-order is lowered to a
time-indexed 0/1 program (:mod:`repro.ilp.encoder`), solved by a
bounded-variable simplex (:mod:`repro.ilp.simplex`) inside LP-based
branch and bound (:mod:`repro.ilp.bnb`), and decoded back into a
certified ``SearchResult`` (:mod:`repro.ilp.backend`).  Entry point:
``schedule_block(..., backend="ilp")``.

Pure Python throughout; NumPy, when present, only accelerates the
simplex pivots and changes no results.
"""

from .. import _lazy_namespace

__all__, __getattr__, __dir__ = _lazy_namespace(globals(), {
    ".simplex": ("INFEASIBLE", "OPTIMAL", "LinearProgram", "LpSolution", "solve"),
    ".bnb": ("BnbOutcome", "IlpOptions", "branch_and_bound"),
    ".backend": ("IlpSearchResult", "run_ilp_search"),
    ".encoder": ("ModelTables", "TimeIndexedModel"),
})
