"""ctypes bindings for the compiled search kernel.

The marshalling boundary is deliberately dumb: every table the C side
needs is a flat ``int64`` array (``array('q', ...)`` buffers passed as
``int64_t*``), variable-length rows (predecessors, successors, register
operands) travel in CSR form (an ``n+1`` offsets array plus one
concatenated list), ``Optional[int]`` values use ``INT64_MIN`` as the
``None`` sentinel, and results come back through caller-allocated
output arrays (best order/η/issue) plus one flat counters array.  No
structs, no callbacks, no ownership transfer — the C kernel never keeps
a pointer past the call.

Loading is per-process and thread-safe: the first call compiles (or
cache-hits) via :mod:`repro.native.build`, loads the shared object,
checks its reported ABI version, and memoizes either the library or the
failure reason.  A cached object that fails to load or reports a stale
ABI is treated as corruption and recompiled once (``force=True``)
before giving up.
"""

from __future__ import annotations

import ctypes
import sys
import threading
import time
from array import array
from typing import List, Optional, Sequence, Tuple

from ..prunes import prune_counts
from . import build
from .build import NativeBuildError

__all__ = [
    "load_kernel",
    "native_available",
    "unavailable_reason",
    "warn_native_fallback",
    "native_dfs",
]

#: C-side Optional[int] None sentinel (INT64_MIN).
NONE = -(1 << 63)

# stats[] indices of repro_dfs (keep in sync with kernel.c).
_ST_OMEGA = 0
_ST_IMPROVEMENTS = 1
_ST_COMPLETED = 2
_ST_TIMED_OUT = 3
_ST_MEMO_EVICTED = 4
_ST_IMPROVED = 5
_ST_LEGALITY = 6
_ST_BOUNDS = 7
_ST_EQUIVALENCE = 8
_ST_ALPHA_BETA = 9
_ST_CURTAIL = 10
_ST_TIMEOUT = 11
_ST_DOMINANCE = 12
_ST_LEN = 13

_I64P = ctypes.POINTER(ctypes.c_int64)

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_load_error: Optional[str] = None
_native_fallback_warned = False


def _reset() -> None:
    """Forget the memoized library/failure (test hook)."""
    global _lib, _load_error
    with _lock:
        _lib = None
        _load_error = None


def _set_prototypes(lib: ctypes.CDLL) -> None:
    lib.repro_abi.restype = ctypes.c_int64
    lib.repro_abi.argtypes = []
    lib.repro_dfs.restype = ctypes.c_int64
    lib.repro_dfs.argtypes = [_I64P] * 17 + [ctypes.c_double] + [_I64P] * 4


def load_kernel() -> ctypes.CDLL:
    """The compiled kernel, building/loading it on first use.

    Raises :class:`NativeBuildError` (with a stable reason, memoized for
    the life of the process) when no compiler exists, the compile fails,
    or the object cannot be loaded even after a forced recompile.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise NativeBuildError(_load_error)
    with _lock:
        if _lib is not None:
            return _lib
        if _load_error is not None:
            raise NativeBuildError(_load_error)
        try:
            path = build.build_kernel()
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                # Corrupted/truncated cache entry: recompile once.
                path = build.build_kernel(force=True)
                lib = ctypes.CDLL(path)
            lib.repro_abi.restype = ctypes.c_int64
            if int(lib.repro_abi()) != build.ABI_VERSION:
                path = build.build_kernel(force=True)
                lib = ctypes.CDLL(path)
                lib.repro_abi.restype = ctypes.c_int64
                if int(lib.repro_abi()) != build.ABI_VERSION:
                    raise NativeBuildError(
                        "compiled kernel reports a stale ABI version"
                    )
            _set_prototypes(lib)
            _lib = lib
        except NativeBuildError as exc:
            _load_error = str(exc)
            raise
        except OSError as exc:
            _load_error = f"compiled kernel failed to load: {exc}"
            raise NativeBuildError(_load_error) from exc
    return _lib


def native_available() -> bool:
    """Whether the compiled kernel can run in this process."""
    try:
        load_kernel()
    except NativeBuildError:
        return False
    return True


def unavailable_reason() -> str:
    """Why :func:`native_available` is ``False`` (for the fallback notice)."""
    if _load_error is not None:
        return _load_error
    return "native kernel unavailable"


def warn_native_fallback(reason: str) -> None:
    """Print the one-line native->fast fallback notice (once per process)."""
    global _native_fallback_warned
    if not _native_fallback_warned:
        _native_fallback_warned = True
        print(
            f"repro: engine 'native' unavailable ({reason}); "
            "falling back to 'fast' (results are bit-for-bit identical)",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------
# Marshalling helpers
# ---------------------------------------------------------------------


def _i64(seq: Sequence[int]) -> array:
    """An ``array('q')`` buffer (padded so empty tables stay addressable)."""
    a = array("q", seq)
    if not a:
        a.append(0)
    return a


def _ptr(a: array):
    return (ctypes.c_int64 * len(a)).from_buffer(a)


def _csr(rows: Sequence[Tuple[int, ...]]) -> Tuple[array, array]:
    off = array("q", [0])
    lst: List[int] = []
    total = 0
    for row in rows:
        total += len(row)
        off.append(total)
        lst.extend(row)
    return off, _i64(lst)


def _opt(values: Sequence[Optional[int]]) -> array:
    return _i64([NONE if v is None else v for v in values])


def _zeros(count: int) -> array:
    return array("q", bytes(8 * max(count, 1)))


# ---------------------------------------------------------------------
# The DFS (drop-in for repro.sched.dfs.run_fast_dfs)
# ---------------------------------------------------------------------


def native_dfs(
    flat,
    dag,
    options,
    seed: Tuple[int, ...],
    best,
    omega_calls: int,
    improvements: int,
    start: float,
    chain: List[int],
    users: List[int],
    max_latency: int,
    stop_at: int,
):
    """Run the C DFS; same signature and contract as ``run_fast_dfs``.

    Every ``FastOutcome`` field is bit-for-bit what the Python fast DFS
    would produce (the kernel mirrors it decision for decision); the
    wall-clock deadline is forwarded as remaining seconds so the C side
    measures against its own monotonic clock.
    """
    from ..sched.core import FastOutcome
    from ..sched.nop_insertion import ScheduleTiming

    lib = load_kernel()
    n = flat.n
    index_of = flat.index_of
    idents = flat.idents
    seed_at = [0] * n
    for pos, ident in enumerate(seed):
        seed_at[index_of[ident]] = pos

    budget = options.max_live
    if budget is None:
        cfg_budget = -1
        opnd_off = array("q", bytes(8 * (n + 1)))
        opnd_lst = _i64(())
        produces = _zeros(n)
    else:
        cfg_budget = budget
        block_by_ident = dag.block.by_ident
        operands = [
            tuple(index_of[r] for r in set(block_by_ident(i).value_refs))
            for i in idents
        ]
        opnd_off, opnd_lst = _csr(operands)
        produces = _i64(
            [1 if block_by_ident(i).op.produces_value else 0 for i in idents]
        )

    has_deadline = 0
    deadline_rel = -1.0
    if options.time_limit is not None:
        has_deadline = 1
        deadline_rel = (start + options.time_limit) - time.perf_counter()

    cfg = _i64(
        [
            n,
            flat.P,
            options.curtail,
            int(options.alpha_beta),
            int(options.equivalence_prune),
            int(options.lower_bound_prune),
            int(options.dominance_prune),
            int(options.cheapest_first),
            options.max_memo_entries,
            has_deadline,
            cfg_budget,
            max_latency,
            best.total_nops,
            omega_calls,
            improvements,
            stop_at,
        ]
    )
    pred_off, pred_lst = _csr(flat.preds)
    succ_off, succ_lst = _csr(flat.succs)
    out_order = _zeros(n)
    out_etas = _zeros(n)
    out_issue = _zeros(n)
    stats = _zeros(_ST_LEN)

    rc = lib.repro_dfs(
        _ptr(cfg),
        _ptr(_i64(flat.lat)),
        _ptr(_i64(flat.enq)),
        _ptr(_i64(flat.sig)),
        _ptr(pred_off),
        _ptr(pred_lst),
        _ptr(succ_off),
        _ptr(succ_lst),
        _ptr(_i64(flat.pipe_enq)),
        _ptr(_opt(flat.pipe_last)),
        _ptr(_opt(flat.var_bound)),
        _ptr(_i64(seed_at)),
        _ptr(_i64(chain)),
        _ptr(_i64(users)),
        _ptr(opnd_off),
        _ptr(opnd_lst),
        _ptr(produces),
        ctypes.c_double(deadline_rel),
        _ptr(out_order),
        _ptr(out_etas),
        _ptr(out_issue),
        _ptr(stats),
    )
    if rc != 0:
        raise MemoryError(f"native kernel failed with code {rc}")

    if stats[_ST_IMPROVED]:
        best_timing = ScheduleTiming(
            tuple(idents[q] for q in out_order[:n]),
            tuple(out_etas[:n]),
            tuple(out_issue[:n]),
        )
    else:
        best_timing = best
    return FastOutcome(
        best=best_timing,
        omega_calls=int(stats[_ST_OMEGA]),
        improvements=int(stats[_ST_IMPROVEMENTS]),
        completed=bool(stats[_ST_COMPLETED]),
        timed_out=bool(stats[_ST_TIMED_OUT]),
        memo_evicted=int(stats[_ST_MEMO_EVICTED]),
        prune_counts=prune_counts(
            legality=int(stats[_ST_LEGALITY]),
            bounds=int(stats[_ST_BOUNDS]),
            equivalence=int(stats[_ST_EQUIVALENCE]),
            alpha_beta=int(stats[_ST_ALPHA_BETA]),
            curtail=int(stats[_ST_CURTAIL]),
            timeout=int(stats[_ST_TIMEOUT]),
            dominance=int(stats[_ST_DOMINANCE]),
        ),
    )
