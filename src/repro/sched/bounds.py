"""Admissible lower bounds of the block search.

Every engine prunes with the same bounds on the NOPs a completion must
still add: :func:`deadline_lateness` at each search node (the
release-deadline bound — one release and one deadline per unscheduled
instruction, then unit-task EDF over the issue slots and preemptive EDF
per pipeline) and :func:`root_bound` before any search, which adds
:func:`position_lateness` (each pipeline's users placed by issue
position).  All of them work on the packed arrays of
:class:`repro.sched.core._Flat`; the reference engine in
:mod:`repro.sched.reference` rebuilds the node bound from the two EDF
sweeps, and the C kernel ports the node bound.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from .core import _Flat

__all__ = [
    "deadline_lateness",
    "downstream_chains",
    "pipe_edf_lateness",
    "position_lateness",
    "root_bound",
    "unit_edf_lateness",
]

#: "No lateness yet" / "never stop early" sentinels of the deadline bound.
_NO_LATENESS = -(1 << 62)
_NO_LIMIT = 1 << 62


def unit_edf_lateness(tasks: List[Tuple[int, int]]) -> int:
    """Smallest uniform deadline shift that makes ``(release, deadline)``
    unit tasks feasible on one issue slot per cycle.

    Earliest-deadline-first over integer releases minimizes the maximum
    lateness of unit tasks, so the EDF sweep's largest ``issue -
    deadline`` is that shift.  Sorts ``tasks`` in place.
    """
    tasks.sort()
    heap: List[int] = []
    worst = _NO_LATENESS
    t = tasks[0][0]
    for r, d in tasks:
        # Fill the slots before this release with the tasks already out.
        while heap and t < r:
            late = t - heappop(heap)
            if late > worst:
                worst = late
            t += 1
        if t < r:
            t = r
        heappush(heap, d)
    heap.sort()
    for d in heap:
        if t - d > worst:
            worst = t - d
        t += 1
    return worst


def pipe_edf_lateness(tasks: List[Tuple[int, int]], enqueue: int) -> int:
    """Maximum lateness of one pipeline's users as preemptive tasks.

    Each ``(release, deadline)`` user holds the pipeline's enqueue slot
    for ``enqueue`` cycles and must finish by ``deadline + enqueue``;
    preemptive EDF minimizes the maximum lateness of such tasks.  Sorts
    ``tasks`` in place.
    """
    tasks.sort()
    heap: List[List[int]] = []  # [due, work left]
    worst = _NO_LATENESS
    m = len(tasks)
    i = 0
    t = tasks[0][0]
    while i < m or heap:
        if not heap and tasks[i][0] > t:
            t = tasks[i][0]
        while i < m and tasks[i][0] <= t:
            heappush(heap, [tasks[i][1] + enqueue, enqueue])
            i += 1
        top = heap[0]
        if i < m and t + top[1] > tasks[i][0]:
            # Preempted by the next release; shrinking the top's work
            # keeps the heap ordered.
            top[1] -= tasks[i][0] - t
            t = tasks[i][0]
            continue
        heappop(heap)
        t += top[1]
        if t - top[0] > worst:
            worst = t - top[0]
    return worst


def deadline_lateness(
    flat: _Flat,
    chain: List[int],
    pending: int,
    tl: int,
    remaining: int,
    issue: List[int],
    pipe_last: List[Optional[int]],
    limit: int = _NO_LIMIT,
) -> int:
    """The release-deadline lower bound on the NOPs a completion adds.

    ``pending`` is the mask of the ``remaining`` unscheduled instructions
    after a prefix whose last issue is at ``tl`` (``-1`` at the root);
    ``issue`` holds the prefix's issue times and ``pipe_last`` its
    per-pipeline last issues.  With no NOPs left to spend, the last
    instruction issues at ``tl + remaining``, so each unscheduled ``k``
    has deadline ``tl + remaining - chain[k]``; its release is the
    earliest issue its predecessors (scheduled, or at their own
    release), its pipeline and its carry-in bound allow.  The result is
    the largest of three relaxed latenesses: any single release past its
    deadline, the unit-task EDF sweep over the issue slots, and a
    preemptive EDF sweep per pipeline with enqueue time above one.  Each
    ignores precedence among the unscheduled and the register budget, so
    a completion adding fewer NOPs than the result does not exist.

    Stops early, returning a value above ``limit``, as soon as one check
    exceeds it.  Overwrites ``issue[k]`` of unscheduled ``k`` with its
    release (the search rewrites it on push before reading it).
    """
    lat = flat.lat
    enq = flat.enq
    sig = flat.sig
    preds = flat.preds
    var_bound = flat.var_bound
    has_vb = flat.has_vb
    pipe_enq = flat.pipe_enq
    base = tl + 1
    t_last = tl + remaining
    worst = _NO_LATENESS
    tasks: List[Tuple[int, int]] = []
    piped: Dict[int, List[Tuple[int, int]]] = {}
    rm = pending
    while rm:
        low = rm & -rm
        rm -= low
        k = low.bit_length() - 1
        r = base
        p = sig[k]
        if p >= 0:
            pl = pipe_last[p]
            if pl is not None:
                v = pl + enq[k]
                if v > r:
                    r = v
        if has_vb:
            v = var_bound[k]
            if v is not None and v > r:
                r = v
        for d in preds[k]:
            v = issue[d] + lat[d]
            if v > r:
                r = v
        issue[k] = r
        dl = t_last - chain[k]
        if r - dl > worst:
            worst = r - dl
            if worst > limit:
                return worst
        tasks.append((r, dl))
        if p >= 0 and pipe_enq[p] > 1:
            piped.setdefault(p, []).append((r, dl))
    late = unit_edf_lateness(tasks)
    if late > worst:
        worst = late
        if worst > limit:
            return worst
    # A lone user's pipeline lateness is its own release-deadline gap,
    # already counted above.
    for p, users in piped.items():
        if len(users) > 1:
            late = pipe_edf_lateness(users, pipe_enq[p])
            if late > worst:
                worst = late
                if worst > limit:
                    return worst
    return worst


def downstream_chains(flat: _Flat) -> List[int]:
    """Dense latency-weighted downstream chains: any consumer chain below
    ``k`` forces the last issue to trail ``k``'s issue by ``chain[k]``.

    Dense indices are program order and dependences point forward, so a
    reverse scan sees successors first.
    """
    lat = flat.lat
    succs = flat.succs
    chain = [0] * flat.n
    for k in range(flat.n - 1, -1, -1):
        sk = succs[k]
        if sk:
            lk = lat[k]
            chain[k] = max(lk + chain[s] for s in sk)
    return chain


def position_lateness(flat: _Flat, chain: List[int]) -> int:
    """Lateness of each pipeline's users by their issue position, at the
    empty prefix: a lower bound on the NOPs of any schedule of the block.

    Take a pipeline with enqueue time ``e`` and ``m`` users whose
    deadlines (``n - 1 - chain``, the latest issue that leaves room for
    the downstream chain with no NOPs) sort as ``d_1 <= ... <= d_m``.  In
    a schedule with ``N`` NOPs the last issue is at ``n - 1 + N``, so
    every deadline moves up by ``N``.

    *Latest issue of the j-th user to issue.*  The users with the ``i``
    smallest deadlines (``i >= j``) cannot all take the first ``i - 1``
    issue positions, so one of them issues at position ``>= i``, at least
    ``e * (i - j)`` cycles after the j-th user, and by its deadline
    ``<= d_i + N``.  Hence the j-th user issues by
    ``D_j + N`` with ``D_j = min over i >= j of d_i - e * (i - j)``.

    *Earliest issue of the j-th user.*  Call a user's *own* ancestors
    those of its ancestors that are not users of the pipeline and are
    ancestors of no other user of it; own sets are disjoint.  Before the
    j-th user issue the ``j - 1`` users ahead of it and the own
    ancestors of all ``j``: ``s_j`` instructions at least, the sum of
    the ``j`` smallest own counts plus ``j - 1``.  Issue times are
    distinct, so the last of them issues at ``base + s_j - 1`` or later.
    That last one is an earlier user, at least ``e`` cycles back, or an
    own ancestor of the j-th user with no counted instruction after it:
    every path from it to the user would pass a later counted
    instruction (an own ancestor or an earlier user) or a shared
    ancestor (making it shared too) — so it is a direct predecessor, at
    least its latency back.  The j-th user therefore issues at
    ``L_j = base + s_j - 1 + max(1, min(e, smallest latency into a
    user))`` or later (``base`` itself when ``s_j = 0``).

    So ``N >= L_j - D_j`` for every ``j``, and the largest of these over
    all pipelines and positions is admissible.  Carry-in conditions only
    delay issues, and a register budget or pinned assignment only
    removes schedules, so it stays admissible under each.  It counts
    ancestors, which the release-deadline sweeps (one release per
    instruction) do not, so it is tested once, at the root.
    """
    n = flat.n
    lat = flat.lat
    sig = flat.sig
    preds = flat.preds
    pred_mask = flat.pred_mask
    ancestors = [0] * n
    by_pipe: List[List[int]] = [[] for _ in range(flat.P)]
    for k in range(n):
        above = pred_mask[k]
        for d in preds[k]:
            above |= ancestors[d]
        ancestors[k] = above
        if sig[k] >= 0:
            by_pipe[sig[k]].append(k)
    worst = _NO_LATENESS
    t_last = n - 1
    for p, users in enumerate(by_pipe):
        if not users:
            continue
        e = flat.pipe_enq[p]
        user_mask = seen = shared = 0
        for u in users:
            user_mask |= 1 << u
        into = e
        for u in users:
            above = ancestors[u] & ~user_mask
            shared |= seen & above
            seen |= above
            for d in preds[u]:
                if lat[d] < into:
                    into = lat[d]
        private = ~user_mask & ~shared
        own = sorted((ancestors[u] & private).bit_count() for u in users)
        step = into if into > 1 else 1
        # latest[j] = D_j, from the back: D_m = d_m, D_j = min(d_j, D_j+1 - e).
        latest = sorted(t_last - chain[u] for u in users)
        for j in range(len(users) - 2, -1, -1):
            if latest[j + 1] - e < latest[j]:
                latest[j] = latest[j + 1] - e
        before = -1  # s_j: instructions that must issue before the j-th user
        for j, count in enumerate(own):
            before += count + 1
            late = (before - 1 + step if before else 0) - latest[j]
            if late > worst:
                worst = late
    return worst


def root_bound(flat: _Flat, chain: List[int], limit: int = _NO_LIMIT) -> int:
    """Admissible lower bound on the NOPs of any schedule of the block:
    the larger of :func:`deadline_lateness` at the empty prefix and
    :func:`position_lateness`, clamped at zero.

    Stops early with a value above ``limit`` once the bound is sure to
    exceed it (a negative ``limit`` needs no work).
    """
    n = flat.n
    if n == 0 or limit < 0:
        return 0
    late = deadline_lateness(
        flat, chain, (1 << n) - 1, -1, n, [0] * n, flat.pipe_last, limit
    )
    if late <= limit:
        late = max(late, position_lateness(flat, chain))
    return max(0, late)
