/* Native hot core of the branch-and-bound searches (engine="native").
 *
 * A C port of the two flattened search loops in repro/sched/core.py:
 *
 *   repro_dfs   <-> _run_fast_dfs    (the pruned DFS of schedule_block)
 *   repro_split <-> run_fast_split   (the windowed search of
 *                                     schedule_block_split)
 *
 * The contract is the repository-wide engine lattice: every decision --
 * candidate order, all five prunes, the dominance-memo FIFO policy, the
 * curtail/deadline checks, the Omega-call accounting -- is made in the
 * same order on the same integers as the Python fast engine, so every
 * output (schedule, counters, flags) is bit-for-bit identical.  Only
 * the representation differs:
 *
 *   - ready/scheduled sets are multiword uint64 bitsets instead of
 *     Python's arbitrary-precision ints (iterated lowest-bit-first,
 *     matching the scalar scan);
 *   - the dominance memo is a chained hash table plus an
 *     insertion-order list, replicating dict semantics exactly: lookup
 *     by full serialized key, overwrite-in-place keeps insertion
 *     position, FIFO eviction drops the oldest entry at capacity;
 *   - Optional[int] values (pipeline last-issue, variable-ready bounds)
 *     use INT64_MIN as the None sentinel.
 *
 * The file is self-contained C99 with no dependencies beyond libc; it
 * is compiled on first use by repro/native/build.py and bound through
 * ctypes by repro/native/bindings.py.  Bump NATIVE_ABI_VERSION whenever
 * an exported signature or cfg/stats layout changes -- the build cache
 * keys on it.
 */

/* clock_gettime/CLOCK_MONOTONIC need POSIX.1b under strict -std=c99. */
#if !defined(_WIN32)
#define _POSIX_C_SOURCE 199309L
#endif

#include <assert.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define NATIVE_ABI_VERSION 1

/* None sentinel for pipe_last / var_bound / saved values. */
#define NONE INT64_MIN

/* Return codes. */
#define OK 0
#define ERR_ALLOC (-1)

typedef int64_t i64;
typedef uint64_t u64;

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

/* ------------------------------------------------------------------ */
/* Wall clock (deadline checks): monotonic seconds.                    */
/* ------------------------------------------------------------------ */

static double now_sec(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* ------------------------------------------------------------------ */
/* Multiword bitsets (W = ceil(n/64) words, lowest-bit-first order).   */
/* ------------------------------------------------------------------ */

static inline int bs_test(const u64 *b, i64 k) {
    return (int)((b[k >> 6] >> (k & 63)) & 1u);
}

static inline void bs_set(u64 *b, i64 k) { b[k >> 6] |= (u64)1 << (k & 63); }

static inline void bs_clear(u64 *b, i64 k) {
    b[k >> 6] &= ~((u64)1 << (k & 63));
}

static inline i64 ctz64(u64 x) {
#if defined(__GNUC__) || defined(__clang__)
    return (i64)__builtin_ctzll(x);
#else
    i64 c = 0;
    while (!(x & 1u)) {
        x >>= 1;
        c++;
    }
    return c;
#endif
}

/* Does `succ_row` reach outside `mask`?  (succ_mask[k] & ~mask != 0) */
static inline int bs_escapes(const u64 *succ_row, const u64 *mask, i64 W) {
    for (i64 w = 0; w < W; w++) {
        if (succ_row[w] & ~mask[w]) return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Candidates: (eta, seed position, dense index) triples, ordered      */
/* exactly like the Python tuples -- seed positions are unique, so the */
/* (eta, seed) order is total and stability is irrelevant.             */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 eta, seedp, k;
} Cand;

static void cand_sort(Cand *c, i64 len, int cheapest_first) {
    /* Insertion sort: candidate lists are tiny (the population averages
     * ~1-2 ready instructions per node). */
    for (i64 i = 1; i < len; i++) {
        Cand x = c[i];
        i64 j = i - 1;
        if (cheapest_first) {
            while (j >= 0 && (c[j].eta > x.eta ||
                              (c[j].eta == x.eta && c[j].seedp > x.seedp))) {
                c[j + 1] = c[j];
                j--;
            }
        } else {
            while (j >= 0 && c[j].seedp > x.seedp) {
                c[j + 1] = c[j];
                j--;
            }
        }
        c[j + 1] = x;
    }
}

/* Growable candidate pool + frame stack (the explicit DFS stack). */

typedef struct {
    i64 start, count, idx;
} Frame;

typedef struct {
    Cand *pool;
    i64 pool_len, pool_cap;
    Frame *frames;
    i64 frames_len, frames_cap;
} Stack;

static int stack_init(Stack *s, i64 n) {
    s->pool_len = 0;
    s->pool_cap = 4 * n + 16;
    s->frames_len = 0;
    s->frames_cap = n + 16;
    s->pool = (Cand *)malloc((size_t)s->pool_cap * sizeof(Cand));
    s->frames = (Frame *)malloc((size_t)s->frames_cap * sizeof(Frame));
    return (s->pool && s->frames) ? OK : ERR_ALLOC;
}

static void stack_free(Stack *s) {
    free(s->pool);
    free(s->frames);
}

static int pool_reserve(Stack *s, i64 extra) {
    if (s->pool_len + extra <= s->pool_cap) return OK;
    i64 cap = s->pool_cap;
    while (cap < s->pool_len + extra) cap *= 2;
    Cand *p = (Cand *)realloc(s->pool, (size_t)cap * sizeof(Cand));
    if (!p) return ERR_ALLOC;
    s->pool = p;
    s->pool_cap = cap;
    return OK;
}

static int frame_push(Stack *s, i64 start, i64 count, i64 idx) {
    if (s->frames_len == s->frames_cap) {
        i64 cap = s->frames_cap * 2;
        Frame *f = (Frame *)realloc(s->frames, (size_t)cap * sizeof(Frame));
        if (!f) return ERR_ALLOC;
        s->frames = f;
        s->frames_cap = cap;
    }
    s->frames[s->frames_len].start = start;
    s->frames[s->frames_len].count = count;
    s->frames[s->frames_len].idx = idx;
    s->frames_len++;
    return OK;
}

/* ------------------------------------------------------------------ */
/* Release-deadline bound (mirror of repro.sched.core.deadline_lateness */
/* and its two EDF sweeps).  Only the prune decision has to match the  */
/* Python engines, and each sweep computes an exact optimum of its     */
/* relaxation, so tie orders inside qsort and the heap are free.       */
/* ------------------------------------------------------------------ */

#define NO_LATENESS (-((i64)1 << 62))

/* A task: (release r, deadline d) under a sort/heap key. */
typedef struct {
    i64 key, r, d;
} Task;

static int task_cmp(const void *x, const void *y) {
    const Task *a = (const Task *)x, *b = (const Task *)y;
    if (a->key != b->key) return a->key < b->key ? -1 : 1;
    if (a->r != b->r) return a->r < b->r ? -1 : 1;
    if (a->d != b->d) return a->d < b->d ? -1 : 1;
    return 0;
}

/* Min-heap on .key with room for `cap` entries. */
static void heap_push(Task *h, i64 *len, i64 cap, Task x) {
    assert(*len < cap);
    (void)cap;
    i64 i = (*len)++;
    while (i > 0) {
        i64 up = (i - 1) / 2;
        if (h[up].key <= x.key) break;
        h[i] = h[up];
        i = up;
    }
    h[i] = x;
}

static Task heap_pop(Task *h, i64 *len) {
    assert(*len > 0);
    Task top = h[0];
    i64 m = --(*len);
    if (m > 0) {
        Task x = h[m];
        i64 i = 0;
        while (1) {
            i64 c = 2 * i + 1;
            if (c >= m) break;
            if (c + 1 < m && h[c + 1].key < h[c].key) c++;
            if (h[c].key >= x.key) break;
            h[i] = h[c];
            i = c;
        }
        h[i] = x;
    }
    return top;
}

/* EDF over unit tasks sorted by release: the largest issue - deadline. */
static i64 unit_edf_lateness(const Task *t, i64 m, Task *heap) {
    i64 hl = 0, i = 0, now = t[0].r, worst = NO_LATENESS;
    while (i < m || hl > 0) {
        if (hl == 0 && t[i].r > now) now = t[i].r;
        while (i < m && t[i].r <= now) {
            Task x = {t[i].d, 0, 0};
            heap_push(heap, &hl, m, x);
            i++;
        }
        Task top = heap_pop(heap, &hl);
        if (now - top.key > worst) worst = now - top.key;
        now++;
    }
    return worst;
}

/* Preemptive EDF over one pipeline's users sorted by release, each
 * holding the enqueue slot `e` cycles and due at deadline + e.  Heap
 * entries carry the due time as key and the work left in .r. */
static i64 pipe_edf_lateness(const Task *t, i64 m, i64 e, Task *heap) {
    i64 hl = 0, i = 0, now = t[0].r, worst = NO_LATENESS;
    while (i < m || hl > 0) {
        if (hl == 0 && t[i].r > now) now = t[i].r;
        while (i < m && t[i].r <= now) {
            Task x = {t[i].d + e, e, 0};
            heap_push(heap, &hl, m, x);
            i++;
        }
        if (i < m && now + heap[0].r > t[i].r) {
            heap[0].r -= t[i].r - now; /* preempted; key unchanged */
            now = t[i].r;
            continue;
        }
        Task top = heap_pop(heap, &hl);
        now += top.r;
        if (now - top.key > worst) worst = now - top.key;
    }
    return worst;
}

/* Static tables and n-entry scratch arrays of the bound. */
typedef struct {
    i64 n;
    const i64 *lat, *enq, *sig, *pred_off, *pred_lst, *var_bound;
    const i64 *pipe_enq, *chain;
    int has_vb;
    Task *tasks, *piped, *heap;
} Relax;

/* Largest relaxed lateness of the instructions outside `mask` after a
 * prefix whose last issue is `tl`; stops once it exceeds `limit`.
 * Writes each unscheduled instruction's release into issue[k]. */
static i64 deadline_lateness(const Relax *x, const u64 *mask, i64 tl,
                             i64 remaining, i64 *issue,
                             const i64 *pipe_last, i64 limit) {
    const i64 base = tl + 1, t_last = tl + remaining;
    i64 worst = NO_LATENESS, m = 0, mp = 0;
    for (i64 k = 0; k < x->n; k++) {
        if (bs_test(mask, k)) continue;
        i64 r = base;
        i64 p = x->sig[k];
        if (p >= 0) {
            i64 pl = pipe_last[p];
            if (pl != NONE) {
                i64 v = pl + x->enq[k];
                if (v > r) r = v;
            }
        }
        if (x->has_vb) {
            i64 v = x->var_bound[k];
            if (v != NONE && v > r) r = v;
        }
        for (i64 j = x->pred_off[k]; j < x->pred_off[k + 1]; j++) {
            i64 d = x->pred_lst[j];
            i64 v = issue[d] + x->lat[d];
            if (v > r) r = v;
        }
        issue[k] = r;
        i64 dl = t_last - x->chain[k];
        if (r - dl > worst) {
            worst = r - dl;
            if (worst > limit) return worst;
        }
        Task tk = {0, r, dl};
        x->tasks[m++] = tk;
        if (p >= 0 && x->pipe_enq[p] > 1) {
            Task tp = {p, r, dl};
            x->piped[mp++] = tp;
        }
    }
    assert(m == remaining);
    qsort(x->tasks, (size_t)m, sizeof(Task), task_cmp);
    i64 late = unit_edf_lateness(x->tasks, m, x->heap);
    if (late > worst) {
        worst = late;
        if (worst > limit) return worst;
    }
    /* Grouped by pipeline; a lone user's lateness is counted above. */
    qsort(x->piped, (size_t)mp, sizeof(Task), task_cmp);
    for (i64 s = 0; s < mp;) {
        i64 e = s + 1;
        while (e < mp && x->piped[e].key == x->piped[s].key) e++;
        if (e - s > 1) {
            late = pipe_edf_lateness(x->piped + s, e - s,
                                     x->pipe_enq[x->piped[s].key], x->heap);
            if (late > worst) {
                worst = late;
                if (worst > limit) return worst;
            }
        }
        s = e;
    }
    return worst;
}

/* ------------------------------------------------------------------ */
/* Dominance memo: dict semantics (lookup by serialized key, overwrite */
/* in place, FIFO eviction in insertion order) on a chained hash table */
/* threaded with an insertion-order list.                              */
/* ------------------------------------------------------------------ */

typedef struct {
    i64 *key;
    i64 klen;
    u64 hash;
    i64 value;
    i64 prev, next; /* insertion-order links (-1 terminated) */
    i64 chain;      /* bucket chain / free-list link */
} MEntry;

typedef struct {
    MEntry *e;
    i64 cap, used, count;
    i64 *buckets;
    u64 nbuckets; /* power of two */
    i64 head, tail, free_list;
} Memo;

static u64 memo_hash(const i64 *key, i64 klen) {
    const unsigned char *p = (const unsigned char *)key;
    size_t nbytes = (size_t)klen * sizeof(i64);
    u64 h = 1469598103934665603ull; /* FNV-1a 64 */
    for (size_t i = 0; i < nbytes; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

static int memo_init(Memo *m) {
    m->cap = 64;
    m->used = 0;
    m->count = 0;
    m->nbuckets = 64;
    m->head = m->tail = m->free_list = -1;
    m->e = (MEntry *)malloc((size_t)m->cap * sizeof(MEntry));
    m->buckets = (i64 *)malloc(m->nbuckets * sizeof(i64));
    if (!m->e || !m->buckets) return ERR_ALLOC;
    for (u64 b = 0; b < m->nbuckets; b++) m->buckets[b] = -1;
    return OK;
}

static void memo_free(Memo *m) {
    for (i64 i = m->head; i >= 0; i = m->e[i].next) free(m->e[i].key);
    free(m->e);
    free(m->buckets);
}

static i64 memo_find(const Memo *m, const i64 *key, i64 klen, u64 h) {
    for (i64 i = m->buckets[h & (m->nbuckets - 1)]; i >= 0; i = m->e[i].chain) {
        if (m->e[i].hash == h && m->e[i].klen == klen &&
            memcmp(m->e[i].key, key, (size_t)klen * sizeof(i64)) == 0)
            return i;
    }
    return -1;
}

static void memo_unlink_bucket(Memo *m, i64 slot) {
    i64 *cursor = &m->buckets[m->e[slot].hash & (m->nbuckets - 1)];
    while (*cursor != slot) cursor = &m->e[*cursor].chain;
    *cursor = m->e[slot].chain;
}

static void memo_evict_oldest(Memo *m) {
    i64 slot = m->head;
    m->head = m->e[slot].next;
    if (m->head >= 0)
        m->e[m->head].prev = -1;
    else
        m->tail = -1;
    memo_unlink_bucket(m, slot);
    free(m->e[slot].key);
    m->e[slot].key = NULL;
    m->e[slot].chain = m->free_list;
    m->free_list = slot;
    m->count--;
}

static int memo_grow(Memo *m) {
    u64 nb = m->nbuckets * 2;
    i64 *buckets = (i64 *)malloc(nb * sizeof(i64));
    if (!buckets) return ERR_ALLOC;
    for (u64 b = 0; b < nb; b++) buckets[b] = -1;
    free(m->buckets);
    m->buckets = buckets;
    m->nbuckets = nb;
    for (i64 i = m->head; i >= 0; i = m->e[i].next) {
        u64 b = m->e[i].hash & (nb - 1);
        m->e[i].chain = m->buckets[b];
        m->buckets[b] = i;
    }
    return OK;
}

/* Insert a key known to be absent (Python: memo[key] = mu on a miss). */
static int memo_insert(Memo *m, const i64 *key, i64 klen, u64 h, i64 value) {
    if (m->count + 1 > (i64)(m->nbuckets - m->nbuckets / 4)) {
        if (memo_grow(m) != OK) return ERR_ALLOC;
    }
    i64 slot;
    if (m->free_list >= 0) {
        slot = m->free_list;
        m->free_list = m->e[slot].chain;
    } else {
        if (m->used == m->cap) {
            i64 cap = m->cap * 2;
            MEntry *e = (MEntry *)realloc(m->e, (size_t)cap * sizeof(MEntry));
            if (!e) return ERR_ALLOC;
            m->e = e;
            m->cap = cap;
        }
        slot = m->used++;
    }
    MEntry *en = &m->e[slot];
    en->key = (i64 *)malloc((size_t)klen * sizeof(i64));
    if (!en->key) return ERR_ALLOC;
    memcpy(en->key, key, (size_t)klen * sizeof(i64));
    en->klen = klen;
    en->hash = h;
    en->value = value;
    en->next = -1;
    en->prev = m->tail;
    if (m->tail >= 0)
        m->e[m->tail].next = slot;
    else
        m->head = slot;
    m->tail = slot;
    u64 b = h & (m->nbuckets - 1);
    en->chain = m->buckets[b];
    m->buckets[b] = slot;
    m->count++;
    return OK;
}

/* ------------------------------------------------------------------ */
/* ABI                                                                 */
/* ------------------------------------------------------------------ */

EXPORT i64 repro_abi(void) { return NATIVE_ABI_VERSION; }

/* cfg[] layout for repro_dfs. */
enum {
    CFG_N = 0,
    CFG_P,
    CFG_CURTAIL,
    CFG_ALPHA_BETA,
    CFG_EQUIVALENCE,
    CFG_LOWER_BOUNDS,
    CFG_DOMINANCE,
    CFG_CHEAPEST_FIRST,
    CFG_MAX_MEMO,
    CFG_HAS_DEADLINE,
    CFG_BUDGET, /* -1: no register budget */
    CFG_MAX_LATENCY,
    CFG_BEST_NOPS,
    CFG_OMEGA_CALLS,
    CFG_IMPROVEMENTS,
    CFG_LEN
};

/* stats[] layout for repro_dfs (prune kinds in telemetry order). */
enum {
    ST_OMEGA = 0,
    ST_IMPROVEMENTS,
    ST_COMPLETED,
    ST_TIMED_OUT,
    ST_MEMO_EVICTED,
    ST_IMPROVED, /* out_order/out_etas/out_issue are valid */
    ST_LEGALITY,
    ST_BOUNDS,
    ST_EQUIVALENCE,
    ST_ALPHA_BETA,
    ST_CURTAIL,
    ST_TIMEOUT,
    ST_DOMINANCE,
    ST_LEN
};

/* The pruned DFS of schedule_block (mirror of _run_fast_dfs).
 *
 * CSR pairs (xxx_off has n+1 entries) carry the dense predecessor,
 * successor and register-operand lists.  pipe_last0/var_bound use the
 * NONE sentinel; deadline_rel is the remaining wall-clock budget in
 * seconds, measured from this call's entry (only read when
 * cfg[CFG_HAS_DEADLINE]).  Outputs: out_order/out_etas/out_issue hold
 * the best complete schedule found *here* (valid iff
 * stats[ST_IMPROVED]), stats the counters.
 */
EXPORT i64 repro_dfs(
    const i64 *cfg,
    const i64 *lat, const i64 *enq, const i64 *sig,
    const i64 *pred_off, const i64 *pred_lst,
    const i64 *succ_off, const i64 *succ_lst,
    const i64 *pipe_enq, const i64 *pipe_last0,
    const i64 *var_bound,
    const i64 *seed_at, const i64 *chain, const i64 *users0,
    const i64 *opnd_off, const i64 *opnd_lst, const i64 *produces,
    double deadline_rel,
    i64 *out_order, i64 *out_etas, i64 *out_issue, i64 *stats)
{
    const i64 n = cfg[CFG_N];
    const i64 P = cfg[CFG_P];
    const i64 curtail = cfg[CFG_CURTAIL];
    const int alpha_beta = cfg[CFG_ALPHA_BETA] != 0;
    const int equivalence = cfg[CFG_EQUIVALENCE] != 0;
    const int lower_bounds = cfg[CFG_LOWER_BOUNDS] != 0;
    const int dominance = cfg[CFG_DOMINANCE] != 0;
    const int cheapest_first = cfg[CFG_CHEAPEST_FIRST] != 0;
    const i64 max_memo = cfg[CFG_MAX_MEMO];
    const int has_deadline = cfg[CFG_HAS_DEADLINE] != 0;
    const i64 budget = cfg[CFG_BUDGET];
    const i64 max_latency = cfg[CFG_MAX_LATENCY];
    const double t0 = has_deadline ? now_sec() : 0.0;

    const i64 W = (n >> 6) + 1; /* always >= 1: no zero-size allocations */
    i64 rc = ERR_ALLOC;

    /* ---- allocations ---- */
    i64 *order = NULL, *etas = NULL, *issue = NULL;
    i64 *saved_p = NULL, *saved_v = NULL, *indeg = NULL;
    i64 *pipe_last = NULL, *users = NULL, *used_pipes = NULL;
    i64 *consumers_left = NULL;
    u64 *ready = NULL, *mask = NULL, *succ_bits = NULL;
    unsigned char *trivial = NULL;
    i64 *key_buf = NULL, *dang_k = NULL, *dang_s = NULL, *seen = NULL;
    Task *tasks = NULL, *piped = NULL, *heap = NULL;
    Stack st = {0};
    Memo memo = {0};
    int memo_live = 0, stack_live = 0;

    order = (i64 *)malloc((size_t)n * sizeof(i64));
    etas = (i64 *)malloc((size_t)n * sizeof(i64));
    issue = (i64 *)calloc((size_t)n, sizeof(i64));
    saved_p = (i64 *)malloc((size_t)n * sizeof(i64));
    saved_v = (i64 *)malloc((size_t)n * sizeof(i64));
    indeg = (i64 *)malloc((size_t)n * sizeof(i64));
    pipe_last = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    users = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    used_pipes = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    ready = (u64 *)calloc((size_t)W, sizeof(u64));
    mask = (u64 *)calloc((size_t)W, sizeof(u64));
    succ_bits = (u64 *)calloc((size_t)(n * W), sizeof(u64));
    trivial = (unsigned char *)malloc((size_t)n);
    dang_k = (i64 *)malloc((size_t)(max_latency + 2) * sizeof(i64));
    dang_s = (i64 *)malloc((size_t)(max_latency + 2) * sizeof(i64));
    seen = (i64 *)malloc((size_t)n * sizeof(i64));
    tasks = (Task *)malloc((size_t)n * sizeof(Task));
    piped = (Task *)malloc((size_t)n * sizeof(Task));
    heap = (Task *)malloc((size_t)n * sizeof(Task));
    /* Worst-case key: mask words + three length-prefixed segments. */
    key_buf = (i64 *)malloc(
        (size_t)(W + 3 + 2 * P + 2 * (max_latency + 2) + 2 * n) * sizeof(i64));
    if (!order || !etas || !issue || !saved_p || !saved_v || !indeg ||
        !pipe_last || !users || !used_pipes || !ready || !mask ||
        !succ_bits || !trivial || !dang_k || !dang_s || !seen || !key_buf ||
        !tasks || !piped || !heap)
        goto cleanup;
    if (budget >= 0) {
        consumers_left = (i64 *)calloc((size_t)n, sizeof(i64));
        if (!consumers_left) goto cleanup;
        for (i64 k = 0; k < n; k++)
            for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++)
                consumers_left[opnd_lst[j]]++;
    }
    if (stack_init(&st, n) != OK) goto cleanup;
    stack_live = 1;
    if (memo_init(&memo) != OK) goto cleanup;
    memo_live = 1;

    /* ---- static structure ---- */
    memcpy(pipe_last, pipe_last0, (size_t)P * sizeof(i64));
    memcpy(users, users0, (size_t)P * sizeof(i64));
    i64 n_used = 0;
    for (i64 p = 0; p < P; p++)
        if (users[p]) used_pipes[n_used++] = p;
    int has_vb = 0;
    for (i64 k = 0; k < n; k++)
        if (var_bound[k] != NONE) has_vb = 1;
    for (i64 k = 0; k < n; k++) {
        indeg[k] = pred_off[k + 1] - pred_off[k];
        if (indeg[k] == 0) bs_set(ready, k);
        for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++)
            bs_set(succ_bits + k * W, succ_lst[j]);
    }
    int any_trivial = 0;
    for (i64 k = 0; k < n; k++) {
        trivial[k] = (sig[k] < 0 && indeg[k] == 0) ? 1 : 0;
        if (trivial[k]) any_trivial = 1;
    }
    any_trivial = equivalence && any_trivial;
    const Relax relax = {
        .n = n, .lat = lat, .enq = enq, .sig = sig, .pred_off = pred_off,
        .pred_lst = pred_lst, .var_bound = var_bound, .pipe_enq = pipe_enq,
        .chain = chain, .has_vb = has_vb,
        .tasks = tasks, .piped = piped, .heap = heap,
    };

    /* ---- mutable search state ---- */
    i64 olen = 0, total_nops = 0, last_iss = -1, live_count = 0;
    i64 best_nops = cfg[CFG_BEST_NOPS];
    i64 omega_calls = cfg[CFG_OMEGA_CALLS];
    i64 improvements = cfg[CFG_IMPROVEMENTS];
    i64 improved = 0;
    i64 completed = 1, timed_out = 0;
    i64 n_legality = 0, n_bounds = 0, n_equivalence = 0, n_alpha_beta = 0;
    i64 n_dominance = 0, n_curtail = 0, n_timeout = 0, n_memo_evicted = 0;

    i64 cstart = 0, ccount = 0, cidx = 0;
    int at_root = 1;
    i64 pending = n;

    while (1) {
        if (pending >= 0) {
            /* ---- node entry: candidates + eta, then node-level
             * prunes in reference order ---- */
            i64 remaining = pending;
            pending = -1;
            if (at_root) {
                at_root = 0;
            } else {
                if (frame_push(&st, cstart, ccount, cidx) != OK)
                    goto cleanup;
            }
            i64 base = last_iss + 1;
            cstart = st.pool_len;
            ccount = 0;
            i64 lb = 0;
            if (pool_reserve(&st, remaining) != OK) goto cleanup;
            for (i64 w = 0; w < W; w++) {
                u64 rm = ready[w];
                while (rm) {
                    i64 k = (w << 6) + ctz64(rm);
                    rm &= rm - 1;
                    i64 e = base;
                    i64 p = sig[k];
                    if (p >= 0) {
                        i64 pl = pipe_last[p];
                        if (pl != NONE) {
                            i64 v = pl + enq[k];
                            if (v > e) e = v;
                        }
                    }
                    if (has_vb) {
                        i64 v = var_bound[k];
                        if (v != NONE && v > e) e = v;
                    }
                    for (i64 j = pred_off[k]; j < pred_off[k + 1]; j++) {
                        i64 d = pred_lst[j];
                        i64 v = issue[d] + lat[d];
                        if (v > e) e = v;
                    }
                    i64 eta = e - base;
                    st.pool[st.pool_len].eta = eta;
                    st.pool[st.pool_len].seedp = seed_at[k];
                    st.pool[st.pool_len].k = k;
                    st.pool_len++;
                    ccount++;
                    if (lower_bounds) {
                        i64 gap = 1 + eta + chain[k] - remaining;
                        if (gap > lb) lb = gap;
                    }
                }
            }
            n_legality += remaining - ccount;
            cand_sort(st.pool + cstart, ccount, cheapest_first);
            cidx = 0;

            int pruned = 0;
            if (olen > 0) {
                i64 mu = total_nops;
                if (lower_bounds) {
                    i64 tl = base - 1;
                    for (i64 u = 0; u < n_used; u++) {
                        i64 p = used_pipes[u];
                        i64 ku = users[p];
                        if (ku) {
                            i64 pl = pipe_last[p];
                            i64 pe = pipe_enq[p];
                            i64 first = (pl == NONE) ? tl + 1 : pl + pe;
                            i64 gap = (first + (ku - 1) * pe) - (tl + remaining);
                            if (gap > lb) lb = gap;
                        }
                    }
                    /* The release-deadline bound only where the cheap
                     * gaps leave the node open. */
                    if (mu + lb < best_nops)
                        lb = deadline_lateness(&relax, mask, tl, remaining,
                                               issue, pipe_last,
                                               best_nops - 1 - mu);
                    if (mu + lb >= best_nops) {
                        n_bounds++;
                        pruned = 1;
                    }
                }
                if (!pruned && dominance) {
                    i64 tl = base - 1;
                    i64 klen = 0;
                    for (i64 w = 0; w < W; w++)
                        key_buf[klen++] = (i64)mask[w];
                    i64 np_at = klen++;
                    i64 cnt = 0;
                    for (i64 p = 0; p < P; p++) {
                        i64 pl = pipe_last[p];
                        if (pl != NONE && pl - tl + pipe_enq[p] > 1) {
                            key_buf[klen++] = p;
                            key_buf[klen++] = pl - tl;
                            cnt++;
                        }
                    }
                    key_buf[np_at] = cnt;
                    i64 nd = 0;
                    i64 from = olen > max_latency + 1 ? olen - (max_latency + 1)
                                                      : 0;
                    for (i64 q = from; q < olen; q++) {
                        i64 k = order[q];
                        i64 slack = issue[k] + lat[k] - (tl + 1);
                        if (slack > 0 && bs_escapes(succ_bits + k * W, mask, W)) {
                            dang_k[nd] = k;
                            dang_s[nd] = slack;
                            nd++;
                        }
                    }
                    for (i64 i = 1; i < nd; i++) { /* sort by k (unique) */
                        i64 xk = dang_k[i], xs = dang_s[i];
                        i64 j = i - 1;
                        while (j >= 0 && dang_k[j] > xk) {
                            dang_k[j + 1] = dang_k[j];
                            dang_s[j + 1] = dang_s[j];
                            j--;
                        }
                        dang_k[j + 1] = xk;
                        dang_s[j + 1] = xs;
                    }
                    key_buf[klen++] = nd;
                    for (i64 i = 0; i < nd; i++) {
                        key_buf[klen++] = dang_k[i];
                        key_buf[klen++] = dang_s[i];
                    }
                    i64 nr_at = klen++;
                    cnt = 0;
                    if (has_vb) {
                        for (i64 k = 0; k < n; k++) { /* ascending k */
                            i64 b = var_bound[k];
                            if (b != NONE && !bs_test(mask, k) && b > tl + 1) {
                                key_buf[klen++] = k;
                                key_buf[klen++] = b - (tl + 1);
                                cnt++;
                            }
                        }
                    }
                    key_buf[nr_at] = cnt;

                    u64 h = memo_hash(key_buf, klen);
                    i64 slot = memo_find(&memo, key_buf, klen, h);
                    if (slot >= 0) {
                        if (mu >= memo.e[slot].value) {
                            n_dominance++;
                            pruned = 1;
                        } else {
                            /* Tighter prefix: overwrite in place (keeps
                             * insertion position, exactly like dict
                             * assignment to an existing key). */
                            memo.e[slot].value = mu;
                        }
                    } else if (max_memo > 0) {
                        if (memo.count >= max_memo) {
                            memo_evict_oldest(&memo);
                            n_memo_evicted++;
                        }
                        if (memo_insert(&memo, key_buf, klen, h, mu) != OK)
                            goto cleanup;
                    }
                }
            }

            if (pruned) {
                ccount = 0;
                st.pool_len = cstart;
            } else if (any_trivial && ccount > 1) {
                i64 nseen = 0, wout = 0;
                for (i64 j = 0; j < ccount; j++) {
                    Cand c = st.pool[cstart + j];
                    if (trivial[c.k]) {
                        int dup = 0;
                        for (i64 s = 0; s < nseen; s++) {
                            if (memcmp(succ_bits + c.k * W,
                                       succ_bits + seen[s] * W,
                                       (size_t)W * sizeof(u64)) == 0) {
                                dup = 1;
                                break;
                            }
                        }
                        if (dup) {
                            n_equivalence++;
                            continue;
                        }
                        seen[nseen++] = c.k;
                    }
                    st.pool[cstart + wout] = c;
                    wout++;
                }
                ccount = wout;
                st.pool_len = cstart + ccount;
            }
        }

        if (cidx == ccount) {
            if (st.frames_len == 0) break;
            /* Close the candidate that opened this frame, undo it, and
             * resume the suspended parent frame. */
            i64 k = order[olen - 1];
            for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                i64 s = succ_lst[j];
                if (indeg[s] == 0) bs_clear(ready, s);
                indeg[s]++;
            }
            bs_set(ready, k);
            bs_clear(mask, k);
            if (budget >= 0) {
                if (produces[k] && consumers_left[k] > 0) live_count--;
                for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++) {
                    i64 r = opnd_lst[j];
                    if (consumers_left[r] == 0) live_count++;
                    consumers_left[r]++;
                }
            }
            i64 p = sig[k];
            if (p >= 0) users[p]++;
            olen--;
            i64 e2 = etas[olen];
            total_nops -= e2;
            last_iss = issue[k] - e2 - 1;
            i64 sp = saved_p[olen];
            if (sp >= 0) pipe_last[sp] = saved_v[olen];
            st.pool_len = cstart;
            Frame f = st.frames[--st.frames_len];
            cstart = f.start;
            ccount = f.count;
            cidx = f.idx;
            continue;
        }
        Cand c = st.pool[cstart + cidx];
        cidx++;
        i64 eta = c.eta;
        i64 k = c.k;
        if (budget >= 0) {
            i64 freed = 0;
            for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++)
                if (consumers_left[opnd_lst[j]] == 1) freed++;
            if (live_count - freed + produces[k] > budget)
                continue; /* would not be allocatable: treat as illegal */
        }
        /* Step [4]: curtail-point truncation. */
        if (omega_calls >= curtail) {
            n_curtail++;
            completed = 0;
            break;
        }
        if (has_deadline && now_sec() - t0 > deadline_rel) {
            n_timeout++;
            timed_out = 1;
            completed = 0;
            break;
        }
        omega_calls++;
        /* Push k (eta cached from node entry; last_iss = -1 on an empty
         * order makes iss = eta, as Omega defines). */
        i64 iss = last_iss + 1 + eta;
        order[olen] = k;
        etas[olen] = eta;
        issue[k] = iss;
        total_nops += eta;
        last_iss = iss;
        i64 p = sig[k];
        if (p < 0) {
            saved_p[olen] = -1;
        } else {
            saved_p[olen] = p;
            saved_v[olen] = pipe_last[p];
            pipe_last[p] = iss;
            users[p]--;
        }
        olen++;
        if (budget >= 0) {
            for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++) {
                i64 r = opnd_lst[j];
                if (--consumers_left[r] == 0) live_count--;
            }
            if (produces[k] && consumers_left[k] > 0) live_count++;
        }
        i64 depth = olen;
        int done = 0;
        if (depth == n) {
            /* Step [3]: complete schedule; adopt if strictly better. */
            if (total_nops < best_nops) {
                best_nops = total_nops;
                memcpy(out_order, order, (size_t)n * sizeof(i64));
                memcpy(out_etas, etas, (size_t)n * sizeof(i64));
                for (i64 q = 0; q < n; q++) out_issue[q] = issue[order[q]];
                improvements++;
                improved = 1;
            }
            done = 1;
        } else if (alpha_beta && total_nops >= best_nops) {
            /* Step [6]: mu never decreases as a schedule grows. */
            n_alpha_beta++;
            done = 1;
        }
        if (done) {
            if (budget >= 0) {
                if (produces[k] && consumers_left[k] > 0) live_count--;
                for (i64 j = opnd_off[k]; j < opnd_off[k + 1]; j++) {
                    i64 r = opnd_lst[j];
                    if (consumers_left[r] == 0) live_count++;
                    consumers_left[r]++;
                }
            }
            if (p >= 0) users[p]++;
            olen--;
            total_nops -= eta;
            last_iss = iss - eta - 1;
            i64 sp = saved_p[olen];
            if (sp >= 0) pipe_last[sp] = saved_v[olen];
        } else {
            bs_clear(ready, k);
            bs_set(mask, k);
            for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                i64 s = succ_lst[j];
                if (--indeg[s] == 0) bs_set(ready, s);
            }
            pending = n - depth;
        }
    }

    stats[ST_OMEGA] = omega_calls;
    stats[ST_IMPROVEMENTS] = improvements;
    stats[ST_COMPLETED] = completed;
    stats[ST_TIMED_OUT] = timed_out;
    stats[ST_MEMO_EVICTED] = n_memo_evicted;
    stats[ST_IMPROVED] = improved;
    stats[ST_LEGALITY] = n_legality;
    stats[ST_BOUNDS] = n_bounds;
    stats[ST_EQUIVALENCE] = n_equivalence;
    stats[ST_ALPHA_BETA] = n_alpha_beta;
    stats[ST_CURTAIL] = n_curtail;
    stats[ST_TIMEOUT] = n_timeout;
    stats[ST_DOMINANCE] = n_dominance;
    rc = OK;

cleanup:
    if (memo_live) memo_free(&memo);
    if (stack_live) stack_free(&st);
    free(order);
    free(etas);
    free(issue);
    free(saved_p);
    free(saved_v);
    free(indeg);
    free(pipe_last);
    free(users);
    free(used_pipes);
    free(consumers_left);
    free(ready);
    free(mask);
    free(succ_bits);
    free(trivial);
    free(key_buf);
    free(dang_k);
    free(dang_s);
    free(seen);
    free(tasks);
    free(piped);
    free(heap);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Windowed split search (mirror of run_fast_split).                   */
/* ------------------------------------------------------------------ */

/* Shared flat timing state, carried across windows. */
typedef struct {
    i64 n, P;
    const i64 *lat, *enq, *sig;
    const i64 *pred_off, *pred_lst, *succ_off, *succ_lst;
    const i64 *var_bound;
    int has_vb;
    i64 *order, *etas, *issue, *sp, *sv, *pipe_last;
    i64 olen, total_nops;
} SState;

static i64 s_peek(const SState *s, i64 k) {
    i64 base = s->olen ? s->issue[s->order[s->olen - 1]] + 1 : 0;
    i64 e = base;
    i64 p = s->sig[k];
    if (p >= 0) {
        i64 pl = s->pipe_last[p];
        if (pl != NONE) {
            i64 v = pl + s->enq[k];
            if (v > e) e = v;
        }
    }
    if (s->has_vb) {
        i64 v = s->var_bound[k];
        if (v != NONE && v > e) e = v;
    }
    for (i64 j = s->pred_off[k]; j < s->pred_off[k + 1]; j++) {
        i64 d = s->pred_lst[j];
        i64 v = s->issue[d] + s->lat[d];
        if (v > e) e = v;
    }
    return e - base;
}

/* eta < 0 means "compute it" (etas are always >= 0). */
static void s_push(SState *s, i64 k, i64 eta) {
    if (eta < 0) eta = s_peek(s, k);
    i64 iss = s->olen ? s->issue[s->order[s->olen - 1]] + 1 + eta : eta;
    s->order[s->olen] = k;
    s->etas[s->olen] = eta;
    s->issue[k] = iss;
    s->total_nops += eta;
    i64 p = s->sig[k];
    if (p < 0) {
        s->sp[s->olen] = -1;
    } else {
        s->sp[s->olen] = p;
        s->sv[s->olen] = s->pipe_last[p];
        s->pipe_last[p] = iss;
    }
    s->olen++;
}

static void s_pop(SState *s) {
    s->olen--;
    s->total_nops -= s->etas[s->olen];
    i64 sp = s->sp[s->olen];
    if (sp >= 0) s->pipe_last[sp] = s->sv[s->olen];
}

/* cfg[] layout for repro_split. */
enum {
    SCFG_N = 0,
    SCFG_P,
    SCFG_WINDOW,
    SCFG_CURTAIL,
    SCFG_LEN
};

/* stats[] layout for repro_split. */
enum {
    SST_OMEGA = 0,
    SST_ALL_COMPLETED,
    SST_LEGALITY,
    SST_BOUNDS,
    SST_ALPHA_BETA,
    SST_CURTAIL,
    SST_LEN
};

EXPORT i64 repro_split(
    const i64 *cfg,
    const i64 *lat, const i64 *enq, const i64 *sig,
    const i64 *pred_off, const i64 *pred_lst,
    const i64 *succ_off, const i64 *succ_lst,
    const i64 *pipe_enq, const i64 *pipe_last0,
    const i64 *var_bound,
    const i64 *dense_seed,
    i64 *out_order, i64 *out_etas, i64 *out_issue, i64 *stats)
{
    (void)pipe_enq; /* the splitter has no pipeline-capacity bound */
    const i64 n = cfg[SCFG_N];
    const i64 P = cfg[SCFG_P];
    const i64 window = cfg[SCFG_WINDOW];
    const i64 curtail = cfg[SCFG_CURTAIL];
    const i64 W = (n >> 6) + 1; /* always >= 1: no zero-size allocations */
    i64 rc = ERR_ALLOC;

    SState s;
    s.n = n;
    s.P = P;
    s.lat = lat;
    s.enq = enq;
    s.sig = sig;
    s.pred_off = pred_off;
    s.pred_lst = pred_lst;
    s.succ_off = succ_off;
    s.succ_lst = succ_lst;
    s.var_bound = var_bound;
    s.has_vb = 0;
    for (i64 k = 0; k < n; k++)
        if (var_bound[k] != NONE) s.has_vb = 1;
    s.olen = 0;
    s.total_nops = 0;

    i64 *wseed = NULL, *windeg = NULL, *local_indeg = NULL;
    i64 *local_ready = NULL, *chain_w = NULL;
    i64 *wbest = NULL, *wgreedy = NULL;
    unsigned char *in_window = NULL;
    u64 *ready_mask = NULL;
    Stack st = {0};
    int stack_live = 0;

    s.order = (i64 *)malloc((size_t)n * sizeof(i64));
    s.etas = (i64 *)malloc((size_t)n * sizeof(i64));
    s.issue = (i64 *)calloc((size_t)n, sizeof(i64));
    s.sp = (i64 *)malloc((size_t)n * sizeof(i64));
    s.sv = (i64 *)malloc((size_t)n * sizeof(i64));
    s.pipe_last = (i64 *)malloc((size_t)(P > 0 ? P : 1) * sizeof(i64));
    wseed = (i64 *)calloc((size_t)n, sizeof(i64));
    windeg = (i64 *)calloc((size_t)n, sizeof(i64));
    local_indeg = (i64 *)calloc((size_t)n, sizeof(i64));
    local_ready = (i64 *)malloc((size_t)n * sizeof(i64));
    chain_w = (i64 *)calloc((size_t)n, sizeof(i64));
    wbest = (i64 *)malloc((size_t)n * sizeof(i64));
    wgreedy = (i64 *)malloc((size_t)n * sizeof(i64));
    in_window = (unsigned char *)calloc((size_t)n, 1);
    ready_mask = (u64 *)calloc((size_t)W, sizeof(u64));
    if (!s.order || !s.etas || !s.issue || !s.sp || !s.sv || !s.pipe_last ||
        !wseed || !windeg || !local_indeg || !local_ready || !chain_w ||
        !wbest || !wgreedy || !in_window || !ready_mask)
        goto cleanup;
    if (stack_init(&st, n) != OK) goto cleanup;
    stack_live = 1;
    memcpy(s.pipe_last, pipe_last0, (size_t)P * sizeof(i64));

    i64 omega_calls = 0;
    i64 all_completed = 1;
    i64 n_legality = 0, n_bounds = 0, n_alpha_beta = 0, n_curtail = 0;

    for (i64 w_start = 0; w_start < n; w_start += window) {
        const i64 *members = dense_seed + w_start;
        i64 wn = window < n - w_start ? window : n - w_start;

        /* ---- window setup (member set, window indegrees, chain) ---- */
        for (i64 i = 0; i < wn; i++) {
            in_window[members[i]] = 1;
            wseed[members[i]] = i;
        }
        memset(ready_mask, 0, (size_t)W * sizeof(u64));
        for (i64 i = 0; i < wn; i++) {
            i64 k = members[i];
            i64 d = 0;
            for (i64 j = pred_off[k]; j < pred_off[k + 1]; j++)
                if (in_window[pred_lst[j]]) d++;
            windeg[k] = d;
            if (d == 0) bs_set(ready_mask, k);
        }
        /* Latency chains within the window: members are in seed
         * (topological) order, so a reverse scan sees inner successors
         * first. */
        for (i64 i = wn - 1; i >= 0; i--) {
            i64 k = members[i];
            i64 best = 0;
            for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                i64 sx = succ_lst[j];
                if (in_window[sx]) {
                    i64 v = lat[k] + chain_w[sx];
                    if (v > best) best = v;
                }
            }
            chain_w[k] = best;
        }
        i64 base_nops = s.total_nops;
        i64 entry_len = s.olen;

        /* ---- incumbents: seed slice and greedy order (n each) ---- */
        for (i64 i = 0; i < wn; i++) s_push(&s, members[i], -1);
        i64 best_nops = s.total_nops - base_nops;
        for (i64 i = 0; i < wn; i++) s_pop(&s);
        memcpy(wbest, members, (size_t)wn * sizeof(i64));

        {
            i64 nready = 0;
            for (i64 i = 0; i < wn; i++) {
                i64 k = members[i];
                local_indeg[k] = windeg[k];
                if (windeg[k] == 0) local_ready[nready++] = k;
            }
            i64 gn = 0;
            while (nready) {
                i64 pick_at = 0;
                i64 pick_eta = s_peek(&s, local_ready[0]);
                i64 pick_seed = wseed[local_ready[0]];
                for (i64 i = 1; i < nready; i++) {
                    i64 e = s_peek(&s, local_ready[i]);
                    i64 sd = wseed[local_ready[i]];
                    if (e < pick_eta || (e == pick_eta && sd < pick_seed)) {
                        pick_at = i;
                        pick_eta = e;
                        pick_seed = sd;
                    }
                }
                i64 pick = local_ready[pick_at];
                local_ready[pick_at] = local_ready[--nready];
                s_push(&s, pick, -1);
                wgreedy[gn++] = pick;
                for (i64 j = succ_off[pick]; j < succ_off[pick + 1]; j++) {
                    i64 sx = succ_lst[j];
                    if (in_window[sx] && --local_indeg[sx] == 0)
                        local_ready[nready++] = sx;
                }
            }
            i64 greedy_nops = s.total_nops - base_nops;
            for (i64 i = 0; i < gn; i++) s_pop(&s);
            if (greedy_nops < best_nops) {
                best_nops = greedy_nops;
                memcpy(wbest, wgreedy, (size_t)wn * sizeof(i64));
            }
        }
        i64 wcalls = 2 * wn;
        i64 wcomplete = 1;

        /* ---- the window DFS ---- */
        st.pool_len = 0;
        st.frames_len = 0;
        i64 cstart = 0, ccount = 0, cidx = 0;
        int have_frame = 0;
        i64 expand_remaining = wn;

        while (1) {
            if (!have_frame || expand_remaining >= 0) {
                /* wexpand(expand_remaining) */
                i64 remaining = expand_remaining;
                expand_remaining = -1;
                cstart = st.pool_len;
                ccount = 0;
                if (pool_reserve(&st, remaining) != OK) goto cleanup;
                i64 base = s.olen ? s.issue[s.order[s.olen - 1]] + 1 : 0;
                for (i64 w = 0; w < W; w++) {
                    u64 rm = ready_mask[w];
                    while (rm) {
                        i64 k = (w << 6) + ctz64(rm);
                        rm &= rm - 1;
                        i64 e = base;
                        i64 p = sig[k];
                        if (p >= 0) {
                            i64 pl = s.pipe_last[p];
                            if (pl != NONE) {
                                i64 v = pl + enq[k];
                                if (v > e) e = v;
                            }
                        }
                        if (s.has_vb) {
                            i64 v = var_bound[k];
                            if (v != NONE && v > e) e = v;
                        }
                        for (i64 j = pred_off[k]; j < pred_off[k + 1]; j++) {
                            i64 d = pred_lst[j];
                            i64 v = s.issue[d] + lat[d];
                            if (v > e) e = v;
                        }
                        st.pool[st.pool_len].eta = e - base;
                        st.pool[st.pool_len].seedp = wseed[k];
                        st.pool[st.pool_len].k = k;
                        st.pool_len++;
                        ccount++;
                    }
                }
                n_legality += remaining - ccount;
                cand_sort(st.pool + cstart, ccount, 1);
                cidx = 0;
                if (s.olen > entry_len) {
                    i64 window_nops = s.total_nops - base_nops;
                    i64 lb = 0;
                    for (i64 j = 0; j < ccount; j++) {
                        i64 gap = 1 + st.pool[cstart + j].eta +
                                  chain_w[st.pool[cstart + j].k] - remaining;
                        if (gap > lb) lb = gap;
                    }
                    if (window_nops + lb >= best_nops) {
                        n_bounds++;
                        ccount = 0;
                        st.pool_len = cstart;
                    }
                }
                have_frame = 1;
            }

            if (cidx == ccount) {
                if (st.frames_len == 0) break;
                i64 k = s.order[s.olen - 1];
                for (i64 j = succ_off[k]; j < succ_off[k + 1]; j++) {
                    i64 sx = succ_lst[j];
                    if (in_window[sx]) {
                        if (windeg[sx] == 0) bs_clear(ready_mask, sx);
                        windeg[sx]++;
                    }
                }
                bs_set(ready_mask, k);
                s_pop(&s);
                st.pool_len = cstart;
                Frame f = st.frames[--st.frames_len];
                cstart = f.start;
                ccount = f.count;
                cidx = f.idx;
                continue;
            }
            Cand c = st.pool[cstart + cidx];
            cidx++;
            if (wcalls >= curtail) {
                n_curtail++;
                wcomplete = 0;
                /* Unwind the partial window: the shared flat state must
                 * be back at window entry before commit. */
                while (s.olen > entry_len) s_pop(&s);
                break;
            }
            wcalls++;
            s_push(&s, c.k, c.eta);
            i64 window_nops = s.total_nops - base_nops;
            i64 depth = s.olen - entry_len;
            int done = 0;
            if (depth == wn) {
                if (window_nops < best_nops) {
                    best_nops = window_nops;
                    memcpy(wbest, s.order + s.olen - wn,
                           (size_t)wn * sizeof(i64));
                }
                done = 1;
            } else if (window_nops >= best_nops) {
                n_alpha_beta++;
                done = 1;
            }
            if (done) {
                s_pop(&s);
            } else {
                bs_clear(ready_mask, c.k);
                for (i64 j = succ_off[c.k]; j < succ_off[c.k + 1]; j++) {
                    i64 sx = succ_lst[j];
                    if (in_window[sx] && --windeg[sx] == 0)
                        bs_set(ready_mask, sx);
                }
                if (frame_push(&st, cstart, ccount, cidx) != OK)
                    goto cleanup;
                expand_remaining = wn - depth;
            }
        }

        omega_calls += wcalls;
        all_completed = all_completed && wcomplete;

        /* ---- commit the window's best order onto the shared state ---- */
        for (i64 i = 0; i < wn; i++) s_push(&s, wbest[i], -1);
        for (i64 i = 0; i < wn; i++) in_window[members[i]] = 0;
    }

    memcpy(out_order, s.order, (size_t)n * sizeof(i64));
    memcpy(out_etas, s.etas, (size_t)n * sizeof(i64));
    for (i64 q = 0; q < n; q++) out_issue[q] = s.issue[s.order[q]];
    stats[SST_OMEGA] = omega_calls;
    stats[SST_ALL_COMPLETED] = all_completed;
    stats[SST_LEGALITY] = n_legality;
    stats[SST_BOUNDS] = n_bounds;
    stats[SST_ALPHA_BETA] = n_alpha_beta;
    stats[SST_CURTAIL] = n_curtail;
    rc = OK;

cleanup:
    if (stack_live) stack_free(&st);
    free(s.order);
    free(s.etas);
    free(s.issue);
    free(s.sp);
    free(s.sv);
    free(s.pipe_last);
    free(wseed);
    free(windeg);
    free(local_indeg);
    free(local_ready);
    free(chain_w);
    free(wbest);
    free(wgreedy);
    free(in_window);
    free(ready_mask);
    return rc;
}
