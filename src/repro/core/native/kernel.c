/*
 * Native whole-schedule executor for the buffer-insertion dynamic program.
 *
 * Runs a compiled schedule (repro.core.schedule.CompiledNet: SINK / WIRE /
 * MERGE / BUFFER instructions over a stack of candidate lists) with the
 * same IEEE-754 operations, in the same order, as the object reference
 * backend (repro.core.wire_ops, repro.core.merge, repro.core.buffer_ops,
 * repro.core.pruning).  Built with -ffp-contract=off and without
 * fast-math, so no multiply-add is fused and no expression is
 * reassociated: every q and c is bit-identical to the Python result.
 *
 * All state lives in an rn_ctx handle; there are no mutable globals, so
 * two threads may run two contexts at once.  Provenance is written to a
 * four-column tape (kind, a, b, c) in the layout of
 * repro.core.stores.soa.ProvenanceTape:
 *
 *     SINK    node id       -            -
 *     MERGE   left index    right index  -
 *     BUFFER  below index   type index   plan slot
 *     SPLICE  splice slot   -            -
 *
 * Each stack entry carries the peak list length and the number of
 * candidates generated inside its subtree, the per-entry aggregates the
 * incremental engine needs when it splices memoized frontiers.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { OP_SINK = 0, OP_WIRE = 1, OP_MERGE = 2, OP_BUFFER = 3, OP_FINAL = 4 };
enum { TAPE_SINK = 0, TAPE_MERGE = 1, TAPE_BUFFER = 2, TAPE_SPLICE = 3 };
enum { MODE_HULL = 0, MODE_DESTRUCTIVE = 1, MODE_SCAN = 2 };
enum { ERR_NOMEM = -1, ERR_STACK = -2, ERR_BOUNDS = -3, ERR_FULL = -4 };

typedef struct {
    double *q;
    double *c;
    int64_t *d;
    int64_t n;
    int64_t cap;
    int64_t peak;
    int64_t gen;
} rn_list;

typedef struct {
    const uint8_t *ops;
    const int64_t *args;
    int64_t n_ops;
    const double *wire_r;
    const double *wire_c;
    const int64_t *sink_node;
    const double *sink_q;
    const double *sink_c;
    const int64_t *plan_kernel; /* plan slot -> kernel index */
    const int64_t *kernel_off;  /* kernel -> first type row (n_kernels + 1) */
    const double *t_r;          /* per type row, by_resistance_desc order */
    const double *t_cin;
    const double *t_k;
    const double *t_limit;      /* max_load, +inf when uncapped */
    const uint8_t *t_capped;
    const int64_t *t_cap_order; /* kernel-local cap-order permutation */
} rn_schedule;

typedef struct {
    rn_schedule s;
    int mode;
    int profile;
    rn_list *stack;
    int64_t depth;
    int64_t stack_cap;
    rn_list spare;       /* output buffers, swapped into the stack */
    int64_t *aux;        /* merge right-hand decisions, hull indices */
    int64_t aux_cap;
    double *vq;          /* per buffer type: best value, decision, found */
    int64_t *vd;
    uint8_t *vfound;
    double *bq;          /* pruned betas in cap order */
    double *bc;
    int64_t *bd;
    int64_t *bt;
    int64_t beta_cap;
    int64_t *tape[4];
    int64_t tape_len;
    int64_t tape_cap;
    const int64_t *capture_at; /* sorted instructions whose result is kept */
    int64_t capture_count;
    int64_t capture_next;
    rn_list kept;              /* captured frontiers, back to back */
    int64_t *kept_meta;        /* per capture: offset, length, peak, gen */
    int64_t kept_meta_cap;
    double seconds[4];
    int64_t calls[4];
    int64_t ranges;
    int64_t peak_seen;
} rn_ctx;

/* ------------------------------------------------------------------ */
/* memory                                                               */
/* ------------------------------------------------------------------ */

static int64_t grown(int64_t cap, int64_t need)
{
    int64_t next = cap ? cap : 8;
    while (next < need)
        next *= 2;
    return next;
}

static int reserve_list(rn_list *list, int64_t need)
{
    if (need <= list->cap)
        return 0;
    int64_t cap = grown(list->cap, need);
    double *q = realloc(list->q, (size_t)cap * sizeof(double));
    if (!q)
        return ERR_NOMEM;
    list->q = q;
    double *c = realloc(list->c, (size_t)cap * sizeof(double));
    if (!c)
        return ERR_NOMEM;
    list->c = c;
    int64_t *d = realloc(list->d, (size_t)cap * sizeof(int64_t));
    if (!d)
        return ERR_NOMEM;
    list->d = d;
    list->cap = cap;
    return 0;
}

static int reserve_aux(rn_ctx *ctx, int64_t need)
{
    if (need <= ctx->aux_cap)
        return 0;
    int64_t cap = grown(ctx->aux_cap, need);
    int64_t *aux = realloc(ctx->aux, (size_t)cap * sizeof(int64_t));
    if (!aux)
        return ERR_NOMEM;
    ctx->aux = aux;
    ctx->aux_cap = cap;
    return 0;
}

static int reserve_betas(rn_ctx *ctx, int64_t need)
{
    if (need <= ctx->beta_cap)
        return 0;
    int64_t cap = grown(ctx->beta_cap, need);
    void *p;
    if (!(p = realloc(ctx->vq, (size_t)cap * sizeof(double))))
        return ERR_NOMEM;
    ctx->vq = p;
    if (!(p = realloc(ctx->vd, (size_t)cap * sizeof(int64_t))))
        return ERR_NOMEM;
    ctx->vd = p;
    if (!(p = realloc(ctx->vfound, (size_t)cap)))
        return ERR_NOMEM;
    ctx->vfound = p;
    if (!(p = realloc(ctx->bq, (size_t)cap * sizeof(double))))
        return ERR_NOMEM;
    ctx->bq = p;
    if (!(p = realloc(ctx->bc, (size_t)cap * sizeof(double))))
        return ERR_NOMEM;
    ctx->bc = p;
    if (!(p = realloc(ctx->bd, (size_t)cap * sizeof(int64_t))))
        return ERR_NOMEM;
    ctx->bd = p;
    if (!(p = realloc(ctx->bt, (size_t)cap * sizeof(int64_t))))
        return ERR_NOMEM;
    ctx->bt = p;
    ctx->beta_cap = cap;
    return 0;
}

static int reserve_tape(rn_ctx *ctx, int64_t count)
{
    int64_t need = ctx->tape_len + count;
    if (need <= ctx->tape_cap)
        return 0;
    int64_t cap = grown(ctx->tape_cap, need);
    for (int col = 0; col < 4; col++) {
        int64_t *grown_col = realloc(ctx->tape[col], (size_t)cap * sizeof(int64_t));
        if (!grown_col)
            return ERR_NOMEM;
        ctx->tape[col] = grown_col;
    }
    ctx->tape_cap = cap;
    return 0;
}

/* Callers reserve first; returns the new record's index. */
static int64_t tape_put(rn_ctx *ctx, int64_t kind, int64_t a, int64_t b, int64_t c)
{
    int64_t index = ctx->tape_len++;
    ctx->tape[0][index] = kind;
    ctx->tape[1][index] = a;
    ctx->tape[2][index] = b;
    ctx->tape[3][index] = c;
    return index;
}

/* A fresh stack entry (buffers of a previously popped entry are reused). */
static rn_list *push_entry(rn_ctx *ctx, int64_t need)
{
    if (ctx->depth == ctx->stack_cap) {
        int64_t cap = grown(ctx->stack_cap, ctx->depth + 1);
        rn_list *stack = realloc(ctx->stack, (size_t)cap * sizeof(rn_list));
        if (!stack)
            return NULL;
        memset(stack + ctx->stack_cap, 0,
               (size_t)(cap - ctx->stack_cap) * sizeof(rn_list));
        ctx->stack = stack;
        ctx->stack_cap = cap;
    }
    rn_list *entry = &ctx->stack[ctx->depth];
    if (reserve_list(entry, need))
        return NULL;
    ctx->depth++;
    entry->n = 0;
    entry->peak = 0;
    entry->gen = 0;
    return entry;
}

/* Swap the spare buffers into ``entry``, keeping its aggregates. */
static void adopt_spare(rn_ctx *ctx, rn_list *entry, int64_t n)
{
    rn_list old = *entry;
    entry->q = ctx->spare.q;
    entry->c = ctx->spare.c;
    entry->d = ctx->spare.d;
    entry->cap = ctx->spare.cap;
    entry->n = n;
    ctx->spare.q = old.q;
    ctx->spare.c = old.c;
    ctx->spare.d = old.d;
    ctx->spare.cap = old.cap;
}

/* ------------------------------------------------------------------ */
/* the paper's operations                                               */
/* ------------------------------------------------------------------ */

/*
 * Streaming dominance prune (repro.core.pruning.prune_dominated): feed
 * c-sorted candidates one at a time into (oq, oc, od) of current length
 * k; returns the new length.  Among equal-c candidates a strictly better
 * q replaces the kept one; the earliest of equal (q, c) ties survives.
 */
static inline int64_t emit(double *oq, double *oc, int64_t *od, int64_t k,
                           double q, double c, int64_t d)
{
    if (k && c == oc[k - 1] && q > oq[k - 1])
        k--;
    if (!k || q > oq[k - 1]) {
        oq[k] = q;
        oc[k] = c;
        od[k] = d;
        k++;
    }
    return k;
}

/* add wire (repro.core.wire_ops.add_wire), in place. */
static void op_wire(rn_list *list, double resistance, double capacitance)
{
    if (resistance == 0.0 && capacitance == 0.0)
        return;
    double half_wire = capacitance / 2.0;
    double *q = list->q, *c = list->c;
    int64_t *d = list->d;
    int64_t n = list->n, k = 0;
    for (int64_t i = 0; i < n; i++) {
        double qi = q[i] - resistance * (half_wire + c[i]);
        double ci = c[i] + capacitance;
        k = emit(q, c, d, k, qi, ci, d[i]);
    }
    list->n = k;
}

/* merge (repro.core.merge.merge_branches) of the top two entries. */
static int op_merge(rn_ctx *ctx)
{
    if (ctx->depth < 2)
        return ERR_STACK;
    rn_list *left = &ctx->stack[ctx->depth - 2];
    rn_list *right = &ctx->stack[ctx->depth - 1];
    int64_t peak = left->peak > right->peak ? left->peak : right->peak;
    int64_t gen = left->gen + right->gen;
    int64_t nl = left->n, nr = right->n, k = 0;
    if (nl == 0 || nr == 0) {
        /* ``left or right``: the identity on an empty branch. */
        if (nl == 0) {
            rn_list tmp = *left;
            *left = *right;
            *right = tmp;
        }
        ctx->depth--;
        left->peak = peak;
        left->gen = gen + left->n;
        return 0;
    }
    if (reserve_list(&ctx->spare, nl + nr) || reserve_aux(ctx, nl + nr))
        return ERR_NOMEM;
    double *oq = ctx->spare.q, *oc = ctx->spare.c;
    int64_t *od = ctx->spare.d, *rd = ctx->aux;
    const double *lq = left->q, *lc = left->c, *rq = right->q, *rc = right->c;
    int64_t i = 0, j = 0;
    while (i < nl && j < nr) {
        double a = lq[i], b = rq[j];
        /* Python's min(a, b): b only when strictly smaller. */
        double q = b < a ? b : a;
        double c = lc[i] + rc[j];
        if (k && c == oc[k - 1] && q > oq[k - 1])
            k--;
        if (!k || q > oq[k - 1]) {
            oq[k] = q;
            oc[k] = c;
            od[k] = left->d[i];
            rd[k] = right->d[j];
            k++;
        }
        if (a < b)
            i++;
        else if (b < a)
            j++;
        else {
            i++;
            j++;
        }
    }
    if (reserve_tape(ctx, k))
        return ERR_NOMEM;
    for (int64_t s = 0; s < k; s++)
        od[s] = tape_put(ctx, TAPE_MERGE, od[s], rd[s], 0);
    ctx->depth--;
    adopt_spare(ctx, left, k);
    left->peak = peak;
    left->gen = gen + k;
    return 0;
}

/* Min-c argmax of q - R c over the c-sorted prefix with c <= limit. */
static int64_t scan_best(const rn_list *list, double resistance, double limit,
                         double *value)
{
    double best = -INFINITY;
    int64_t arg = -1;
    for (int64_t i = 0; i < list->n; i++) {
        if (list->c[i] > limit)
            break;
        double v = list->q[i] - resistance * list->c[i];
        if (v > best) {
            best = v;
            arg = i;
        }
    }
    *value = best;
    return arg;
}

/*
 * add buffer: convex prune + monotone hull walk (MODE_HULL,
 * MODE_DESTRUCTIVE; repro.core.buffer_ops.generate_fast) or the
 * exhaustive scan (MODE_SCAN; generate_lillis), then the Theorem-2
 * sorted insertion (insert_candidates) into the full list, or into the
 * hull in destructive mode.
 */
static int op_buffer(rn_ctx *ctx, int64_t slot)
{
    if (ctx->depth < 1)
        return ERR_STACK;
    rn_list *top = &ctx->stack[ctx->depth - 1];
    int64_t n = top->n;
    if (n == 0)
        return 0;
    const rn_schedule *s = &ctx->s;
    int64_t kernel = s->plan_kernel[slot];
    int64_t base = s->kernel_off[kernel];
    int64_t b = s->kernel_off[kernel + 1] - base;
    if (reserve_betas(ctx, b))
        return ERR_NOMEM;
    const double *q = top->q, *c = top->c;
    int64_t hull_n = 0;
    int64_t *hull = NULL;

    if (ctx->mode != MODE_SCAN) {
        /* Graham's scan on the pre-sorted points (convex_prune). */
        if (reserve_aux(ctx, n))
            return ERR_NOMEM;
        hull = ctx->aux;
        for (int64_t i = 0; i < n; i++) {
            while (hull_n >= 2) {
                int64_t a1 = hull[hull_n - 2], a2 = hull[hull_n - 1];
                if ((q[a2] - q[a1]) * (c[i] - c[a2])
                    <= (q[i] - q[a2]) * (c[a2] - c[a1]))
                    hull_n--;
                else
                    break;
            }
            hull[hull_n++] = i;
        }
    }

    int64_t pointer = 0;
    for (int64_t t = 0; t < b; t++) {
        int64_t row = base + t;
        double resistance = s->t_r[row];
        double value;
        int64_t best;
        if (ctx->mode == MODE_SCAN || s->t_capped[row]) {
            best = scan_best(top, resistance, s->t_limit[row], &value);
            if (best < 0) {
                ctx->vfound[t] = 0;
                continue;
            }
        } else {
            int64_t last = hull_n - 1;
            best = hull[pointer];
            value = q[best] - resistance * c[best];
            while (pointer < last) {
                int64_t next = hull[pointer + 1];
                double next_value = q[next] - resistance * c[next];
                if (next_value <= value)
                    break;
                pointer++;
                best = next;
                value = next_value;
            }
        }
        ctx->vfound[t] = 1;
        ctx->vq[t] = value - s->t_k[row];
        ctx->vd[t] = top->d[best];
    }

    /* Betas in non-decreasing C_in order, dominance-pruned. */
    int64_t nb = 0;
    const int64_t *order = s->t_cap_order + base;
    for (int64_t j = 0; j < b; j++) {
        int64_t t = order[j];
        if (!ctx->vfound[t])
            continue;
        double bq = ctx->vq[t], bc = s->t_cin[base + t];
        if (nb && bc == ctx->bc[nb - 1] && bq > ctx->bq[nb - 1])
            nb--;
        if (!nb || bq > ctx->bq[nb - 1]) {
            ctx->bq[nb] = bq;
            ctx->bc[nb] = bc;
            ctx->bd[nb] = ctx->vd[t];
            ctx->bt[nb] = t;
            nb++;
        }
    }
    if (reserve_tape(ctx, nb))
        return ERR_NOMEM;
    for (int64_t j = 0; j < nb; j++)
        ctx->bd[j] = tape_put(ctx, TAPE_BUFFER, ctx->bd[j], ctx->bt[j], slot);

    int destructive = ctx->mode == MODE_DESTRUCTIVE;
    int64_t m = destructive ? hull_n : n;
    if (nb == 0) {
        if (destructive && hull_n != n) {
            /* The hull replaces the list (in place: hull[i] >= i). */
            for (int64_t i = 0; i < hull_n; i++) {
                int64_t h = hull[i];
                top->q[i] = top->q[h];
                top->c[i] = top->c[h];
                top->d[i] = top->d[h];
            }
            top->n = hull_n;
        }
        return 0;
    }
    if (reserve_list(&ctx->spare, m + nb))
        return ERR_NOMEM;
    double *oq = ctx->spare.q, *oc = ctx->spare.c;
    int64_t *od = ctx->spare.d;
    int64_t i = 0, j = 0, k = 0;
    while (i < m && j < nb) {
        int64_t at = destructive ? hull[i] : i;
        if (c[at] <= ctx->bc[j]) {
            k = emit(oq, oc, od, k, q[at], c[at], top->d[at]);
            i++;
        } else {
            k = emit(oq, oc, od, k, ctx->bq[j], ctx->bc[j], ctx->bd[j]);
            j++;
        }
    }
    for (; i < m; i++) {
        int64_t at = destructive ? hull[i] : i;
        k = emit(oq, oc, od, k, q[at], c[at], top->d[at]);
    }
    for (; j < nb; j++)
        k = emit(oq, oc, od, k, ctx->bq[j], ctx->bc[j], ctx->bd[j]);
    adopt_spare(ctx, top, k);
    return 0;
}

/* Append the top entry to the capture arena. */
static int keep_top(rn_ctx *ctx)
{
    rn_list *top = &ctx->stack[ctx->depth - 1];
    int64_t k = ctx->capture_next, offset = ctx->kept.n;
    if (reserve_list(&ctx->kept, offset + top->n))
        return ERR_NOMEM;
    if (4 * (k + 1) > ctx->kept_meta_cap) {
        int64_t cap = grown(ctx->kept_meta_cap, 4 * (k + 1));
        int64_t *meta = realloc(ctx->kept_meta, (size_t)cap * sizeof(int64_t));
        if (!meta)
            return ERR_NOMEM;
        ctx->kept_meta = meta;
        ctx->kept_meta_cap = cap;
    }
    memcpy(ctx->kept.q + offset, top->q, (size_t)top->n * sizeof(double));
    memcpy(ctx->kept.c + offset, top->c, (size_t)top->n * sizeof(double));
    memcpy(ctx->kept.d + offset, top->d, (size_t)top->n * sizeof(int64_t));
    ctx->kept.n = offset + top->n;
    ctx->kept_meta[4 * k] = offset;
    ctx->kept_meta[4 * k + 1] = top->n;
    ctx->kept_meta[4 * k + 2] = top->peak;
    ctx->kept_meta[4 * k + 3] = top->gen;
    ctx->capture_next = k + 1;
    return 0;
}

static double now_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* ------------------------------------------------------------------ */
/* exported API (bound by repro.core.native through ctypes)             */
/* ------------------------------------------------------------------ */

void *rn_new(void)
{
    return calloc(1, sizeof(rn_ctx));
}

void rn_free(void *handle)
{
    rn_ctx *ctx = handle;
    if (!ctx)
        return;
    for (int64_t i = 0; i < ctx->stack_cap; i++) {
        free(ctx->stack[i].q);
        free(ctx->stack[i].c);
        free(ctx->stack[i].d);
    }
    free(ctx->stack);
    free(ctx->spare.q);
    free(ctx->spare.c);
    free(ctx->spare.d);
    free(ctx->aux);
    free(ctx->kept.q);
    free(ctx->kept.c);
    free(ctx->kept.d);
    free(ctx->kept_meta);
    free(ctx->vq);
    free(ctx->vd);
    free(ctx->vfound);
    free(ctx->bq);
    free(ctx->bc);
    free(ctx->bd);
    free(ctx->bt);
    for (int col = 0; col < 4; col++)
        free(ctx->tape[col]);
    free(ctx);
}

/*
 * Check that every index the executor will follow stays inside the
 * schedule's arrays: instruction arguments against the wire, sink and
 * plan counts, plan kernels against the kernel table, kernel offsets and
 * cap orders against the type rows.  Returns 0 or ERR_BOUNDS.
 */
int rn_check(const uint8_t *ops, const int64_t *args, int64_t n_ops,
             int64_t n_wires, int64_t n_sinks, int64_t n_plans,
             const int64_t *plan_kernel, const int64_t *kernel_off,
             int64_t n_kernels, int64_t n_types, const int64_t *t_cap_order)
{
    for (int64_t i = 0; i < n_ops; i++) {
        int code = ops[i] & 3;
        int64_t limit = code == OP_WIRE ? n_wires
                      : code == OP_SINK ? n_sinks
                      : code == OP_BUFFER ? n_plans : 1;
        if (ops[i] > (OP_FINAL | 3) || args[i] < 0 || args[i] >= limit)
            return ERR_BOUNDS;
    }
    for (int64_t p = 0; p < n_plans; p++)
        if (plan_kernel[p] < 0 || plan_kernel[p] >= n_kernels)
            return ERR_BOUNDS;
    if (kernel_off[0] != 0 || kernel_off[n_kernels] != n_types)
        return ERR_BOUNDS;
    for (int64_t k = 0; k < n_kernels; k++) {
        int64_t base = kernel_off[k], size = kernel_off[k + 1] - base;
        if (size < 0)
            return ERR_BOUNDS;
        for (int64_t t = 0; t < size; t++)
            if (t_cap_order[base + t] < 0 || t_cap_order[base + t] >= size)
                return ERR_BOUNDS;
    }
    return 0;
}

/* Point the context at a schedule; the arrays must outlive its use. */
void rn_bind(void *handle, const uint8_t *ops, const int64_t *args,
             int64_t n_ops, const double *wire_r, const double *wire_c,
             const int64_t *sink_node, const double *sink_q,
             const double *sink_c, const int64_t *plan_kernel,
             const int64_t *kernel_off, const double *t_r,
             const double *t_cin, const double *t_k, const double *t_limit,
             const uint8_t *t_capped, const int64_t *t_cap_order)
{
    rn_ctx *ctx = handle;
    rn_schedule *s = &ctx->s;
    s->ops = ops;
    s->args = args;
    s->n_ops = n_ops;
    s->wire_r = wire_r;
    s->wire_c = wire_c;
    s->sink_node = sink_node;
    s->sink_q = sink_q;
    s->sink_c = sink_c;
    s->plan_kernel = plan_kernel;
    s->kernel_off = kernel_off;
    s->t_r = t_r;
    s->t_cin = t_cin;
    s->t_k = t_k;
    s->t_limit = t_limit;
    s->t_capped = t_capped;
    s->t_cap_order = t_cap_order;
}

/*
 * Start a solve: empty stack, rewound tape, zeroed counters.  After each
 * instruction listed in ``capture_at`` (sorted; borrowed until the next
 * rn_begin) the top frontier is copied to the capture arena.
 */
void rn_begin(void *handle, int mode, int profile, const int64_t *capture_at,
              int64_t capture_count)
{
    rn_ctx *ctx = handle;
    ctx->mode = mode;
    ctx->profile = profile;
    ctx->capture_at = capture_at;
    ctx->capture_count = capture_count;
    ctx->capture_next = 0;
    ctx->kept.n = 0;
    ctx->depth = 0;
    ctx->tape_len = 0;
    ctx->ranges = 0;
    ctx->peak_seen = 0;
    for (int op = 0; op < 4; op++) {
        ctx->seconds[op] = 0.0;
        ctx->calls[op] = 0;
    }
}

/*
 * Execute instructions [start, stop), returning early after the
 * ``max_finals``-th node boundary (OP_FINAL).  Returns the index of the
 * next instruction to run, or a negative error code.
 */
int64_t rn_run(void *handle, int64_t start, int64_t stop, int64_t max_finals)
{
    rn_ctx *ctx = handle;
    const rn_schedule *s = &ctx->s;
    if (start < 0 || stop > s->n_ops)
        return ERR_BOUNDS;
    int64_t finals = 0;
    for (int64_t i = start; i < stop; i++) {
        uint8_t op = s->ops[i];
        int code = op & 3;
        int64_t arg = s->args[i];
        double t0 = ctx->profile ? now_seconds() : 0.0;
        int status = 0;
        if (code == OP_WIRE) {
            if (ctx->depth < 1)
                return ERR_STACK;
            op_wire(&ctx->stack[ctx->depth - 1], s->wire_r[arg], s->wire_c[arg]);
        } else if (code == OP_SINK) {
            if (reserve_tape(ctx, 1))
                return ERR_NOMEM;
            rn_list *entry = push_entry(ctx, 1);
            if (!entry)
                return ERR_NOMEM;
            entry->q[0] = s->sink_q[arg];
            entry->c[0] = s->sink_c[arg];
            entry->d[0] = tape_put(ctx, TAPE_SINK, s->sink_node[arg], 0, 0);
            entry->n = 1;
            entry->gen = 1;
        } else if (code == OP_MERGE) {
            status = op_merge(ctx);
        } else {
            rn_list *top = ctx->depth ? &ctx->stack[ctx->depth - 1] : NULL;
            int64_t before = top ? top->n : 0;
            status = op_buffer(ctx, arg);
            if (!status && top->n > before)
                top->gen += top->n - before;
        }
        if (status)
            return status;
        if (ctx->profile) {
            ctx->seconds[code] += now_seconds() - t0;
            ctx->calls[code]++;
        }
        if (op & OP_FINAL) {
            rn_list *top = &ctx->stack[ctx->depth - 1];
            if (top->n > top->peak)
                top->peak = top->n;
            if (top->n > ctx->peak_seen)
                ctx->peak_seen = top->n;
            ctx->ranges++;
            if (ctx->capture_next < ctx->capture_count
                && ctx->capture_at[ctx->capture_next] == i && keep_top(ctx))
                return ERR_NOMEM;
            if (++finals == max_finals)
                return i + 1;
        }
    }
    return stop;
}

/* info <- (captures, candidates kept over all captures). */
void rn_captures(void *handle, int64_t *info)
{
    rn_ctx *ctx = handle;
    info[0] = ctx->capture_next;
    info[1] = ctx->kept.n;
}

/* Copy the capture arena out: q, c, d columns and the meta rows
 * (offset, length, peak, gen) per capture (sized from rn_captures). */
void rn_copy_captures(void *handle, double *q, double *c, int64_t *d,
                      int64_t *meta)
{
    rn_ctx *ctx = handle;
    memcpy(q, ctx->kept.q, (size_t)ctx->kept.n * sizeof(double));
    memcpy(c, ctx->kept.c, (size_t)ctx->kept.n * sizeof(double));
    memcpy(d, ctx->kept.d, (size_t)ctx->kept.n * sizeof(int64_t));
    memcpy(meta, ctx->kept_meta,
           (size_t)ctx->capture_next * 4 * sizeof(int64_t));
}

/* Push a memoized frontier; its records point at splice slots. */
int rn_push(void *handle, int64_t n, const double *q, const double *c,
            int64_t splice_base, int64_t peak, int64_t gen)
{
    rn_ctx *ctx = handle;
    if (reserve_tape(ctx, n))
        return ERR_NOMEM;
    rn_list *entry = push_entry(ctx, n);
    if (!entry)
        return ERR_NOMEM;
    for (int64_t i = 0; i < n; i++) {
        entry->q[i] = q[i];
        entry->c[i] = c[i];
        entry->d[i] = tape_put(ctx, TAPE_SPLICE, splice_base + i, 0, 0);
    }
    entry->n = n;
    entry->peak = peak;
    entry->gen = gen;
    return 0;
}

/* info <- (depth, top length, top peak, top generated, tape length). */
void rn_info(void *handle, int64_t *info)
{
    rn_ctx *ctx = handle;
    rn_list *top = ctx->depth ? &ctx->stack[ctx->depth - 1] : NULL;
    info[0] = ctx->depth;
    info[1] = top ? top->n : 0;
    info[2] = top ? top->peak : 0;
    info[3] = top ? top->gen : 0;
    info[4] = ctx->tape_len;
}

/*
 * Root evaluation (best_candidate_for_driver): the min-c argmax of
 * q - R c over the top entry.  Writes (q, c) and the tape index; returns
 * the candidate index, or -1 when the list is empty.
 */
int64_t rn_best(void *handle, double resistance, double *qc, int64_t *record)
{
    rn_ctx *ctx = handle;
    if (ctx->depth < 1)
        return ERR_STACK;
    rn_list *top = &ctx->stack[ctx->depth - 1];
    double best = -INFINITY;
    int64_t arg = -1;
    for (int64_t i = 0; i < top->n; i++) {
        double v = top->q[i] - resistance * top->c[i];
        if (v > best) {
            best = v;
            arg = i;
        }
    }
    if (arg >= 0) {
        qc[0] = top->q[arg];
        qc[1] = top->c[arg];
        *record = top->d[arg];
    }
    return arg;
}

/*
 * Backtrace the record at ``index`` of a tape in columns (kind, a, b, c):
 * BUFFER records go to (plan_out, type_out), SPLICE slots to splice_out.
 * counts <- (buffers, splices).  Returns 0, ERR_BOUNDS on a record index
 * outside the tape, or ERR_FULL when an output is too small.  Works on
 * live tapes and on archived copies (repro.core.stores.soa.TapeArchive)
 * alike.
 */
int rn_walk(const int64_t *kind, const int64_t *a, const int64_t *b,
            const int64_t *c, int64_t length, int64_t index,
            int64_t *plan_out, int64_t *type_out, int64_t buffer_cap,
            int64_t *splice_out, int64_t splice_cap, int64_t *counts)
{
    int64_t pending_cap = 64, top = 0, buffers = 0, splices = 0;
    int64_t *pending = malloc((size_t)pending_cap * sizeof(int64_t));
    if (!pending)
        return ERR_NOMEM;
    pending[top++] = index;
    int status = 0;
    while (top) {
        int64_t i = pending[--top];
        if (i < 0 || i >= length) {
            status = ERR_BOUNDS;
            break;
        }
        if (top + 2 > pending_cap) {
            pending_cap *= 2;
            int64_t *more = realloc(pending, (size_t)pending_cap * sizeof(int64_t));
            if (!more) {
                status = ERR_NOMEM;
                break;
            }
            pending = more;
        }
        if (kind[i] == TAPE_BUFFER) {
            if (buffers == buffer_cap) {
                status = ERR_FULL;
                break;
            }
            plan_out[buffers] = c[i];
            type_out[buffers] = b[i];
            buffers++;
            pending[top++] = a[i];
        } else if (kind[i] == TAPE_MERGE) {
            pending[top++] = a[i];
            pending[top++] = b[i];
        } else if (kind[i] == TAPE_SPLICE) {
            if (splices == splice_cap) {
                status = ERR_FULL;
                break;
            }
            splice_out[splices++] = a[i];
        }
    }
    free(pending);
    counts[0] = buffers;
    counts[1] = splices;
    return status;
}

int rn_backtrace(void *handle, int64_t index, int64_t *plan_out,
                 int64_t *type_out, int64_t buffer_cap, int64_t *splice_out,
                 int64_t splice_cap, int64_t *counts)
{
    rn_ctx *ctx = handle;
    return rn_walk(ctx->tape[0], ctx->tape[1], ctx->tape[2], ctx->tape[3],
                   ctx->tape_len, index, plan_out, type_out, buffer_cap,
                   splice_out, splice_cap, counts);
}

/*
 * Shrink the tape to the records reachable from the captured frontiers,
 * in place, renumbering MERGE/BUFFER links, the captured tape indices
 * and the splice slots of reachable SPLICE records (the old slot of new
 * slot j goes to slots_out[j]).  Only the capture arena refers to the
 * tape afterwards, so call it once the solve's own backtrace is done.
 * info <- (tape length, splice slots kept).
 */
int rn_compact(void *handle, int64_t *slots_out, int64_t slots_cap,
               int64_t *info)
{
    rn_ctx *ctx = handle;
    int64_t length = ctx->tape_len;
    int64_t *kind = ctx->tape[0], *a = ctx->tape[1], *b = ctx->tape[2],
            *c = ctx->tape[3];
    if (reserve_aux(ctx, 2 * length))
        return ERR_NOMEM;
    int64_t *remap = ctx->aux, *stack = ctx->aux + length, top = 0;
    for (int64_t i = 0; i < length; i++)
        remap[i] = -1;
    /* Mark (remap 0) on push, so each record is pushed at most once. */
#define VISIT(x)                                   \
    do {                                           \
        int64_t at = (x);                          \
        if (at < 0 || at >= length)                \
            return ERR_BOUNDS;                     \
        if (remap[at]) {                           \
            remap[at] = 0;                         \
            stack[top++] = at;                     \
        }                                          \
    } while (0)
    for (int64_t k = 0; k < ctx->kept.n; k++) {
        VISIT(ctx->kept.d[k]);
        while (top) {
            int64_t i = stack[--top];
            if (kind[i] == TAPE_MERGE) {
                VISIT(a[i]);
                VISIT(b[i]);
            } else if (kind[i] == TAPE_BUFFER) {
                VISIT(a[i]);
            }
        }
    }
#undef VISIT
    int64_t kept = 0, slots = 0;
    for (int64_t i = 0; i < length; i++) {
        if (remap[i] < 0)
            continue;
        remap[i] = kept;
        int64_t ra = a[i], rb = b[i];
        if (kind[i] == TAPE_MERGE) {
            ra = remap[ra];
            rb = remap[rb];
        } else if (kind[i] == TAPE_BUFFER) {
            ra = remap[ra];
        } else if (kind[i] == TAPE_SPLICE) {
            if (slots == slots_cap)
                return ERR_FULL;
            slots_out[slots] = ra;
            ra = slots++;
        }
        kind[kept] = kind[i];
        a[kept] = ra;
        b[kept] = rb;
        c[kept] = c[i];
        kept++;
    }
    for (int64_t k = 0; k < ctx->kept.n; k++)
        ctx->kept.d[k] = remap[ctx->kept.d[k]];
    ctx->tape_len = kept;
    info[0] = kept;
    info[1] = slots;
    return 0;
}

/* Copy the tape's four columns, back to back, into ``out``. */
void rn_copy_tape(void *handle, int64_t *out)
{
    rn_ctx *ctx = handle;
    for (int col = 0; col < 4; col++)
        memcpy(out + col * ctx->tape_len, ctx->tape[col],
               (size_t)ctx->tape_len * sizeof(int64_t));
}

/* Profiler counters: seconds[4], calls[4], (ranges, peak). */
void rn_counters(void *handle, double *seconds, int64_t *calls, int64_t *misc)
{
    rn_ctx *ctx = handle;
    for (int op = 0; op < 4; op++) {
        seconds[op] = ctx->seconds[op];
        calls[op] = ctx->calls[op];
        ctx->seconds[op] = 0.0;
        ctx->calls[op] = 0;
    }
    misc[0] = ctx->ranges;
    misc[1] = ctx->peak_seen;
    ctx->ranges = 0;
}
