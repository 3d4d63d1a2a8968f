/*
 * Compiled twin of edgeind._kernels_py: ordered induced-copy search, the
 * canonical-labelling search core, the one-edge growth of a search level
 * and the entropy sums.  One adjacency row fits in one machine word, so a
 * graph has at most 64 vertices here.  The pure module states the
 * contract; both must return identical results, down to the order of
 * subcells in a refinement and the order of sibling branches, because
 * canonical labels are CLI output and cache keys.
 *
 * Every entry answers NotImplemented for an input its word cannot hold,
 * and edgeind.kernels then asks the pure twin: more than 64 host rows or
 * graph6 vertices, a growth parent above 62 (``seen`` is left untouched),
 * or an entropy key that is not an int or a tuple of ints in the signed
 * 64-bit range.  Malformed input raises ValueError on both twins; an
 * ordered count past 64 bits raises OverflowError here.
 *
 * The labelling follows individualisation-refinement (McKay and Piperno,
 * "Practical graph isomorphism, II", JSC 2014) with the pure module's
 * refinement rule and automorphism pruning: a sibling in the orbit of the
 * explored ones, under the generators that fix the path, is skipped, and
 * a leaf whose certificate equals the first or the best leaf's abandons
 * the subtree where the two paths part, the automorphism's image of an
 * explored one.  The generators found that way generate the automorphism
 * group.  Two things are C only and change no output: refine() counts
 * neighbours only into the cells that changed since the parent's
 * equitable partition, and each generator keeps the mask of the vertices
 * it moves, so the test "fixes the path" is one AND.
 *
 * The growth entry labels the parent for its automorphism generators and
 * then one extension per orbit, where the pure twin labels every
 * extension; a skipped extension is isomorphic to an earlier one, so both
 * return the same list.  The level entries, children() and
 * count_ordered_many(), take graph6 labels.
 *
 * The entropy entries, entropy(), cond_entropy(), mean_log() and
 * distinct_counts(), take columns of keys.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define WORD 64
#define BIT(v) ((u64)1 << (v))

static inline int popcount(u64 x) { return __builtin_popcountll(x); }
static inline int lowest(u64 x) { return __builtin_ctzll(x); }

/* A reader's answer besides a size: FAILED with an exception set, or
   NOT_HELD, with none, for more vertices than the entry holds. */
enum { FAILED = -1, NOT_HELD = -2 };

/* Read a sequence of bitmask rows into out[]; a row may mention only
   vertices below the row count.  Returns the row count, NOT_HELD for more
   than WORD rows, or FAILED. */
static Py_ssize_t
read_rows(PyObject *seq, u64 *out, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "adjacency rows must be a sequence");
    if (fast == NULL)
        return FAILED;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n > WORD) {
        Py_DECREF(fast);
        return NOT_HELD;
    }
    u64 outside = n == WORD ? 0 : ~(BIT(n) - 1);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 row = PyLong_AsUnsignedLongLong(items[i]);
        if (row == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return FAILED;
        }
        if (row & outside) {
            PyErr_Format(PyExc_ValueError, "%s row %zd mentions a vertex >= %zd", what, i, n);
            Py_DECREF(fast);
            return FAILED;
        }
        out[i] = row;
    }
    Py_DECREF(fast);
    return n;
}

/* Read a sequence of at most ``cap`` integers in 0..bound-1. */
static Py_ssize_t
read_indices(PyObject *seq, int *out, Py_ssize_t cap, Py_ssize_t bound, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "indices must be a sequence");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n > cap) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries; at most %zd allowed", what, n, cap);
        Py_DECREF(fast);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t x = PyLong_AsSsize_t(items[i]);
        if (x == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (x < 0 || x >= bound) {
            PyErr_Format(PyExc_IndexError, "%s entry %zd is outside 0..%zd", what, x, bound - 1);
            Py_DECREF(fast);
            return -1;
        }
        out[i] = (int)x;
    }
    Py_DECREF(fast);
    return n;
}

/* Read the graph6 label ``obj``, the strict inverse of graph6(): no header
   line or newline, zero padding bits.  Returns the vertex count, read from
   the header first, or NOT_HELD when it exceeds ``max_n``; the rows go to
   out[] only when there are at least ``min_n``.  FAILED, with ValueError
   set, for a malformed label. */
static int
read_graph6(PyObject *obj, u64 *out, int min_n, int max_n)
{
    Py_ssize_t len, i;
    const unsigned char *s = (const unsigned char *)PyUnicode_AsUTF8AndSize(obj, &len);
    if (s == NULL)
        return FAILED;
    int body = len && s[0] == 126 ? 4 : 1, n = 0, v = 1, first = 0;
    for (i = body > 1; i < body && i < len && s[i] - 63u < 64; i++)
        n = n << 6 | (s[i] - 63);
    if (i == body && n > max_n)
        return NOT_HELD;
    Py_ssize_t pad = 6 * (len - body) - n * (n - 1) / 2;
    if (i < body || pad < 0 || pad > 5)
        goto bad;
    if (n < min_n)
        return n;
    memset(out, 0, n * sizeof(u64));
    for (i = body; i < len; i++) {
        if (s[i] - 63u > 63 || (i == len - 1 && (s[i] - 63) & ((1 << pad) - 1)))
            goto bad; /* outside ?..~, or a padding bit set */
        /* bit t, met in increasing order, is row t - first of column v,
           which starts at bit first = v(v-1)/2 */
        for (unsigned x = s[i] - 63, k; x; x ^= 32u >> k) {
            k = __builtin_clz(x) - 26;
            int t = 6 * (int)(i - body) + (int)k;
            while (first + v <= t)
                first += v++;
            out[t - first] |= BIT(v);
            out[v] |= BIT(t - first);
        }
    }
    return n;
bad:
    PyErr_Format(PyExc_ValueError, "malformed graph6 label %R", obj);
    return FAILED;
}

/* -- ordered induced-copy search ------------------------------------------ */

typedef struct {
    int k;
    int order[WORD];
    int placed[WORD];
    int need[WORD];     /* pattern degree of step i */
    u64 g_adj[WORD];
    u64 comp[WORD];
    u64 deg_ok[WORD];   /* hosts of high enough degree for step i */
    u64 nbr_mask[WORD]; /* earlier steps adjacent to step i in the pattern */
    u64 non_mask[WORD]; /* earlier steps not adjacent to it */
    int failed;         /* a count past 64 bits or a failed append */
    PyObject *out;      /* the list that receives each copy, NULL when counting */
} Ctx;

enum { NO_COPY = -3 }; /* besides FAILED and NOT_HELD */

/* The pattern half of a search: read the k pattern rows and the order, and
   fill the step masks and degrees.  Returns 0, or -1 with an exception
   set.  The callers hold a host of at least k rows, so k <= WORD. */
static int
prepare_pattern(Ctx *ctx, PyObject *h_obj, PyObject *order_obj, Py_ssize_t k)
{
    u64 h_adj[WORD];
    if (read_rows(h_obj, h_adj, "pattern") < 0)
        return -1;
    Py_ssize_t len = read_indices(order_obj, ctx->order, k, k, "order");
    if (len < 0)
        return -1;
    if (len != k) {
        PyErr_SetString(PyExc_ValueError, "order must list every pattern vertex");
        return -1;
    }
    ctx->k = (int)k;
    for (int i = 0; i < k; i++) {
        u64 row = h_adj[ctx->order[i]];
        ctx->nbr_mask[i] = ctx->non_mask[i] = 0;
        for (int j = 0; j < i; j++) {
            if (row >> ctx->order[j] & 1)
                ctx->nbr_mask[i] |= BIT(j);
            else
                ctx->non_mask[i] |= BIT(j);
        }
        ctx->need[i] = popcount(row);
    }
    return 0;
}

/* The host half: the complements of the n host rows in ctx->g_adj and the
   degree floor of each step of the prepared pattern. */
static void
fill_host(Ctx *ctx, int n)
{
    u64 full = n == WORD ? ~(u64)0 : BIT(n) - 1;
    int g_deg[WORD];
    for (int v = 0; v < n; v++) {
        ctx->comp[v] = full & ~ctx->g_adj[v];
        g_deg[v] = popcount(ctx->g_adj[v]);
    }
    for (int i = 0; i < ctx->k; i++) {
        ctx->deg_ok[i] = 0;
        for (int v = 0; v < n; v++)
            if (g_deg[v] >= ctx->need[i])
                ctx->deg_ok[i] |= BIT(v);
    }
}

/* Fill ctx and seed the pins.  Returns the first free step (0 == k for an
   empty pattern, whose host rows are not read), NO_COPY when the host is
   smaller than the pattern or the pins repeat a host or contradict the
   pattern, NOT_HELD for a host of more than WORD rows, or FAILED with an
   exception set.  ``*used`` receives the pinned hosts. */
static int
prepare(Ctx *ctx, PyObject *g_obj, PyObject *h_obj, PyObject *order_obj, PyObject *pins_obj,
        u64 *used)
{
    int pins[WORD];
    Py_ssize_t k = PySequence_Size(h_obj);
    Py_ssize_t n = PySequence_Size(g_obj);
    *used = 0;
    ctx->k = 0;
    if (k < 0 || n < 0)
        return FAILED;
    if (n < k)
        return NO_COPY;
    if (k == 0)
        return 0;
    Py_ssize_t rows = read_rows(g_obj, ctx->g_adj, "host");
    if (rows < 0)
        return (int)rows;
    if (prepare_pattern(ctx, h_obj, order_obj, k) < 0)
        return FAILED;
    fill_host(ctx, (int)n);
    Py_ssize_t npins = read_indices(pins_obj, pins, k, n, "pin hosts");
    if (npins < 0)
        return FAILED;
    for (int i = 0; i < npins; i++) {
        int v = pins[i];
        if (*used >> v & 1)
            return NO_COPY;
        for (int j = 0; j < i; j++)
            if ((ctx->nbr_mask[i] >> j & 1) != (ctx->g_adj[v] >> pins[j] & 1))
                return NO_COPY;
        ctx->placed[i] = v;
        *used |= BIT(v);
    }
    return (int)npins;
}

static inline u64
candidates(const Ctx *ctx, int i, u64 used)
{
    u64 cand = ctx->deg_ok[i] & ~used;
    for (u64 mm = ctx->nbr_mask[i]; mm; mm &= mm - 1)
        cand &= ctx->g_adj[ctx->placed[lowest(mm)]];
    for (u64 mm = ctx->non_mask[i]; mm; mm &= mm - 1)
        cand &= ctx->comp[ctx->placed[lowest(mm)]];
    return cand;
}

static int
emit(Ctx *ctx)
{
    PyObject *copy = PyTuple_New(ctx->k);
    if (copy == NULL)
        return -1;
    for (int i = 0; i < ctx->k; i++) {
        PyObject *v = PyLong_FromLong(ctx->placed[i]);
        if (v == NULL) {
            Py_DECREF(copy);
            return -1;
        }
        PyTuple_SET_ITEM(copy, ctx->order[i], v);
    }
    int rc = PyList_Append(ctx->out, copy);
    Py_DECREF(copy);
    return rc;
}

/* The one copy search: the number of ordered copies that extend the steps
   placed before step i, each appended to ctx->out when that is a list.
   When counting, the last step is one popcount.  A count past 64 bits or
   a failed append sets ctx->failed, which stops the search; only the
   append leaves an exception set. */
static unsigned long long
copies(Ctx *ctx, int i, u64 used)
{
    if (i == ctx->k) {
        if (ctx->out && emit(ctx) < 0)
            ctx->failed = 1;
        return 1;
    }
    u64 cand = candidates(ctx, i, used);
    if (i == ctx->k - 1 && !ctx->out)
        return (unsigned long long)popcount(cand);
    unsigned long long total = 0;
    for (; cand && !ctx->failed; cand &= cand - 1) {
        ctx->placed[i] = lowest(cand);
        if (__builtin_add_overflow(total, copies(ctx, i + 1, used | (cand & -cand)), &total))
            ctx->failed = 1;
    }
    return total;
}

static int
check_nargs(Py_ssize_t nargs, Py_ssize_t want, const char *name)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

/* The ordered copies in the prepared host that extend the first ``start``
   placed steps: their number as a Python int, or, when ``out`` is a list,
   that list with each copy appended.  NULL with an exception set when the
   count exceeds 64 bits (OverflowError) or an append fails. */
static PyObject *
count_from(Ctx *ctx, int start, u64 used, PyObject *out)
{
    ctx->failed = 0;
    ctx->out = out;
    unsigned long long total = copies(ctx, start, used);
    if (ctx->failed) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_OverflowError, "ordered copy count exceeds 64 bits");
        return NULL;
    }
    return out ? Py_NewRef(out) : PyLong_FromUnsignedLongLong(total);
}

static PyObject *
count_ordered(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Ctx ctx;
    u64 used;
    if (check_nargs(nargs, 4, "count_ordered") < 0)
        return NULL;
    int start = prepare(&ctx, args[0], args[1], args[2], args[3], &used);
    if (start == FAILED || start == NOT_HELD)
        return start == NOT_HELD ? Py_NewRef(Py_NotImplemented) : NULL;
    if (start == NO_COPY)
        return PyLong_FromLong(0);
    return count_from(&ctx, start, used, NULL);
}

/* count_ordered(g_adj, h_adj, order, ()) for the host each graph6 label
   encodes, in one call, or NotImplemented when a host has more than WORD
   vertices.  A host is decoded into the context only when it is at least
   as large as the pattern, and the pattern and the order are read once,
   when the first such host needs them. */
static PyObject *
count_ordered_many(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Ctx ctx;
    if (check_nargs(nargs, 3, "count_ordered_many") < 0)
        return NULL;
    Py_ssize_t k = PySequence_Size(args[1]);
    if (k < 0)
        return NULL;
    PyObject *labels = PySequence_Fast(args[0], "labels must be a sequence");
    if (labels == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(labels);
    PyObject **items = PySequence_Fast_ITEMS(labels);
    PyObject *out = PyList_New(count), *result = NULL;
    int ready = 0;
    if (out == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        int n = read_graph6(items[i], ctx.g_adj, k ? (int)k : WORD + 1, WORD);
        PyObject *c;
        if (n == NOT_HELD)
            result = Py_NewRef(Py_NotImplemented);
        if (n < 0)
            goto done;
        if (k == 0 || n < k)
            c = PyLong_FromLong(k == 0);
        else {
            if (!ready && prepare_pattern(&ctx, args[1], args[2], k) < 0)
                goto done;
            ready = 1;
            fill_host(&ctx, n);
            c = count_from(&ctx, 0, 0, NULL);
        }
        if (c == NULL)
            goto done;
        PyList_SET_ITEM(out, i, c);
    }
    result = Py_NewRef(out);
done:
    Py_XDECREF(out);
    Py_DECREF(labels);
    return result;
}

static PyObject *
enumerate_ordered(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Ctx ctx;
    u64 used;
    if (check_nargs(nargs, 4, "enumerate_ordered") < 0)
        return NULL;
    int start = prepare(&ctx, args[0], args[1], args[2], args[3], &used);
    if (start == FAILED || start == NOT_HELD)
        return start == NOT_HELD ? Py_NewRef(Py_NotImplemented) : NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL || start == NO_COPY)
        return out;
    PyObject *result = count_from(&ctx, start, used, out);
    Py_DECREF(out);
    return result;
}

/* -- canonical labelling ---------------------------------------------------- */

/* An ordered partition: cell c is lab[start[c] .. start[c + 1]). */
typedef struct {
    int ncells;
    uint8_t lab[WORD];
    uint8_t start[WORD + 1];
} Part;

/* A generator is a WORD-byte image array, zero past n, so that memcmp
   over it orders generators like tuples, and the mask of the vertices it
   moves, so that "fixes every vertex of a set" is one AND. */
typedef struct {
    uint8_t img[WORD];
    u64 moved;
} Gen;

typedef struct {
    int n;
    u64 adj[WORD];
    int first_depth, best_depth; /* -1 before the first leaf */
    u64 first_cert[WORD], best_cert[WORD];
    uint8_t first_perm[WORD], best_perm[WORD];
    uint8_t first_path[WORD], best_path[WORD]; /* the vertices individualised */
    Gen *gens;          /* sorted by image, without duplicates */
    Py_ssize_t ngens, cap;
} Canon;

/* Split the first cell whose vertices differ in their neighbour counts
   into the cells of the current partition; subcells go in the order of
   their count signatures and keep the cell's vertex order (a stable sort).
   Repeat from the first cell until no cell splits.  Only the counts into
   the "dirty" cells of the bitmask ``dirty`` are taken.  The caller
   promises that every other column either is constant on each cell or,
   as for the rest of an individualised vertex's old cell, is fixed on a
   cell by an earlier dirty column; such a column never splits a cell or
   orders its subcells, so the splits and their order are those of the
   full count.  The subcells of a split cell become dirty. */
static void
refine(const u64 *adj, Part *p, u64 dirty)
{
    u64 mask[WORD];
    uint8_t key[WORD][WORD];
    uint8_t idx[WORD], seg[WORD], cuts[WORD];
    for (;;) {
        int nc = p->ncells, nd = 0, ci;
        for (u64 d = dirty; d; d &= d - 1) {
            int c = lowest(d);
            u64 m = 0;
            for (int i = p->start[c]; i < p->start[c + 1]; i++)
                m |= BIT(p->lab[i]);
            mask[nd++] = m;
        }
        for (ci = 0; ci < nc; ci++) {
            int s = p->start[ci], len = p->start[ci + 1] - s, differ = 0;
            if (len == 1)
                continue;
            for (int i = 0; i < len; i++) {
                u64 row = adj[p->lab[s + i]];
                for (int c = 0; c < nd; c++)
                    key[i][c] = (uint8_t)popcount(row & mask[c]);
                if (i && !differ)
                    differ = memcmp(key[i], key[0], nd) != 0;
            }
            if (!differ)
                continue;
            for (int i = 0; i < len; i++) {
                int j = i;
                while (j > 0 && memcmp(key[idx[j - 1]], key[i], nd) > 0) {
                    idx[j] = idx[j - 1];
                    j--;
                }
                idx[j] = (uint8_t)i;
            }
            int ncuts = 0;
            for (int i = 0; i < len; i++) {
                seg[i] = p->lab[s + idx[i]];
                if (i && memcmp(key[idx[i]], key[idx[i - 1]], nd) != 0)
                    cuts[ncuts++] = (uint8_t)(s + i);
            }
            memcpy(p->lab + s, seg, len);
            memmove(p->start + ci + 1 + ncuts, p->start + ci + 1, nc - ci);
            memcpy(p->start + ci + 1, cuts, ncuts);
            p->ncells += ncuts;
            /* a splittable cell leaves ci <= 62; the cells after it move up */
            u64 after = dirty & ~(BIT(ci + 1) - 1);
            u64 split = ncuts + 1 == WORD ? ~(u64)0 : BIT(ncuts + 1) - 1;
            dirty = (dirty & (BIT(ci) - 1)) | after << ncuts | split << ci;
            break;
        }
        if (ci == nc)
            return;
    }
}

static int
cert_cmp(const u64 *a, const u64 *b, int n)
{
    for (int i = 0; i < n; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

/* Record ref^{-1} o perm, the automorphism mapping x to the vertex that
   plays x's role under the reference labelling. */
static int
add_gen(Canon *cs, const uint8_t *ref, const uint8_t *perm)
{
    uint8_t inv_ref[WORD];
    Gen q;
    memset(&q, 0, sizeof q);
    for (int v = 0; v < cs->n; v++)
        inv_ref[ref[v]] = (uint8_t)v;
    for (int x = 0; x < cs->n; x++) {
        q.img[x] = inv_ref[perm[x]];
        if (q.img[x] != x)
            q.moved |= BIT(x);
    }
    Py_ssize_t lo = 0, hi = cs->ngens;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        int c = memcmp(cs->gens[mid].img, q.img, WORD);
        if (c == 0)
            return 0;
        if (c < 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (cs->ngens == cs->cap) {
        Py_ssize_t cap = cs->cap ? 2 * cs->cap : 16;
        Gen *grown = PyMem_Realloc(cs->gens, cap * sizeof(Gen));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        cs->gens = grown;
        cs->cap = cap;
    }
    memmove(cs->gens + lo + 1, cs->gens + lo, (cs->ngens - lo) * sizeof(Gen));
    cs->gens[lo] = q;
    cs->ngens++;
    return 0;
}

/* The number of leading vertices that two paths share. */
static int
common_prefix(const uint8_t *a, const uint8_t *b, int len)
{
    int d = 0;
    while (d < len && a[d] == b[d])
        d++;
    return d;
}

/* Take the leaf that individualised path[0 .. depth).  A leaf whose
   certificate equals the first leaf's or the best leaf's gives an
   automorphism; the subtree where its path leaves that leaf's path is the
   automorphism's image of one already explored, so the depth returned is
   where the two paths part, and the search unwinds to it.  Otherwise the
   leaf's own depth is returned; -1 with an exception set on failure. */
static int
leaf(Canon *cs, const Part *p, const uint8_t *path, int depth)
{
    int n = cs->n;
    uint8_t perm[WORD];
    u64 cert[WORD];
    memset(perm, 0, WORD);
    for (int i = 0; i < n; i++)
        perm[p->lab[i]] = (uint8_t)i;
    for (int i = 0; i < n; i++) {
        u64 row = 0;
        for (u64 r = cs->adj[p->lab[i]]; r; r &= r - 1)
            row |= BIT(perm[lowest(r)]);
        cert[i] = row;
    }
    if (cs->first_depth < 0) {
        memcpy(cs->first_cert, cert, n * sizeof(u64));
        memcpy(cs->first_perm, perm, WORD);
        memcpy(cs->first_path, path, depth);
        cs->first_depth = depth;
    }
    else if (cert_cmp(cert, cs->first_cert, n) == 0 && memcmp(perm, cs->first_perm, n) != 0) {
        if (add_gen(cs, cs->first_perm, perm) < 0)
            return -1;
        return common_prefix(path, cs->first_path, cs->first_depth);
    }
    int c = cs->best_depth < 0 ? -1 : cert_cmp(cert, cs->best_cert, n);
    if (c < 0) {
        memcpy(cs->best_cert, cert, n * sizeof(u64));
        memcpy(cs->best_perm, perm, WORD);
        memcpy(cs->best_path, path, depth);
        cs->best_depth = depth;
    }
    else if (c == 0 && memcmp(perm, cs->best_perm, n) != 0) {
        if (add_gen(cs, cs->best_perm, perm) < 0)
            return -1;
        return common_prefix(path, cs->best_path, cs->best_depth);
    }
    return depth;
}

/* Close ``orbit`` under the generators that fix every vertex of ``fixed``. */
static u64
orbit_closure(const Canon *cs, u64 orbit, u64 fixed)
{
    u64 frontier = orbit;
    while (frontier) {
        int x = lowest(frontier);
        frontier &= frontier - 1;
        for (Py_ssize_t g = 0; g < cs->ngens; g++) {
            int y = cs->gens[g].img[x];
            if (!(cs->gens[g].moved & fixed) && !(orbit >> y & 1)) {
                orbit |= BIT(y);
                frontier |= BIT(y);
            }
        }
    }
    return orbit;
}

/* Refine (``dirty`` as in refine()), then individualise each vertex of
   the first non-singleton cell in increasing order, skipping those in the
   orbit of the explored ones under the generators that fix the vertices
   individualised so far, path[0 .. depth) (mask ``fixed``).  Returns the
   depth to unwind to: ``depth`` when this node is done, less when a leaf
   below found an automorphism that maps an explored subtree onto this
   one (see leaf()), -1 with an exception set on failure. */
static int
search(Canon *cs, Part *p, u64 dirty, uint8_t *path, int depth, u64 fixed)
{
    refine(cs->adj, p, dirty);
    int target = 0;
    while (target < p->ncells && p->start[target + 1] - p->start[target] == 1)
        target++;
    if (target == p->ncells)
        return leaf(cs, p, path, depth);
    int s = p->start[target], len = p->start[target + 1] - s;
    u64 cell = 0, orbit = 0;
    for (int i = 0; i < len; i++)
        cell |= BIT(p->lab[s + i]);
    for (u64 rest = cell; rest; rest &= rest - 1) {
        int v = lowest(rest);
        if (orbit >> v & 1)
            continue;
        Part child;
        child.ncells = p->ncells + 1;
        memcpy(child.lab, p->lab, cs->n);
        child.lab[s] = (uint8_t)v;
        for (int i = 0, j = s + 1; i < len; i++)
            if (p->lab[s + i] != v)
                child.lab[j++] = p->lab[s + i];
        memcpy(child.start, p->start, target + 1);
        child.start[target + 1] = (uint8_t)(s + 1);
        memcpy(child.start + target + 2, p->start + target + 1, p->ncells - target);
        path[depth] = (uint8_t)v;
        /* the parent is equitable, so only the counts into {v} can split
           a cell: the count into the rest of the old cell is fixed by it */
        int back = search(cs, &child, BIT(target), path, depth + 1, fixed | BIT(v));
        if (back < depth)
            return back;
        orbit = orbit_closure(cs, orbit | BIT(v), fixed);
    }
    return depth;
}

/* graph6 text of the rows: N(n), then the upper triangle column by column,
   six bits per character. */
static PyObject *
graph6(const u64 *rows, int n)
{
    char buf[4 + (WORD * (WORD - 1) / 2 + 5) / 6];
    int len = 0, bits = 0, nbits = 0;
    if (n <= 62)
        buf[len++] = (char)(n + 63);
    else {
        buf[len++] = 126;
        buf[len++] = (char)((n >> 12) + 63);
        buf[len++] = (char)(((n >> 6) & 63) + 63);
        buf[len++] = (char)((n & 63) + 63);
    }
    for (int v = 1; v < n; v++)
        for (int u = 0; u < v; u++) {
            bits = bits << 1 | (int)(rows[v] >> u & 1);
            if (++nbits == 6) {
                buf[len++] = (char)(bits + 63);
                bits = nbits = 0;
            }
        }
    if (nbits)
        buf[len++] = (char)((bits << (6 - nbits)) + 63);
    return PyUnicode_DecodeASCII(buf, len, NULL);
}

static PyObject *
image_tuple(const uint8_t *img, int n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(img[i]);
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

/* Label the graph in cs->adj: best_cert and best_perm of its canonical
   relabelling.  The generator store is emptied first and kept allocated,
   so one Canon can label many graphs. */
static int
label_graph(Canon *cs)
{
    Part root;
    uint8_t path[WORD];
    cs->first_depth = cs->best_depth = -1;
    cs->ngens = 0;
    if (cs->n == 0) {
        memset(cs->best_cert, 0, sizeof cs->best_cert);
        memset(cs->best_perm, 0, WORD);
        return 0;
    }
    root.ncells = 1;
    root.start[0] = 0;
    root.start[1] = (uint8_t)cs->n;
    for (int v = 0; v < cs->n; v++)
        root.lab[v] = (uint8_t)v;
    return search(cs, &root, BIT(0), path, 0, 0) < 0 ? -1 : 0;
}

static PyObject *
canonical_search(PyObject *Py_UNUSED(self), PyObject *rows)
{
    Canon cs;
    PyObject *label = NULL, *perm = NULL, *gens = NULL, *result = NULL;
    Py_ssize_t n = read_rows(rows, cs.adj, "graph");
    if (n < 0)
        return n == NOT_HELD ? Py_NewRef(Py_NotImplemented) : NULL;
    cs.n = (int)n;
    cs.gens = NULL;
    cs.cap = 0;
    if (label_graph(&cs) < 0 ||
        (label = graph6(cs.best_cert, cs.n)) == NULL ||
        (perm = image_tuple(cs.best_perm, cs.n)) == NULL ||
        (gens = PyTuple_New(cs.ngens)) == NULL)
        goto done;
    for (Py_ssize_t g = 0; g < cs.ngens; g++) {
        PyObject *img = image_tuple(cs.gens[g].img, cs.n);
        if (img == NULL)
            goto done;
        PyTuple_SET_ITEM(gens, g, img);
    }
    result = PyTuple_Pack(3, label, perm, gens);
done:
    PyMem_Free(cs.gens);
    Py_XDECREF(label);
    Py_XDECREF(perm);
    Py_XDECREF(gens);
    return result;
}

/* -- level growth ----------------------------------------------------------- */

/* Label the extension in cs->adj; if its label is not in ``seen``, add it
   there and append it to ``out``. */
static int
offer(Canon *cs, PyObject *seen, PyObject *out)
{
    if (label_graph(cs) < 0)
        return -1;
    PyObject *label = graph6(cs->best_cert, cs->n);
    if (label == NULL)
        return -1;
    int rc = PySet_Contains(seen, label);
    if (rc == 0)
        rc = PySet_Add(seen, label) < 0 || PyList_Append(out, label) < 0 ? -1 : 0;
    Py_DECREF(label);
    return rc < 0 ? -1 : 0;
}

/* Mark the orbit of the non-edge {u, v} under the automorphism generators
   found while labelling ``parent``: bit v of pairs[u] and bit u of
   pairs[v] for each pair in it. */
static void
mark_pair_orbit(const Canon *parent, u64 *pairs, int u, int v)
{
    uint8_t queue[WORD * (WORD - 1)]; /* two bytes per pair, each pair once */
    int head = 0, tail = 0;
    pairs[u] |= BIT(v);
    pairs[v] |= BIT(u);
    queue[tail++] = (uint8_t)u;
    queue[tail++] = (uint8_t)v;
    while (head < tail) {
        int a = queue[head++], b = queue[head++];
        for (Py_ssize_t g = 0; g < parent->ngens; g++) {
            int x = parent->gens[g].img[a], y = parent->gens[g].img[b];
            if (!(pairs[x] >> y & 1)) {
                pairs[x] |= BIT(y);
                pairs[y] |= BIT(x);
                queue[tail++] = (uint8_t)x;
                queue[tail++] = (uint8_t)y;
            }
        }
    }
}

/* The pure module's ``children``: the one-edge extensions of the parent in
   the same order (for each vertex u, the non-edges uv with v > u, then a
   pendant edge at u; last, a disjoint edge),
   labelled without building perm or generator tuples.  The parent is
   labelled first for its automorphism generators, and only the first
   non-edge of each orbit of non-edges and the first vertex of each vertex
   orbit (for the pendant edge) are labelled: a skipped extension is
   isomorphic to an earlier one of this call, whose label is in ``seen``
   by then, so the result and ``seen`` are those of labelling them all
   (McKay, "Isomorph-free exhaustive generation", 1998).  A parent above
   WORD - 2 vertices, whose disjoint-edge child would not fit the word,
   gets NotImplemented before ``seen`` is read. */
static PyObject *
children(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Canon cs, parent;
    u64 pairs[WORD], vertices = 0;
    if (check_nargs(nargs, 2, "children") < 0)
        return NULL;
    if (!PySet_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "children() needs a set of seen labels");
        return NULL;
    }
    int n = read_graph6(args[0], parent.adj, 0, WORD - 2);
    if (n < 0)
        return n == NOT_HELD ? Py_NewRef(Py_NotImplemented) : NULL;
    parent.n = n;
    parent.gens = cs.gens = NULL;
    parent.cap = cs.cap = 0;
    if (label_graph(&parent) < 0) {
        PyMem_Free(parent.gens);
        return NULL;
    }
    PyObject *out = PyList_New(0);
    size_t size = n * sizeof(u64);
    memset(pairs, 0, size);
    int rc = out == NULL ? -1 : 0;
    for (int u = 0; u < n && rc == 0; u++) {
        for (u64 non = ~parent.adj[u] & (BIT(n) - 1) & ~(BIT(u + 1) - 1); non && rc == 0;
             non &= non - 1) {
            int v = lowest(non);
            if (pairs[u] >> v & 1)
                continue;
            mark_pair_orbit(&parent, pairs, u, v);
            memcpy(cs.adj, parent.adj, size);
            cs.adj[u] |= BIT(v);
            cs.adj[v] |= BIT(u);
            cs.n = n;
            rc = offer(&cs, args[1], out);
        }
        if (rc == 0 && !(vertices >> u & 1)) {
            vertices |= orbit_closure(&parent, BIT(u), 0);
            memcpy(cs.adj, parent.adj, size);
            cs.adj[u] |= BIT(n);
            cs.adj[n] = BIT(u);
            cs.n = n + 1;
            rc = offer(&cs, args[1], out);
        }
    }
    if (rc == 0) {
        memcpy(cs.adj, parent.adj, size);
        cs.adj[n] = BIT(n + 1);
        cs.adj[n + 1] = BIT(n);
        cs.n = n + 2;
        rc = offer(&cs, args[1], out);
    }
    PyMem_Free(parent.gens);
    PyMem_Free(cs.gens);
    if (rc < 0) {
        Py_XDECREF(out);
        return NULL;
    }
    return out;
}

/* -- entropy sums ----------------------------------------------------------- */

/* A key is an int or a tuple of ints (a bool is an int), each int in the
   signed 64-bit range.  These entries hold no other key: for a column with
   one they return NotImplemented. */

enum { KEY_ERROR = -1, KEY_HELD = 0, KEY_NOT_HELD = 1 };

static int
key_word(PyObject *x, int64_t *out)
{
    int overflow = 0;
    if (!PyLong_CheckExact(x) && !PyBool_Check(x))
        return KEY_NOT_HELD;
    long long v = PyLong_AsLongLongAndOverflow(x, &overflow);
    if (overflow)
        return KEY_NOT_HELD;
    if (v == -1 && PyErr_Occurred())
        return KEY_ERROR;
    *out = v;
    return KEY_HELD;
}

static inline u64
mix(u64 h, u64 w)
{
    h = (h ^ w) * 0xff51afd7ed558ccdu;
    return h ^ h >> 29;
}

#define HASH_SEED 0x9e3779b97f4a7c15u

/* A hash of a held key from its ints, so that keys Python holds equal
   hash alike. */
static int
key_hash(PyObject *x, u64 *out)
{
    int64_t w = 0;
    if (!PyTuple_CheckExact(x)) {
        int rc = key_word(x, &w);
        *out = mix(HASH_SEED, (u64)w);
        return rc;
    }
    u64 h = mix(HASH_SEED + 1, (u64)PyTuple_GET_SIZE(x));
    for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(x); j++) {
        int rc = key_word(PyTuple_GET_ITEM(x, j), &w);
        if (rc != KEY_HELD)
            return rc;
        h = mix(h, (u64)w);
    }
    *out = h;
    return KEY_HELD;
}

/* The rows to number: the keys items[0..n), or, when items is NULL, the
   pairs (a[i], b[i]) of two columns of key numbers. */
typedef struct {
    Py_ssize_t n;
    PyObject **items;
    const Py_ssize_t *a, *b;
} Rows;

/* Number the distinct keys in the order of their first row, the order in
   which a dict, and so a Counter, meets them: ids[i] is the number of
   row i's key.  Keys are equal as Python compares them.  Returns the
   number of distinct keys; 0 when a key is not held; -1 with an exception
   set. */
static Py_ssize_t
number_rows(const Rows *r, Py_ssize_t *ids)
{
    Py_ssize_t size = 8, count = 0;
    int rc = KEY_HELD;
    while (size < 2 * r->n)
        size *= 2;
    Py_ssize_t *first = PyMem_New(Py_ssize_t, size); /* the first row of a slot's key */
    u64 *hashes = PyMem_New(u64, r->n);
    if (first == NULL || hashes == NULL) {
        PyErr_NoMemory();
        rc = KEY_ERROR;
    }
    else
        for (Py_ssize_t s = 0; s < size; s++)
            first[s] = -1;
    for (Py_ssize_t i = 0; i < r->n && rc == KEY_HELD; i++) {
        u64 h = 0;
        if (r->items == NULL)
            h = mix(mix(HASH_SEED, (u64)r->a[i]), (u64)r->b[i]);
        else if ((rc = key_hash(r->items[i], &h)) != KEY_HELD)
            break;
        hashes[i] = h;
        for (Py_ssize_t s = (Py_ssize_t)(h & (u64)(size - 1));; s = (s + 1) & (size - 1)) {
            Py_ssize_t j = first[s];
            if (j < 0) {
                first[s] = i;
                ids[i] = count++;
                break;
            }
            if (hashes[j] != h)
                continue;
            int equal = r->items == NULL ? r->a[i] == r->a[j] && r->b[i] == r->b[j]
                                         : PyObject_RichCompareBool(r->items[i], r->items[j], Py_EQ);
            if (equal < 0) {
                rc = KEY_ERROR;
                break;
            }
            if (equal) {
                ids[i] = ids[j];
                break;
            }
        }
    }
    PyMem_Free(first);
    PyMem_Free(hashes);
    return rc == KEY_HELD ? count : rc == KEY_NOT_HELD ? 0 : -1;
}

/* Number the keys of the column ``obj`` into a new array *ids of *n
   entries, as number_rows does, and return what it returns; an empty
   column raises ValueError. */
static Py_ssize_t
column_ids(PyObject *obj, Py_ssize_t **ids, Py_ssize_t *n)
{
    Py_ssize_t count = -1;
    *ids = NULL;
    *n = 0;
    PyObject *fast = PySequence_Fast(obj, "a column must be a sequence");
    if (fast == NULL)
        return -1;
    Rows rows = {PySequence_Fast_GET_SIZE(fast), PySequence_Fast_ITEMS(fast), NULL, NULL};
    *n = rows.n;
    if (rows.n == 0)
        PyErr_SetString(PyExc_ValueError, "empty column");
    else if ((*ids = PyMem_New(Py_ssize_t, rows.n)) == NULL)
        PyErr_NoMemory();
    else
        count = number_rows(&rows, *ids);
    if (count <= 0) {
        PyMem_Free(*ids);
        *ids = NULL;
    }
    Py_DECREF(fast);
    return count;
}

/* The key numbers of two columns of one length into *a and *b, and the
   numbers of their distinct pairs (a[i], b[i]) into *pairs, all n long.
   Returns the number of distinct pairs, or column_ids' 0 or -1 with every
   array freed; ValueError when the lengths differ. */
static Py_ssize_t
pair_ids(PyObject *const *args, Py_ssize_t **a, Py_ssize_t **b, Py_ssize_t **pairs,
         Py_ssize_t *n)
{
    Py_ssize_t nb = 0, count = column_ids(args[0], a, n);
    *b = *pairs = NULL;
    if (count > 0)
        count = column_ids(args[1], b, &nb);
    if (count > 0 && nb != *n) {
        PyErr_SetString(PyExc_ValueError, "columns of different lengths");
        count = -1;
    }
    if (count > 0) {
        Rows rows = {*n, NULL, *a, *b};
        if ((*pairs = PyMem_New(Py_ssize_t, *n)) == NULL) {
            PyErr_NoMemory();
            count = -1;
        }
        else
            count = number_rows(&rows, *pairs);
    }
    if (count <= 0) {
        PyMem_Free(*a);
        PyMem_Free(*b);
        PyMem_Free(*pairs);
        *a = *b = *pairs = NULL;
    }
    return count;
}

/* The sums below add their terms left to right from 0.0 in doubles, over
   the keys in order of first occurrence, and take libm's log, as the pure
   twin's reduce(add, ..., 0.0) over math.log does; setup.py turns off
   floating-point contraction, so no product is fused into its sum. */

static PyObject *
entropy(PyObject *Py_UNUSED(self), PyObject *keys)
{
    Py_ssize_t n, *ids, *counts;
    Py_ssize_t nkeys = column_ids(keys, &ids, &n);
    if (nkeys <= 0)
        return nkeys == 0 ? Py_NewRef(Py_NotImplemented) : NULL;
    counts = PyMem_Calloc(nkeys, sizeof(Py_ssize_t));
    if (counts == NULL) {
        PyMem_Free(ids);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n; i++)
        counts[ids[i]]++;
    double s = 0.0;
    for (Py_ssize_t j = 0; j < nkeys; j++)
        s += (double)counts[j] * log((double)counts[j]);
    PyMem_Free(ids);
    PyMem_Free(counts);
    return PyFloat_FromDouble(log((double)n) - s / (double)n);
}

static PyObject *
cond_entropy(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n = 0, *targets, *givens, *joint;
    if (check_nargs(nargs, 2, "cond_entropy") < 0)
        return NULL;
    Py_ssize_t njoint = pair_ids(args, &targets, &givens, &joint, &n);
    if (njoint <= 0)
        return njoint == 0 ? Py_NewRef(Py_NotImplemented) : NULL;
    /* joint[i] and givens[i] are below n, and a pair's given is that of
       its first row */
    Py_ssize_t *counts = PyMem_Calloc(2 * n, sizeof(Py_ssize_t));
    Py_ssize_t *given_of = PyMem_Calloc(njoint, sizeof(Py_ssize_t));
    PyObject *out = NULL;
    if (counts == NULL || given_of == NULL)
        PyErr_NoMemory();
    else {
        Py_ssize_t *marginal = counts + n, seen = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            if (joint[i] == seen)
                given_of[seen++] = givens[i];
            counts[joint[i]]++;
            marginal[givens[i]]++;
        }
        double s = 0.0;
        for (Py_ssize_t j = 0; j < njoint; j++)
            s += (double)counts[j] *
                 (log((double)marginal[given_of[j]]) - log((double)counts[j]));
        out = PyFloat_FromDouble(s / (double)n);
    }
    PyMem_Free(counts);
    PyMem_Free(given_of);
    PyMem_Free(targets);
    PyMem_Free(givens);
    PyMem_Free(joint);
    return out;
}

static PyObject *
mean_log(PyObject *Py_UNUSED(self), PyObject *values)
{
    PyObject *fast = PySequence_Fast(values, "values must be a sequence");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    PyObject *out = NULL;
    double s = 0.0;
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError, "empty column");
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        int64_t v = 0;
        int rc = key_word(items[i], &v);
        if (rc == KEY_NOT_HELD)
            out = Py_NewRef(Py_NotImplemented);
        if (rc != KEY_HELD)
            goto done;
        if (v <= 0) {
            PyErr_SetString(PyExc_ValueError, "math domain error");
            goto done;
        }
        s += log((double)v);
    }
    out = PyFloat_FromDouble(s / (double)n);
done:
    Py_DECREF(fast);
    return out;
}

static PyObject *
distinct_counts(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n = 0, *values, *keys, *pairs;
    if (check_nargs(nargs, 2, "distinct_counts") < 0)
        return NULL;
    Py_ssize_t npairs = pair_ids(args, &values, &keys, &pairs, &n);
    if (npairs <= 0)
        return npairs == 0 ? Py_NewRef(Py_NotImplemented) : NULL;
    Py_ssize_t *distinct = PyMem_Calloc(n, sizeof(Py_ssize_t)); /* per key number */
    PyObject *out = distinct == NULL ? PyErr_NoMemory() : PyList_New(n);
    if (out != NULL) {
        Py_ssize_t seen = 0;
        for (Py_ssize_t i = 0; i < n; i++)
            if (pairs[i] == seen) {
                seen++;
                distinct[keys[i]]++;
            }
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *c = PyLong_FromSsize_t(distinct[keys[i]]);
            if (c == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, i, c);
        }
    }
    PyMem_Free(distinct);
    PyMem_Free(values);
    PyMem_Free(keys);
    PyMem_Free(pairs);
    return out;
}

static PyMethodDef methods[] = {
    {"count_ordered", (PyCFunction)(void (*)(void))count_ordered, METH_FASTCALL,
     "count_ordered(g_adj, h_adj, order, pin_hosts) -> int"},
    {"count_ordered_many", (PyCFunction)(void (*)(void))count_ordered_many, METH_FASTCALL,
     "count_ordered_many(labels, h_adj, order) -> list of int, one per graph6 host label"},
    {"enumerate_ordered", (PyCFunction)(void (*)(void))enumerate_ordered, METH_FASTCALL,
     "enumerate_ordered(g_adj, h_adj, order, pin_hosts) -> list of tuples"},
    {"canonical_search", canonical_search, METH_O,
     "canonical_search(rows) -> (label, perm, gens)"},
    {"children", (PyCFunction)(void (*)(void))children, METH_FASTCALL,
     "children(label, seen) -> list of new labels"},
    {"entropy", entropy, METH_O, "entropy(keys) -> float, nats"},
    {"cond_entropy", (PyCFunction)(void (*)(void))cond_entropy, METH_FASTCALL,
     "cond_entropy(targets, givens) -> float, nats"},
    {"mean_log", mean_log, METH_O, "mean_log(values) -> float"},
    {"distinct_counts", (PyCFunction)(void (*)(void))distinct_counts, METH_FASTCALL,
     "distinct_counts(values, keys) -> list of int, one per row"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "edgeind._kernels",
    .m_doc = "Compiled twin of edgeind._kernels_py (graphs of at most 64 vertices, "
             "keys of 64 bits).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
