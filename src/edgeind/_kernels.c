/*
 * Compiled twin of edgeind._kernels_py: ordered induced-copy search and
 * the canonical-labelling search core, for graphs of at most 64 vertices,
 * so that one adjacency row fits in one machine word.  The pure module
 * states the contract; both must return identical results, down to the
 * order of subcells in a refinement and the order of sibling branches,
 * because canonical labels are CLI output and cache keys.
 *
 * The labelling follows individualisation-refinement (McKay and Piperno,
 * "Practical graph isomorphism, II", JSC 2014) with the pure module's
 * refinement rule and automorphism pruning.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define WORD 64
#define BIT(v) ((u64)1 << (v))

static inline int popcount(u64 x) { return __builtin_popcountll(x); }
static inline int lowest(u64 x) { return __builtin_ctzll(x); }

/* Read a sequence of at most WORD bitmask rows into out[]; a row may
   mention only vertices below the row count.  Returns the row count, or -1
   with an exception set. */
static Py_ssize_t
read_rows(PyObject *seq, u64 *out, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "adjacency rows must be a sequence");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n > WORD) {
        PyErr_Format(PyExc_ValueError, "%s has %zd rows; the compiled kernel takes at most %d",
                     what, n, WORD);
        Py_DECREF(fast);
        return -1;
    }
    u64 outside = n == WORD ? 0 : ~(BIT(n) - 1);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 row = PyLong_AsUnsignedLongLong(items[i]);
        if (row == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        if (row & outside) {
            PyErr_Format(PyExc_ValueError, "%s row %zd mentions a vertex >= %zd", what, i, n);
            Py_DECREF(fast);
            return -1;
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

/* -- ordered induced-copy search ------------------------------------------ */

typedef struct {
    int k;
    int order[WORD];
    int placed[WORD];
    u64 g_adj[WORD];
    u64 comp[WORD];
    u64 deg_ok[WORD];   /* hosts of high enough degree for step i */
    u64 nbr_mask[WORD]; /* earlier steps adjacent to step i in the pattern */
    u64 non_mask[WORD]; /* earlier steps not adjacent to it */
    int overflow;
    PyObject *out;      /* enumeration target, NULL when counting */
} Ctx;

enum { PREPARE_ERROR = -1, PINS_INCONSISTENT = -2, TRIVIAL = -3 };

/* Fill ctx and seed the pins.  Returns the first free step, TRIVIAL when
   the pattern is empty or larger than the host (``*trivial_count`` is then
   its copy count), PINS_INCONSISTENT, or PREPARE_ERROR with an exception
   set.  ``*used`` receives the pinned hosts. */
static int
prepare(Ctx *ctx, PyObject *g_obj, PyObject *h_obj, PyObject *order_obj, PyObject *pins_obj,
        u64 *used, int *trivial_count)
{
    u64 h_adj[WORD];
    int pins[WORD];
    Py_ssize_t k = PySequence_Size(h_obj);
    Py_ssize_t n = PySequence_Size(g_obj);
    if (k < 0 || n < 0)
        return PREPARE_ERROR;
    if (k == 0 || n < k) {
        *trivial_count = k == 0;
        return TRIVIAL;
    }
    if (read_rows(g_obj, ctx->g_adj, "host") < 0 ||
        read_rows(h_obj, h_adj, "pattern") < 0)
        return PREPARE_ERROR;
    Py_ssize_t len = read_indices(order_obj, ctx->order, k, k, "order");
    if (len < 0)
        return PREPARE_ERROR;
    if (len != k) {
        PyErr_SetString(PyExc_ValueError, "order must list every pattern vertex");
        return PREPARE_ERROR;
    }
    Py_ssize_t npins = read_indices(pins_obj, pins, k, n, "pin hosts");
    if (npins < 0)
        return PREPARE_ERROR;

    ctx->k = (int)k;
    ctx->overflow = 0;
    u64 full = n == WORD ? ~(u64)0 : BIT(n) - 1;
    int g_deg[WORD];
    for (int v = 0; v < n; v++) {
        ctx->comp[v] = full & ~ctx->g_adj[v];
        g_deg[v] = popcount(ctx->g_adj[v]);
    }
    for (int i = 0; i < k; i++) {
        u64 row = h_adj[ctx->order[i]];
        ctx->nbr_mask[i] = ctx->non_mask[i] = 0;
        for (int j = 0; j < i; j++) {
            if (row >> ctx->order[j] & 1)
                ctx->nbr_mask[i] |= BIT(j);
            else
                ctx->non_mask[i] |= BIT(j);
        }
        int need = popcount(row);
        ctx->deg_ok[i] = 0;
        for (int v = 0; v < n; v++)
            if (g_deg[v] >= need)
                ctx->deg_ok[i] |= BIT(v);
    }
    *used = 0;
    for (int i = 0; i < npins; i++) {
        int v = pins[i];
        if (*used >> v & 1)
            return PINS_INCONSISTENT;
        u64 row = h_adj[ctx->order[i]];
        for (int j = 0; j < i; j++)
            if ((row >> ctx->order[j] & 1) != (ctx->g_adj[v] >> pins[j] & 1))
                return PINS_INCONSISTENT;
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

static unsigned long long
count_rec(Ctx *ctx, int i, u64 used)
{
    u64 cand = candidates(ctx, i, used);
    if (i == ctx->k - 1)
        return (unsigned long long)popcount(cand);
    unsigned long long total = 0;
    for (; cand && !ctx->overflow; cand &= cand - 1) {
        ctx->placed[i] = lowest(cand);
        if (__builtin_add_overflow(total, count_rec(ctx, i + 1, used | (cand & -cand)), &total))
            ctx->overflow = 1;
    }
    return total;
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

static int
enumerate_rec(Ctx *ctx, int i, u64 used)
{
    for (u64 cand = candidates(ctx, i, used); cand; cand &= cand - 1) {
        ctx->placed[i] = lowest(cand);
        int rc = i == ctx->k - 1 ? emit(ctx) : enumerate_rec(ctx, i + 1, used | (cand & -cand));
        if (rc < 0)
            return -1;
    }
    return 0;
}

static int
check_nargs(Py_ssize_t nargs, Py_ssize_t want, const char *name)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

static PyObject *
count_ordered(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Ctx ctx;
    u64 used;
    int trivial;
    if (check_nargs(nargs, 4, "count_ordered") < 0)
        return NULL;
    int start = prepare(&ctx, args[0], args[1], args[2], args[3], &used, &trivial);
    if (start == PREPARE_ERROR)
        return NULL;
    if (start == TRIVIAL)
        return PyLong_FromLong(trivial);
    if (start == PINS_INCONSISTENT)
        return PyLong_FromLong(0);
    if (start == ctx.k)
        return PyLong_FromLong(1);
    unsigned long long total = count_rec(&ctx, start, used);
    if (ctx.overflow) {
        PyErr_SetString(PyExc_OverflowError, "ordered copy count exceeds 64 bits");
        return NULL;
    }
    return PyLong_FromUnsignedLongLong(total);
}

static PyObject *
enumerate_ordered(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Ctx ctx;
    u64 used;
    int trivial;
    if (check_nargs(nargs, 4, "enumerate_ordered") < 0)
        return NULL;
    int start = prepare(&ctx, args[0], args[1], args[2], args[3], &used, &trivial);
    if (start == PREPARE_ERROR)
        return NULL;
    ctx.out = PyList_New(0);
    if (ctx.out == NULL)
        return NULL;
    int rc = 0;
    if (start == TRIVIAL) {
        if (trivial) {
            PyObject *empty = PyTuple_New(0);
            rc = empty == NULL ? -1 : PyList_Append(ctx.out, empty);
            Py_XDECREF(empty);
        }
    }
    else if (start == ctx.k)
        rc = emit(&ctx);
    else if (start != PINS_INCONSISTENT)
        rc = enumerate_rec(&ctx, start, used);
    if (rc < 0) {
        Py_DECREF(ctx.out);
        return NULL;
    }
    return ctx.out;
}

/* -- canonical labelling ---------------------------------------------------- */

/* An ordered partition: cell c is lab[start[c] .. start[c + 1]). */
typedef struct {
    int ncells;
    uint8_t lab[WORD];
    uint8_t start[WORD + 1];
} Part;

/* A generator is stored as a WORD-byte image array, zero past n, so that
   memcmp over the whole record orders generators like tuples. */
typedef uint8_t Gen[WORD];

typedef struct {
    int n;
    u64 adj[WORD];
    int have_first;
    u64 first_cert[WORD], best_cert[WORD];
    Gen first_perm, best_perm;
    Gen *gens;          /* sorted, without duplicates */
    Py_ssize_t ngens, cap;
} Canon;

/* Split the first cell whose vertices differ in their neighbour counts
   into the cells of the current partition; subcells go in the order of
   their count signatures and keep the cell's vertex order (a stable sort).
   Repeat from the first cell until no cell splits. */
static void
refine(const u64 *adj, Part *p)
{
    u64 mask[WORD];
    uint8_t key[WORD][WORD];
    uint8_t idx[WORD], seg[WORD], cuts[WORD];
    for (;;) {
        int nc = p->ncells, ci;
        for (int c = 0; c < nc; c++) {
            u64 m = 0;
            for (int i = p->start[c]; i < p->start[c + 1]; i++)
                m |= BIT(p->lab[i]);
            mask[c] = m;
        }
        for (ci = 0; ci < nc; ci++) {
            int s = p->start[ci], len = p->start[ci + 1] - s, differ = 0;
            if (len == 1)
                continue;
            for (int i = 0; i < len; i++) {
                u64 row = adj[p->lab[s + i]];
                for (int c = 0; c < nc; c++)
                    key[i][c] = (uint8_t)popcount(row & mask[c]);
                if (i && !differ)
                    differ = memcmp(key[i], key[0], nc) != 0;
            }
            if (!differ)
                continue;
            for (int i = 0; i < len; i++) {
                int j = i;
                while (j > 0 && memcmp(key[idx[j - 1]], key[i], nc) > 0) {
                    idx[j] = idx[j - 1];
                    j--;
                }
                idx[j] = (uint8_t)i;
            }
            int ncuts = 0;
            for (int i = 0; i < len; i++) {
                seg[i] = p->lab[s + idx[i]];
                if (i && memcmp(key[idx[i]], key[idx[i - 1]], nc) != 0)
                    cuts[ncuts++] = (uint8_t)(s + i);
            }
            memcpy(p->lab + s, seg, len);
            memmove(p->start + ci + 1 + ncuts, p->start + ci + 1, nc - ci);
            memcpy(p->start + ci + 1, cuts, ncuts);
            p->ncells += ncuts;
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
    memset(q, 0, WORD);
    for (int v = 0; v < cs->n; v++)
        inv_ref[ref[v]] = (uint8_t)v;
    for (int x = 0; x < cs->n; x++)
        q[x] = inv_ref[perm[x]];
    Py_ssize_t lo = 0, hi = cs->ngens;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        int c = memcmp(cs->gens[mid], q, WORD);
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
    memcpy(cs->gens[lo], q, WORD);
    cs->ngens++;
    return 0;
}

static int
leaf(Canon *cs, const Part *p)
{
    int n = cs->n;
    Gen perm;
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
    if (!cs->have_first) {
        memcpy(cs->first_cert, cert, n * sizeof(u64));
        memcpy(cs->first_perm, perm, WORD);
    }
    else if (cert_cmp(cert, cs->first_cert, n) == 0 && memcmp(perm, cs->first_perm, n) != 0) {
        if (add_gen(cs, cs->first_perm, perm) < 0)
            return -1;
    }
    int c = cs->have_first ? cert_cmp(cert, cs->best_cert, n) : -1;
    if (c < 0) {
        memcpy(cs->best_cert, cert, n * sizeof(u64));
        memcpy(cs->best_perm, perm, WORD);
    }
    else if (c == 0 && memcmp(perm, cs->best_perm, n) != 0) {
        if (add_gen(cs, cs->best_perm, perm) < 0)
            return -1;
    }
    cs->have_first = 1;
    return 0;
}

/* Close ``orbit`` under the generators that fix every vertex of
   fixed[0 .. depth). */
static u64
orbit_closure(const Canon *cs, u64 orbit, const uint8_t *fixed, int depth)
{
    u64 frontier = orbit;
    while (frontier) {
        int x = lowest(frontier);
        frontier &= frontier - 1;
        for (Py_ssize_t g = 0; g < cs->ngens; g++) {
            const uint8_t *img = cs->gens[g];
            int fixes = 1;
            for (int f = 0; f < depth && fixes; f++)
                fixes = img[fixed[f]] == fixed[f];
            if (fixes && !(orbit >> img[x] & 1)) {
                orbit |= BIT(img[x]);
                frontier |= BIT(img[x]);
            }
        }
    }
    return orbit;
}

/* Refine, then individualise each vertex of the first non-singleton cell
   in increasing order, skipping those in the orbit of the explored ones. */
static int
search(Canon *cs, Part *p, uint8_t *fixed, int depth)
{
    refine(cs->adj, p);
    int target = 0;
    while (target < p->ncells && p->start[target + 1] - p->start[target] == 1)
        target++;
    if (target == p->ncells)
        return leaf(cs, p);
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
        fixed[depth] = (uint8_t)v;
        if (search(cs, &child, fixed, depth + 1) < 0)
            return -1;
        orbit = orbit_closure(cs, orbit | BIT(v), fixed, depth);
    }
    return 0;
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

static PyObject *
canonical_search(PyObject *Py_UNUSED(self), PyObject *rows)
{
    Canon cs;
    Part root;
    uint8_t fixed[WORD];
    PyObject *label = NULL, *perm = NULL, *gens = NULL, *result = NULL;
    Py_ssize_t n = read_rows(rows, cs.adj, "graph");
    if (n < 0)
        return NULL;
    cs.n = (int)n;
    cs.have_first = 0;
    cs.gens = NULL;
    cs.ngens = cs.cap = 0;
    if (n == 0) {
        memset(cs.best_cert, 0, sizeof cs.best_cert);
        memset(cs.best_perm, 0, WORD);
    }
    else {
        root.ncells = 1;
        root.start[0] = 0;
        root.start[1] = (uint8_t)n;
        for (int v = 0; v < n; v++)
            root.lab[v] = (uint8_t)v;
        if (search(&cs, &root, fixed, 0) < 0)
            goto done;
    }
    if ((label = graph6(cs.best_cert, cs.n)) == NULL ||
        (perm = image_tuple(cs.best_perm, cs.n)) == NULL ||
        (gens = PyTuple_New(cs.ngens)) == NULL)
        goto done;
    for (Py_ssize_t g = 0; g < cs.ngens; g++) {
        PyObject *img = image_tuple(cs.gens[g], cs.n);
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

static PyMethodDef methods[] = {
    {"count_ordered", (PyCFunction)(void (*)(void))count_ordered, METH_FASTCALL,
     "count_ordered(g_adj, h_adj, order, pin_hosts) -> int"},
    {"enumerate_ordered", (PyCFunction)(void (*)(void))enumerate_ordered, METH_FASTCALL,
     "enumerate_ordered(g_adj, h_adj, order, pin_hosts) -> list of tuples"},
    {"canonical_search", canonical_search, METH_O,
     "canonical_search(rows) -> (label, perm, gens)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "edgeind._kernels",
    .m_doc = "Compiled twin of edgeind._kernels_py (graphs of at most 64 vertices).",
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
