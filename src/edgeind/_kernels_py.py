"""Pure-Python kernels: ordered induced-copy search, the canonical
labelling search core, the one-edge growth of a search level and the
entropy sums.

Twin of the compiled module ``edgeind._kernels``; both expose the same
functions and must produce identical results, except that the compiled
twin answers NotImplemented for an input its 64-bit word cannot hold, and
``edgeind.kernels`` then asks this module, which takes every graph of at
most ``MAX_VERTICES`` vertices and grows every parent whose children stay
within it.  Adjacency rows are integer bitmasks; the level entries
``children`` and ``count_ordered_many`` take graph6 labels instead.
For the copy search, ``order`` is the sequence in which pattern vertices
are assigned; the first ``len(pin_hosts)`` of them are forced to the given
host vertices.  One recursion, ``_copies``, serves ``count_ordered`` and
``enumerate_ordered``: it counts the copies, or lists them when handed a
list.

The entropy entries ``entropy``, ``cond_entropy``, ``mean_log`` and
``distinct_counts`` take non-empty columns, one entry per row, and raise
ValueError for an empty column or two columns of different lengths.  A key
is an int or a tuple of ints (this module takes any hashable key).  Every
float sum adds its terms left to right from 0.0, over the distinct keys in
order of first occurrence, so the result does not depend on the Python
version (builtin ``sum`` compensates float rounding from 3.12 on).  The
compiled twin reads each int of a key as a signed 64-bit word.
"""

import math
from collections import Counter
from functools import reduce
from operator import add

from .graph import MAX_VERTICES, encode_graph6, parse_graph6

BACKEND = "pure"


def _setup(g_adj, h_adj, order, pin_hosts):
    """The search state ``(used, placed, comp, prev_nbr, prev_non, deg_ok)``
    with the pins placed, or None when no copy can exist: the host is
    smaller than the pattern, or the pins repeat a host vertex or
    contradict the pattern."""
    n = len(g_adj)
    if n < len(h_adj):
        return None
    used = 0
    placed = [0] * len(h_adj)
    for i, v in enumerate(pin_hosts):
        if used >> v & 1:
            return None
        p = order[i]
        for j in range(i):
            if h_adj[p] >> order[j] & 1 != g_adj[v] >> pin_hosts[j] & 1:
                return None
        placed[i] = v
        used |= 1 << v
    g_deg = [row.bit_count() for row in g_adj]
    full = (1 << n) - 1
    comp = [full & ~row for row in g_adj]
    # For each step i: earlier steps split into pattern-neighbors / others,
    # plus a degree floor on the host candidate.
    prev_nbr = []
    prev_non = []
    deg_ok = []
    for i, p in enumerate(order):
        row = h_adj[p]
        nbr = [j for j in range(i) if row >> order[j] & 1]
        non = [j for j in range(i) if not row >> order[j] & 1]
        prev_nbr.append(nbr)
        prev_non.append(non)
        need = row.bit_count()
        deg_ok.append(sum(1 << v for v in range(n) if g_deg[v] >= need))
    return used, placed, comp, prev_nbr, prev_non, deg_ok


def _copies(g_adj, h_adj, order, pin_hosts, out=None):
    """The number of ordered copies that extend the pins, each appended to
    ``out`` as a host-vertex tuple indexed by pattern vertex when ``out``
    is a list.  When counting, the last step is one popcount."""
    state = _setup(g_adj, h_adj, order, pin_hosts)
    if state is None:
        return 0
    used0, placed, comp, prev_nbr, prev_non, deg_ok = state
    k = len(h_adj)
    last = k if out is not None else k - 1

    def rec(i, used):
        if i == k:
            if out is not None:
                copy = [0] * k
                for j, p in enumerate(order):
                    copy[p] = placed[j]
                out.append(tuple(copy))
            return 1
        cand = deg_ok[i] & ~used
        for j in prev_nbr[i]:
            cand &= g_adj[placed[j]]
        for j in prev_non[i]:
            cand &= comp[placed[j]]
        if i == last:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            cand ^= bit
            placed[i] = bit.bit_length() - 1
            total += rec(i + 1, used | bit)
        return total

    return rec(len(pin_hosts), used0)


def count_ordered(g_adj, h_adj, order, pin_hosts):
    return _copies(g_adj, h_adj, order, pin_hosts)


def _rows(label):
    """The rows of a graph6 label, which (as in ``_kernels``) has no header or newline."""
    if label[:1] == ">" or label[-1:] == "\n":
        raise ValueError(f"malformed graph6 label {label!r}")
    return parse_graph6(label).adj


def count_ordered_many(labels, h_adj, order):
    """``count_ordered`` of the host each graph6 label encodes."""
    return [count_ordered(_rows(label), h_adj, order, ()) for label in labels]


def enumerate_ordered(g_adj, h_adj, order, pin_hosts):
    out = []
    _copies(g_adj, h_adj, order, pin_hosts, out)
    return out


# -- canonical labelling -------------------------------------------------


def _refine(adj, cells):
    """Equitable refinement: split cells by neighbor counts into every cell
    until stable.  Deterministic: first splittable cell splits first and
    subcells are ordered by their count signature."""
    cells = [list(c) for c in cells]
    while True:
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            keyed = {}
            for v in cell:
                key = tuple((adj[v] & m).bit_count() for m in masks)
                keyed.setdefault(key, []).append(v)
            if len(keyed) > 1:
                cells[ci:ci + 1] = [keyed[k] for k in sorted(keyed)]
                break
        else:
            return cells


def _certificate(adj, seq):
    pos = [0] * len(seq)
    for i, v in enumerate(seq):
        pos[v] = i
    cert = []
    for v in seq:
        row = adj[v]
        new_row = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            new_row |= 1 << pos[u]
        cert.append(new_row)
    return tuple(cert)


def _quotient(ref_perm, perm):
    """Automorphism mapping x to the vertex that plays x's role under the
    reference labeling: ref_perm^{-1} o perm."""
    n = len(perm)
    inv_ref = [0] * n
    for v, p in enumerate(ref_perm):
        inv_ref[p] = v
    return tuple(inv_ref[perm[x]] for x in range(n))


def orbit_closure(start, maps):
    """Vertices reachable from ``start`` under the permutation tuples."""
    orbit = set(start)
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for p in maps:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def canonical_search(adj):
    """``(label, perm, gens)`` for the graph with adjacency rows ``adj``:
    the graph6 text of the relabeling ``perm`` (old vertex v becomes
    perm[v]) that minimizes the certificate, compared row by row, over the
    pruned search tree, and the automorphisms found on the way, sorted."""
    cert, perm, gens = _canonical(adj)
    return encode_graph6(cert), perm, gens


def _canonical(adj):
    """``(cert, perm, gens)``: the least certificate, which is the rows of
    the canonical relabeling, with ``perm`` and the generators as above."""
    n = len(adj)
    if n == 0:
        return (), (), ()
    first = best = None  # (cert, perm, path) of the first and the best leaf
    gens = set()

    def parted(path, other):
        """The depth where ``path`` leaves the other leaf's path."""
        d = 0
        for a, b in zip(path, other):
            if a != b:
                break
            d += 1
        return d

    def leaf(cells, path):
        # A leaf with the first or the best leaf's certificate gives an
        # automorphism, which maps an explored subtree onto the one where
        # the two paths part; the search unwinds to that depth.
        nonlocal first, best
        seq = [c[0] for c in cells]
        perm = [0] * n
        for i, v in enumerate(seq):
            perm[v] = i
        cert = _certificate(adj, seq)
        if first is None:
            first = best = cert, perm, path
        elif cert == first[0] and perm != first[1]:
            gens.add(_quotient(first[1], perm))
            return parted(path, first[2])
        elif cert < best[0]:
            best = cert, perm, path
        elif cert == best[0] and perm != best[1]:
            gens.add(_quotient(best[1], perm))
            return parted(path, best[2])
        return len(path)

    def rec(cells, path):
        """The depth to unwind to: ``len(path)`` once this node is done."""
        cells = _refine(adj, cells)
        target = None
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target is None:
            return leaf(cells, path)
        cell = cells[target]
        depth = len(path)
        # Siblings inside the orbit of the explored ones, under the
        # generators fixing ``path``, would only repeat certificates.  The
        # generators change only inside a subtree, so the orbit is closed
        # once per explored child.
        orbit = set()
        for v in sorted(cell):
            if v in orbit:
                continue
            rest = [u for u in cell if u != v]
            back = rec(cells[:target] + [[v], rest] + cells[target + 1:], path + (v,))
            if back < depth:
                return back
            orbit.add(v)
            orbit = orbit_closure(orbit, [p for p in gens if all(p[f] == f for f in path)])
        return depth

    rec([list(range(n))], ())
    return best[0], tuple(best[1]), tuple(sorted(gens))


# -- level growth --------------------------------------------------------


def children(label, seen):
    """The canonical label of each one-edge extension of the graph with
    graph6 ``label`` that is not in ``seen``; each new label joins ``seen``.
    The extensions come in a fixed order: for each vertex u, the non-edges
    uv with v > u, then a pendant edge at u; last, a disjoint edge.  A
    parent whose disjoint-edge child would exceed ``MAX_VERTICES`` raises
    ValueError before ``seen`` is read."""
    adj = _rows(label)
    n = len(adj)
    if n + 2 > MAX_VERTICES:
        raise ValueError(f"children of a {n}-vertex parent exceed {MAX_VERTICES} vertices")
    bit = 1 << n
    out = []

    def offer(rows):
        child = encode_graph6(_canonical(rows)[0])
        if child not in seen:
            seen.add(child)
            out.append(child)

    for u in range(n):
        row = adj[u]
        for v in range(u + 1, n):
            if not row >> v & 1:
                rows = list(adj)
                rows[u] = row | 1 << v
                rows[v] |= 1 << u
                offer(rows)
        rows = list(adj)
        rows[u] = row | bit
        rows.append(1 << u)
        offer(rows)
    offer([*adj, bit << 1, bit])
    return out


# -- entropy sums --------------------------------------------------------


def _length(*columns):
    """The common length of the columns, which must be non-empty."""
    n = len(columns[0])
    if not n:
        raise ValueError("empty column")
    if any(len(c) != n for c in columns):
        raise ValueError("columns of different lengths")
    return n


def entropy(keys):
    """Entropy (nats) of the uniform distribution over the rows' keys."""
    n = _length(keys)
    return math.log(n) - reduce(add, (c * math.log(c) for c in Counter(keys).values()), 0.0) / n


def cond_entropy(targets, givens):
    """Conditional entropy (nats) of the target key given the given key,
    under the uniform distribution over the rows of two columns."""
    n = _length(targets, givens)
    joint = Counter(zip(targets, givens))
    marginal = Counter(givens)
    log = math.log
    return reduce(add, (c * (log(marginal[g]) - log(c)) for (_, g), c in joint.items()),
                  0.0) / n


def mean_log(values):
    """The mean of the values' logs, in row order."""
    n = _length(values)
    return reduce(add, map(math.log, values), 0.0) / n


def distinct_counts(values, keys):
    """Per row, the number of distinct values among the rows that share its
    key."""
    _length(values, keys)
    per_key = Counter(key for _, key in set(zip(values, keys)))
    return list(map(per_key.__getitem__, keys))
