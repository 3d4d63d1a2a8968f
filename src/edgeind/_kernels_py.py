"""Pure-Python kernels: ordered induced-copy search, the canonical
labelling search core and the one-edge growth of a search level.

Twin of the compiled module ``edgeind._kernels``; both expose the same
functions and must produce identical results.  Adjacency rows are integer
bitmasks; the compiled twin takes at most 64 rows, this module any number.
The level entries ``children`` and ``count_ordered_many`` take graph6
labels instead.
For the copy search, ``order`` is the sequence in which pattern vertices
are assigned; the first ``len(pin_hosts)`` of them are forced to the given
host vertices.
"""

from .graph import WORD_VERTICES, encode_graph6, parse_graph6

BACKEND = "pure"


def _prepare(g_adj, h_adj, order, pin_hosts):
    n = len(g_adj)
    k = len(h_adj)
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
    return n, k, comp, prev_nbr, prev_non, deg_ok


def _pin_state(g_adj, h_adj, order, pin_hosts):
    """Seed used/placed with the pinned assignment; None if inconsistent."""
    used = 0
    placed = [0] * len(h_adj)
    for i, v in enumerate(pin_hosts):
        if used >> v & 1:
            return None
        p = order[i]
        for j in range(i):
            want = h_adj[p] >> order[j] & 1
            got = g_adj[v] >> pin_hosts[j] & 1
            if want != got:
                return None
        placed[i] = v
        used |= 1 << v
    return used, placed


def count_ordered(g_adj, h_adj, order, pin_hosts):
    k = len(h_adj)
    if k == 0:
        return 1
    if len(g_adj) < k:
        return 0
    seed = _pin_state(g_adj, h_adj, order, pin_hosts)
    if seed is None:
        return 0
    used0, placed = seed
    start = len(pin_hosts)
    if start == k:
        return 1
    n, k, comp, prev_nbr, prev_non, deg_ok = _prepare(g_adj, h_adj, order, pin_hosts)

    def rec(i, used):
        cand = deg_ok[i] & ~used
        for j in prev_nbr[i]:
            cand &= g_adj[placed[j]]
        for j in prev_non[i]:
            cand &= comp[placed[j]]
        if i == k - 1:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            placed[i] = v
            total += rec(i + 1, used | bit)
        return total

    return rec(start, used0)


def _rows(label):
    """The rows of a graph6 label, which (as in ``_kernels``) has no header or newline."""
    if label[:1] == ">" or label[-1:] == "\n":
        raise ValueError(f"malformed graph6 label {label!r}")
    return parse_graph6(label).adj


def count_ordered_many(labels, h_adj, order):
    """``count_ordered`` of the host each graph6 label encodes."""
    return [count_ordered(_rows(label), h_adj, order, ()) for label in labels]


def enumerate_ordered(g_adj, h_adj, order, pin_hosts):
    k = len(h_adj)
    if k == 0:
        return [()]
    if len(g_adj) < k:
        return []
    seed = _pin_state(g_adj, h_adj, order, pin_hosts)
    if seed is None:
        return []
    used0, placed = seed
    start = len(pin_hosts)
    out = []

    def emit():
        copy = [0] * k
        for i in range(k):
            copy[order[i]] = placed[i]
        out.append(tuple(copy))

    if start == k:
        emit()
        return out
    n, k, comp, prev_nbr, prev_non, deg_ok = _prepare(g_adj, h_adj, order, pin_hosts)

    def rec(i, used):
        cand = deg_ok[i] & ~used
        for j in prev_nbr[i]:
            cand &= g_adj[placed[j]]
        for j in prev_non[i]:
            cand &= comp[placed[j]]
        while cand:
            bit = cand & -cand
            cand ^= bit
            placed[i] = bit.bit_length() - 1
            if i == k - 1:
                emit()
            else:
                rec(i + 1, used | bit)

    rec(start, used0)
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
    best_cert = None
    best_perm = None
    first_cert = None
    first_perm = None
    gens = set()

    def leaf(cells):
        nonlocal best_cert, best_perm, first_cert, first_perm
        seq = [c[0] for c in cells]
        perm = [0] * n
        for i, v in enumerate(seq):
            perm[v] = i
        cert = _certificate(adj, seq)
        if first_cert is None:
            first_cert, first_perm = cert, perm
        elif cert == first_cert and perm != first_perm:
            gens.add(_quotient(first_perm, perm))
        if best_cert is None or cert < best_cert:
            best_cert, best_perm = cert, perm
        elif cert == best_cert and perm != best_perm:
            gens.add(_quotient(best_perm, perm))

    def rec(cells, fixed):
        cells = _refine(adj, cells)
        target = None
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target is None:
            leaf(cells)
            return
        cell = cells[target]
        # Siblings inside the orbit of the explored ones, under the
        # generators fixing ``fixed``, would only repeat certificates.  The
        # generators change only inside a subtree, so the orbit is closed
        # once per explored child.
        orbit = set()
        for v in sorted(cell):
            if v in orbit:
                continue
            rest = [u for u in cell if u != v]
            rec(cells[:target] + [[v], rest] + cells[target + 1:], fixed + (v,))
            orbit.add(v)
            orbit = orbit_closure(orbit, [p for p in gens if all(p[f] == f for f in fixed)])

    rec([list(range(n))], ())
    return best_cert, tuple(best_perm), tuple(sorted(gens))


# -- level growth --------------------------------------------------------


def children(label, seen):
    """The canonical label of each one-edge extension of the graph with
    graph6 ``label`` that is not in ``seen``; each new label joins ``seen``.
    The extensions come in a fixed order: for each vertex u, the non-edges
    uv with v > u, then a pendant edge at u; last, while it fits in the
    64-vertex word, a disjoint edge."""
    adj = _rows(label)
    n = len(adj)
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
    if n + 2 <= WORD_VERTICES:
        offer([*adj, bit << 1, bit])
    return out
