"""Shared test oracles and graph builders, deliberately independent of the
package internals: dumb recursion instead of bitset propagation,
permutation minimums instead of refinement, pairwise link checks instead of
pinned copy counts, a cycle-index count instead of
generation, and every {0, 1/2, 1} assignment instead of a matching."""

import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import factorial, gcd
from operator import add

from edgeind import Graph, canonical_label, kernels


def naive_count_ordered(g: Graph, h: Graph) -> int:
    """Injective maps preserving adjacency and non-adjacency, by plain
    recursion over pattern vertices in natural order."""
    gn, hn = g.n, h.n
    if hn > gn:
        return 0
    g_adj = [set(g.neighbors(v)) for v in range(gn)]
    h_adj = [set(h.neighbors(v)) for v in range(hn)]
    count = 0

    def extend(assign):
        nonlocal count
        i = len(assign)
        if i == hn:
            count += 1
            return
        for v in range(gn):
            if v in assign:
                continue
            good = True
            for j in range(i):
                if (j in h_adj[i]) != (assign[j] in g_adj[v]):
                    good = False
                    break
            if good:
                extend(assign + [v])

    extend([])
    return count


def naive_count_unordered(g: Graph, h: Graph) -> int:
    aut = naive_count_ordered(h, h)
    total = naive_count_ordered(g, h)
    assert total % aut == 0
    return total // aut


def brute_min_code(g: Graph):
    """Lexicographically least edge list over all relabelings; only usable
    for small graphs."""
    best = None
    for perm in permutations(range(g.n)):
        code = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))
        if best is None or code < best:
            best = code
    return (g.n, best)


@lru_cache(maxsize=None)
def classes_on(n):
    """One representative per isomorphism class of graphs on exactly n
    vertices, grown by vertex augmentation."""
    if n == 0:
        return (Graph.empty(0),)
    out = {}
    for g in classes_on(n - 1):
        for nb in range(2 ** (n - 1)):
            child = add_vertex(g, nb)
            label = canonical_label(child)
            if label not in out:
                out[label] = child
    return tuple(out[label] for label in sorted(out))


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _symmetry_size(parts):
    z = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for p, c in mult.items():
        z *= p ** c * factorial(c)
    return z


def _edge_orbit_sizes(parts):
    sizes = []
    for i, a in enumerate(parts):
        if a % 2:
            sizes.extend([a] * ((a - 1) // 2))
        else:
            sizes.append(a // 2)
            sizes.extend([a] * (a // 2 - 1))
        for b in parts[i + 1:]:
            sizes.extend([a * b // gcd(a, b)] * gcd(a, b))
    return sizes


def polya_graph_count(n, m):
    """Isomorphism classes of graphs on n vertices with exactly m edges,
    via Burnside over the pair action of the symmetric group."""
    total = Fraction(0)
    for parts in _partitions(n):
        coeffs = [0] * (m + 1)
        coeffs[0] = 1
        for s in _edge_orbit_sizes(parts):
            for e in range(m, s - 1, -1):
                coeffs[e] += coeffs[e - s]
        total += Fraction(coeffs[m], _symmetry_size(parts))
    assert total.denominator == 1
    return int(total)


def polya_edge_class_count(m):
    """Classes with exactly m edges and no isolated vertices: pad every
    such graph to 2m vertices and count classes there."""
    if m == 0:
        return 1
    return polya_graph_count(2 * m, m)


def random_graph(rng, n, p) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complete_bipartite(a, b) -> Graph:
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def add_edge(g: Graph, u, v) -> Graph:
    """g with the non-edge uv added."""
    assert not g.has_edge(u, v)
    return Graph.from_edges(g.n, g.edges() + [(u, v)])


def add_vertex(g: Graph, neighbors=0) -> Graph:
    """g with vertex n appended, adjacent to the bitmask ``neighbors``."""
    rows = [row | (neighbors >> v & 1) << g.n for v, row in enumerate(g.adj)]
    return Graph(g.n + 1, rows + [neighbors])


def without_isolated(g: Graph) -> Graph:
    """g without its degree-0 vertices, the rest in their order."""
    return g.induced_subgraph([v for v in range(g.n) if g.adj[v]])


def disjoint_union(*graphs) -> Graph:
    edges, start = [], 0
    for g in graphs:
        edges += [(start + u, start + v) for u, v in g.edges()]
        start += g.n
    return Graph.from_edges(start, edges)


def one_edge_extensions(g: Graph):
    """Every one-edge extension of g: each non-edge added, a pendant edge at
    each vertex, and a disjoint edge."""
    n = g.n
    for u, v in combinations(range(n), 2):
        if not g.has_edge(u, v):
            yield add_edge(g, u, v)
    for u in range(n):
        yield add_vertex(g, 1 << u)
    yield add_vertex(add_vertex(g), 1 << n)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def permutation_group_order(gens, n):
    """Order of the group generated by ``gens`` (tuples, p[x] the image of
    x) on range(n), by Schreier-Sims with base 0, 1, ..., n-1."""
    identity = tuple(range(n))

    def then(a, b):
        return tuple(map(b.__getitem__, a))  # x -> b[a[x]]

    def inverse(a):
        out = [0] * n
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    strong = [p for p in set(gens) if p != identity]

    def level_gens(i):  # strong generators fixing 0..i-1
        return [p for p in strong if all(p[b] == b for b in range(i))]

    def transversal(i):  # orbit point x -> element mapping i to x
        reps = {i: identity}
        frontier = [i]
        for x in frontier:
            for p in level_gens(i):
                if p[x] not in reps:
                    reps[p[x]] = then(reps[x], p)
                    frontier.append(p[x])
        return reps

    def strip(h, i):
        for j in range(i, n):
            if h[j] == j:  # the transversal element is the identity
                continue
            if h[j] not in trans[j]:
                return h, j
            h = then(h, inverses[j][h[j]])
        return h, n

    def residue(i):  # a Schreier generator at level i that does not strip
        level = level_gens(i)
        for x, u in trans[i].items():
            for p in level:
                h, j = strip(then(then(u, p), inverses[i][p[x]]), i + 1)
                if h != identity:
                    return h, j
        return None

    def refresh(k):
        trans[k] = transversal(k)
        inverses[k] = {x: inverse(u) for x, u in trans[k].items()}

    trans, inverses = [None] * n, [None] * n
    for k in range(n):
        refresh(k)
    i = n - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        strong.append(h)
        for k in range(i + 1, j + 1):
            refresh(k)
        i = j
    order = 1
    for reps in trans:
        order *= len(reps)
    return order


# -- the fractional-independence oracle: every {0, 1/2, 1} assignment --


def _cap(adj, w, i):
    """Largest weight (half units) vertex i can take next to the weights
    ``w`` already given to its neighbors below i."""
    cap = 2
    r = adj[i] & ((1 << i) - 1)
    while r:
        j = (r & -r).bit_length() - 1
        r &= r - 1
        cap = min(cap, 2 - w[j])
        if cap == 0:
            break
    return cap


def half_integral_optimum(h: Graph, limit=14):
    """``(alpha_f, half_units)`` by exhaustive search over the feasible
    {0, 1/2, 1} assignments, pruned only by the best total so far: the
    largest total, then the most weight-1 vertices, then the
    lexicographically smallest weight-1 set, with weights in half units."""
    if h.n > limit:
        raise ValueError(f"brute force limited to {limit} vertices, got {h.n}")
    n, adj = h.n, h.adj
    best = (-1,)  # (total, |A|, A negated, weights)
    w = [0] * n

    def rec(i, total, ones):
        nonlocal best
        if total + 2 * (n - i) < best[0]:
            return
        if i == n:
            if (total, ones) >= best[:2]:
                key = (total, ones, [-v for v in range(n) if w[v] == 2])
                if key > best[:3]:
                    best = (*key, tuple(w))
            return
        for val in range(_cap(adj, w, i), -1, -1):
            w[i] = val
            rec(i + 1, total + val, ones + (val == 2))
        w[i] = 0

    rec(0, 0, 0)
    return Fraction(best[0], 2), best[3]


def alpha_f_bruteforce(h: Graph, limit=14) -> Fraction:
    return half_integral_optimum(h, limit)[0]


# -- entropy-lab oracles: pairwise tuple predicates and Fraction arithmetic --


def links_ok(g: Graph, t, wrap):
    """The definition of a well-ordered (``wrap=False``) or
    cycle-characterizing (``wrap=True``) tuple of disjoint host edges, pair
    of entries by pair of entries: the links v_i u_{i+1} (and, with wrap,
    v_t u_1) are edges and no other pair of endpoints of distinct entries
    is."""
    tt = len(t)
    for i in range(tt):
        ui, vi = t[i]
        for j in range(i + 1, tt):
            uj, vj = t[j]
            required = set()
            if j == i + 1:
                required.add((vi, uj))
            if wrap and i == 0 and j == tt - 1:
                required.add((vj, ui))
            for a, b in ((ui, uj), (ui, vj), (vi, uj), (vi, vj)):
                want = (a, b) in required or (b, a) in required
                if g.has_edge(a, b) != want:
                    return False
    return True


def predicate_extension_edges(g: Graph, t, mode="path-extend", k=None):
    """Extension edges by testing ``t + e`` with ``links_ok`` in both
    orientations, edge by edge in ``g.edges()`` order."""
    t = tuple(tuple(e) for e in t)
    assert links_ok(g, t, wrap=False)
    if mode == "cycle-close":
        assert k == 2 * (len(t) + 1)
    wrap = mode == "cycle-close"
    used = {v for e in t for v in e}
    return [(x, y) for x, y in g.edges()
            if x not in used and y not in used
            and (links_ok(g, t + ((x, y),), wrap) or links_ok(g, t + ((y, x),), wrap))]


def is_capable(g: Graph, triple) -> bool:
    """Whether some ordering and orientation of three host edges
    characterizes an induced 6-cycle."""
    edges = list(triple)
    if len({tuple(sorted(e)) for e in edges}) != 3:
        return False
    for perm in permutations(edges):
        for bits in range(8):
            t = tuple(e if not bits >> i & 1 else (e[1], e[0]) for i, e in enumerate(perm))
            if len({v for e in t for v in e}) == 6 and links_ok(g, t, wrap=True):
                return True
    return False


def fraction_contribution_cap(adjacent, j, k):
    """The claim1 per-position cap, on a set of adjacent cycle positions,
    as a Fraction."""
    jn = (j + 1) % k
    if j in adjacent and jn in adjacent:
        return Fraction(0)
    if j in adjacent:
        window_clear = all((j + t) % k not in adjacent for t in range(2, k - 3))
        if window_clear and (j + k - 3) % k in adjacent:
            return Fraction(3, 2)
        return Fraction(1, 2)
    if jn in adjacent:
        return Fraction(1, 2)
    if not adjacent:
        return Fraction(0)
    d = min((p - j) % k for p in adjacent)
    return Fraction(1) if d % 2 else Fraction(0)


def fraction_ledger(host: Graph, seq):
    """The claim1 ledger of one induced even cycle, from predicate-tested
    extension sets and Fraction sums: a plus (minus) tuple of i entries at
    position j reads the cycle forwards (backwards) from position j, one
    entry per two steps."""
    from edgeind.entropy import ClaimLedger, LedgerRow

    seq = tuple(seq)
    k = len(seq)
    l = k // 2

    def forward(j, count):
        return tuple((seq[(j + 2 * t) % k], seq[(j + 2 * t + 1) % k]) for t in range(count))

    def backward(j, count):
        return tuple((seq[(j - 2 * t + 1) % k], seq[(j - 2 * t) % k]) for t in range(count))

    def sets(tuple_at, j):
        out = [set(predicate_extension_edges(host, tuple_at(j, 1)))]
        for i in range(2, l):
            mode = "path-extend" if i <= l - 2 else "cycle-close"
            out.append(set(predicate_extension_edges(host, tuple_at(j, i), mode, k)))
        return out

    plus_sets = [sets(forward, j) for j in range(k)]
    minus_sets = [sets(backward, j) for j in range(k)]
    s_plus = tuple(Fraction(len(ps[0]), 2) + sum(len(s) for s in ps[1:]) for ps in plus_sets)
    s_minus = tuple(Fraction(len(ms[0]), 2) + sum(len(s) for s in ms[1:]) for ms in minus_sets)
    rev = tuple(reversed(seq))
    rows, flagged = [], []
    for edge in host.edges():
        x, y = edge
        adjacent = tuple(j for j in range(k)
                         if host.has_edge(x, seq[j]) or host.has_edge(y, seq[j]))
        adjacent_rev = {j for j in range(k)
                        if host.has_edge(x, rev[j]) or host.has_edge(y, rev[j])}
        plus = [Fraction(edge in ps[0], 2) + sum(edge in s for s in ps[1:])
                for ps in plus_sets]
        minus = [Fraction(edge in ms[0], 2) + sum(edge in s for s in ms[1:])
                 for ms in minus_sets]
        pcaps, mcaps, flags = fraction_caps_and_flags(k, adjacent, adjacent_rev, plus, minus)
        rows.append(LedgerRow(edge, adjacent, tuple(plus), tuple(minus), pcaps, mcaps, flags))
        if flags:
            flagged.append((edge, flags))
    return ClaimLedger(seq, host.m, s_plus, s_minus, tuple(rows), tuple(flagged))


def fraction_caps_and_flags(k, adjacent, adjacent_rev, plus, minus):
    """The plus and minus caps of a claim1 row and its flags: a contribution
    over its case cap, or a total over the per-edge cap.  ``adjacent`` and
    ``adjacent_rev`` are the cycle positions adjacent to the edge, read on
    the cycle and on the reversed cycle; contributions are Fractions."""
    l = k // 2
    per_edge_cap = l if l >= 4 else l + 1
    pcaps, mcaps, flags = [], [], []
    for j in range(k):
        pcap = fraction_contribution_cap(set(adjacent), j, k)
        mcap = fraction_contribution_cap(set(adjacent_rev), (k - 2 - j) % k, k)
        pcaps.append(pcap)
        mcaps.append(mcap)
        if plus[j] > pcap:
            flags.append(f"plus_{j}_exceeds_case_cap")
        if minus[j] > mcap:
            flags.append(f"minus_{j}_exceeds_case_cap")
    if sum(plus) > per_edge_cap:
        flags.append("plus_total_exceeds_edge_cap")
    if sum(minus) > per_edge_cap:
        flags.append("minus_total_exceeds_edge_cap")
    return tuple(pcaps), tuple(mcaps), tuple(flags)


def gamma_by_filtering(g: Graph, t, e_last):
    """(gamma1, gamma2) for one final edge: enumerate the odd-path
    completions of prefix t and keep those ending in e_last."""
    from edgeind import enumerate_ordered

    l = len(t) + 1
    pins = [(q, v) for i, (a, b) in enumerate(t) for q, v in ((2 * i, a), (2 * i + 1, b))]
    e_last = tuple(sorted(e_last))
    sel = [c for c in enumerate_ordered(g, Graph.path(2 * l + 1), pins)
           if tuple(sorted((c[2 * l - 1], c[2 * l]))) == e_last]
    g1 = {tuple(sorted((c[2 * l - 3], c[2 * l - 2]))) for c in sel}
    g2 = {tuple(sorted((c[2 * l - 2], c[2 * l - 1]))) for c in sel}
    return len(g1), len(g2)


# -- entropy-lab oracles: tuple-by-tuple projections and edge views --


def _list_entropy(values):
    n = len(values)
    counts = Counter(values)
    return math.log(n) - reduce(add, (c * math.log(c) for c in counts.values()), 0.0) / n


def _list_cond_entropy(pairs):
    n = len(pairs)
    joint = Counter(pairs)
    marginal = Counter(g for _, g in pairs)
    return reduce(add, (c * (math.log(marginal[g]) - math.log(c))
                        for (_, g), c in joint.items()), 0.0) / n


def project(t, coords):
    """The tuple of t's entries at the 1-based coordinates."""
    return tuple(t[i - 1] for i in coords)


def projection_entropy_oracle(tuples, target, given=()):
    """Entropy (nats) of the projections of the uniform list of tuples onto
    the target coordinates, conditioned on the given ones, with every
    projection a tuple built coordinate by coordinate."""
    tuples = [tuple(t) for t in tuples]
    if not given:
        return _list_entropy([project(t, target) for t in tuples])
    return _list_cond_entropy([(project(t, target), project(t, given)) for t in tuples])


def odd_prefix(edges, count):
    """The first ``count`` odd-indexed entries (1-based) of an edge tuple."""
    return tuple(edges[2 * i] for i in range(count))


def even_entries(edges, count):
    """The first ``count`` even-indexed entries (1-based) of an edge tuple."""
    return tuple(edges[j] for j in range(1, 2 * count, 2))


def edge_tuples_oracle(copies, k, cycle):
    """Copies as tuples of oriented edges (c[i], c[i+1]), wrapping around
    for a cycle."""
    if cycle:
        return [tuple((c[i], c[(i + 1) % k]) for i in range(k)) for c in copies]
    return [tuple((c[i], c[i + 1]) for i in range(k - 1)) for c in copies]


# -- the path decomposition as it was written on edge tuples --


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _distinct_per_key(pairs):
    return Counter(g for _, g in set(pairs))


def path_decomposition_oracle(host: Graph, family):
    """``entropy.verify_path_decomposition`` on tuples of oriented edges:
    every projection a tuple of ``(u, v)`` pairs, every Counter keyed by
    those tuples, one ``math.log`` per copy and term, and the alpha count
    of each prefix memoised by the prefix tuple.  It adds its floats in
    the same order with the same primitives, so its report is the same to
    the byte."""
    from edgeind.entropy import CopyDistribution, EntropyReport, alpha_extension_edges
    from edgeind.graph import parse_family

    kind, k = parse_family(family)
    if kind != "P" or k < 4:
        raise ValueError("decomposition applies to paths on at least 4 vertices")
    edge_tuples = edge_tuples_oracle(CopyDistribution.collect(host, Graph.path(k)).copies, k, False)
    m = host.m
    n = len(edge_tuples)
    report = EntropyReport()
    report.value("ordered_copies", n)
    report.add("uniform_support", "identity", _list_entropy(edge_tuples), math.log(n))
    first_u = [_norm(*t[0]) for t in edge_tuples]
    report.add("first_edge_support", "inequality", _list_entropy(first_u), math.log(m))
    report.add("orientation_reveal", "inequality",
               _list_cond_entropy([(t[0], _norm(*t[0])) for t in edge_tuples]), math.log(2))
    alpha_memo = {}

    def alpha(prefix):
        if prefix not in alpha_memo:
            alpha_memo[prefix] = len(alpha_extension_edges(host, prefix))
        return alpha_memo[prefix]

    def odd_edge_chain(count):
        chain = _list_entropy([t[0] for t in edge_tuples])
        for i in range(1, count):
            prefixes = [t[:2 * i:2] for t in edge_tuples]
            cond = _list_cond_entropy([(t[2 * i], p) for t, p in zip(edge_tuples, prefixes)])
            chain += cond
            avg = reduce(add, (math.log(alpha(p)) for p in prefixes), 0.0) / n
            report.add(f"conditional_{2 * i + 1}_vs_extensions", "inequality", cond, avg)
        return chain

    if k % 2 == 0:
        l = k // 2
        chain = odd_edge_chain(l)
        h_evens = _list_cond_entropy([(t[1:2 * l - 2:2], t[:2 * l:2]) for t in edge_tuples])
        report.add("evens_determined", "identity", h_evens, 0.0)
        chain += h_evens
        report.add("chain_rule", "identity", _list_entropy(edge_tuples), chain)
        budgets = [sum(alpha(t[:2 * i:2]) for i in range(1, l)) for t in edge_tuples]
        report.add("per_copy_budget", "inequality", max(budgets), m)
        report.value("budget_equality_copies", sum(b == m for b in budgets))
        report.add("closed_form", "inequality",
                   math.log(n), math.log(m ** l / (l - 1) ** (l - 1)))
        return report

    l = (k - 1) // 2
    chain = odd_edge_chain(l - 1)
    prefixes = [t[:2 * l - 2:2] for t in edge_tuples]
    last_u = [_norm(*t[2 * l - 1]) for t in edge_tuples]
    last_pairs = list(zip(last_u, prefixes))
    h_last = _list_cond_entropy(last_pairs)
    gamma0 = _distinct_per_key(last_pairs)
    avg0 = reduce(add, (math.log(gamma0[p]) for p in prefixes), 0.0) / n
    report.add("conditional_final_vs_gamma0", "inequality", h_last, avg0)
    chain += h_last
    if l >= 3:
        middle = [(t[1:2 * l - 4:2], p) for t, p in zip(edge_tuples, prefixes)]
        report.add("middle_evens_determined", "identity", _list_cond_entropy(middle), 0.0)
    given = list(zip(prefixes, last_u))
    g1_u = [_norm(*t[2 * l - 3]) for t in edge_tuples]
    g2_u = [_norm(*t[2 * l - 2]) for t in edge_tuples]
    g1_pairs = list(zip(g1_u, given))
    g2_pairs = list(zip(g2_u, given))
    h_pair = _list_cond_entropy([((a, b), g) for a, b, g in zip(g1_u, g2_u, given)])
    h_g1 = _list_cond_entropy(g1_pairs)
    h_g2 = _list_cond_entropy(g2_pairs)
    gamma1 = _distinct_per_key(g1_pairs)
    gamma2 = _distinct_per_key(g2_pairs)
    report.add("pair_equals_first", "identity", h_pair, h_g1)
    report.add("pair_equals_second", "identity", h_pair, h_g2)
    avg1 = 0.0
    avg2 = 0.0
    budgets = []
    worst_amgm = None
    for t, prefix, key in zip(edge_tuples, prefixes, given):
        g0, g1, g2 = gamma0[prefix], gamma1[key], gamma2[key]
        avg1 += math.log(g1)
        avg2 += math.log(g2)
        a = [alpha(t[:2 * i:2]) for i in range(1, l - 1)]
        budgets.append(sum(a) + g0 + g1 + g2)
        lhs = (2 * reduce(add, map(math.log, a), 0.0) + 2 * math.log(g0) + math.log(g1)
               + math.log(g2))
        if worst_amgm is None or lhs > worst_amgm:
            worst_amgm = lhs
    avg1 /= n
    avg2 /= n
    report.add("conditional_secondlast_vs_gamma1", "inequality", h_g1, avg1)
    report.add("conditional_nexttolast_vs_gamma2", "inequality", h_g2, avg2)
    report.add("split_chain", "identity", _list_entropy(edge_tuples),
               chain + (h_g1 + h_g2) / 2)
    report.add("per_copy_budget", "inequality", max(budgets), m)
    report.value("budget_equality_copies", sum(b == m for b in budgets))
    report.add("per_copy_product_bound", "inequality",
               worst_amgm, math.log(0.25 * (m / l) ** (2 * l)))
    report.add("closed_form", "inequality",
               math.log(n), math.log(m ** (l + 1) / (2 * l ** l)))
    return report


# -- the JSON report oracle --


def normalize_report(obj):
    """Floats rounded to 12 significant digits, everything else untouched."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: normalize_report(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [normalize_report(v) for v in obj]
    return obj


def json_report_oracle(report):
    """The stdout text of a JSON report, by the standard library encoder."""
    out = io.StringIO()
    json.dump(normalize_report(report), out, indent=2)
    out.write("\n")
    return out.getvalue()


# -- the reference part-size optimizer --


def _moves(sizes):
    for i in range(len(sizes)):
        plus = list(sizes)
        plus[i] += 1
        yield tuple(plus)
        if sizes[i]:
            minus = list(sizes)
            minus[i] -= 1
            yield tuple(minus)
        for j in range(len(sizes)):
            if i != j and sizes[j]:
                move = list(sizes)
                move[i] += 1
                move[j] -= 1
                yield tuple(move)


def _rank(sizes, score):
    """Larger is better: the count, then the lexicographically smallest
    size vector."""
    return score(sizes), [-x for x in sizes]


def reference_climb(start, score, fits):
    """Steepest ascent over single +-1 moves and unit transfers between two
    parts.  Equal-score steps are allowed (plateaus hide the exits at tight
    budgets) with a visited set and an iteration cap keeping the walk
    finite; ties go to the lexicographically smallest size vector."""
    best = current = start
    visited = {start}
    for _ in range(200):
        score_here = score(current)
        step = None
        for cand in _moves(current):
            if cand in visited or not fits(cand):
                continue
            sc = score(cand)
            if sc < score_here:
                continue
            key = (sc, [-x for x in cand])
            if step is None or key > step[0]:
                step = (key, cand)
        if step is None:
            break
        current = step[1]
        visited.add(current)
        if _rank(current, score) > _rank(best, score):
            best = current
    return best


def reference_optimize(family, m):
    """The part-size optimizer climbing from every seed, whatever the
    budget, with every candidate checked by ``fits`` on its whole size
    vector."""
    from edgeind import blowups
    from edgeind.graph import family_graph, parse_family

    kind, arg = parse_family(family)
    pattern = family_graph(family)
    base, seeds = blowups._templates(kind, arg, m)
    fits = blowups._within(base, m)
    starts = [blowups._clip(s, fits) for s in seeds]
    score = blowups._scorer(base, pattern)
    climbed = [reference_climb(s, score, fits) for s in starts if fits(s)]
    return blowups.BlowupSpec(base, max(climbed, key=lambda s: _rank(s, score)))


def count_labellings(monkeypatch):
    """Wrap every loaded edgeind module's ``canonical_form`` so that each
    call, from any layer, is recorded; returns the list of graphs labelled."""
    calls = []
    form = kernels.canonical_form

    def counting_form(g):
        calls.append(g)
        return form(g)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("edgeind") and \
                getattr(module, "canonical_form", None) is form:
            monkeypatch.setattr(module, "canonical_form", counting_form)
    return calls


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 and later compute it, for running on
    older versions: ints exactly; once the total is a float, Neumaier's
    compensated summation over float items, with int items added plainly;
    any other item falls back to ``+``.  Matches the builtin of 3.13 bit
    for bit on random mixed int and float lists."""
    it = iter(iterable)
    total = start
    if type(total) is int:
        for item in it:
            total = total + item
            if type(item) not in (int, bool):
                break
    if type(total) is not float:
        for item in it:
            total = total + item
        return total
    f, c = total, 0.0
    for item in it:
        if type(item) is float:
            t = f + item
            c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
            f = t
        elif type(item) in (int, bool) and -2 ** 63 <= item < 2 ** 63:
            f += float(item)
        else:
            total = f + c if c and math.isfinite(c) else f
            for rest in (item, *it):
                total = total + rest
            return total
    return f + c if c and math.isfinite(c) else f
