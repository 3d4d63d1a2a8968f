"""Shared test oracles, deliberately independent of the package internals:
dumb recursion instead of bitset propagation, permutation minimums instead
of refinement, and a cycle-index count instead of generation."""

import io
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, gcd

from edgeind import Graph, canonical_label


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
            child = g.add_vertex(nb)
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
            yield g.add_edge(u, v)
    for u in range(n):
        yield g.add_vertex(1 << u)
    yield g.add_vertex(0).add_vertex(1 << n)


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
        return tuple(b[a[x]] for x in range(n))

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
            if h[j] not in trans[j]:
                return h, j
            h = then(h, inverse(trans[j][h[j]]))
        return h, n

    def residue(i):  # a Schreier generator at level i that does not strip
        for x, u in trans[i].items():
            for p in level_gens(i):
                h, j = strip(then(then(u, p), inverse(trans[i][p[x]])), i + 1)
                if h != identity:
                    return h, j
        return None

    trans = [transversal(i) for i in range(n)]
    i = n - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        strong.append(h)
        for k in range(i + 1, j + 1):
            trans[k] = transversal(k)
        i = j
    order = 1
    for reps in trans:
        order *= len(reps)
    return order


# -- entropy-lab oracles: whole-tuple predicates and Fraction arithmetic --


def predicate_extension_edges(g: Graph, t, mode="path-extend", k=None):
    """Extension edges by testing ``t + e`` with the tuple predicates in
    both orientations, edge by edge in ``g.edges()`` order."""
    from edgeind import characterizes_cycle, is_well_ordered

    t = tuple(tuple(e) for e in t)
    assert is_well_ordered(g, t)
    if mode == "cycle-close":
        assert k == 2 * (len(t) + 1)
        test = characterizes_cycle
    else:
        test = is_well_ordered
    used = {v for e in t for v in e}
    return [(x, y) for x, y in g.edges()
            if x not in used and y not in used
            and (test(g, t + ((x, y),)) or test(g, t + ((y, x),)))]


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
    per_edge_cap = l if l >= 4 else l + 1
    rows, flagged = [], []
    for edge in host.edges():
        x, y = edge
        adjacent = tuple(j for j in range(k)
                         if host.has_edge(x, seq[j]) or host.has_edge(y, seq[j]))
        adjacent_rev = {j for j in range(k)
                        if host.has_edge(x, rev[j]) or host.has_edge(y, rev[j])}
        plus, minus, pcaps, mcaps, flags = [], [], [], [], []
        for j in range(k):
            p = Fraction(edge in plus_sets[j][0], 2) + sum(edge in s for s in plus_sets[j][1:])
            q = Fraction(edge in minus_sets[j][0], 2) + sum(edge in s for s in minus_sets[j][1:])
            pcap = fraction_contribution_cap(set(adjacent), j, k)
            mcap = fraction_contribution_cap(adjacent_rev, (k - 2 - j) % k, k)
            plus.append(p)
            minus.append(q)
            pcaps.append(pcap)
            mcaps.append(mcap)
            if p > pcap:
                flags.append(f"plus_{j}_exceeds_case_cap")
            if q > mcap:
                flags.append(f"minus_{j}_exceeds_case_cap")
        if sum(plus) > per_edge_cap:
            flags.append("plus_total_exceeds_edge_cap")
        if sum(minus) > per_edge_cap:
            flags.append("minus_total_exceeds_edge_cap")
        rows.append(LedgerRow(edge, adjacent, tuple(plus), tuple(minus),
                              tuple(pcaps), tuple(mcaps), tuple(flags)))
        if flags:
            flagged.append((edge, tuple(flags)))
    return ClaimLedger(seq, host.m, s_plus, s_minus, tuple(rows), tuple(flagged))


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
    return math.log(n) - sum(c * math.log(c) for c in counts.values()) / n


def _list_cond_entropy(pairs):
    n = len(pairs)
    joint = Counter(pairs)
    marginal = Counter(g for _, g in pairs)
    return sum(c * (math.log(marginal[g]) - math.log(c)) for (_, g), c in joint.items()) / n


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
