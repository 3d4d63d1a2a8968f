"""Shared test oracles, deliberately independent of the package internals:
dumb recursion instead of bitset propagation, permutation minimums instead
of refinement, and a cycle-index count instead of generation."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
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
