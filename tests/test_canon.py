import random
from itertools import permutations
from math import factorial

from edgeind import (
    Graph,
    automorphism_order,
    canonical_form,
    canonical_label,
    enumerate_m_edge_graphs,
    parse_graph6,
    write_graph6,
)

from helpers import (brute_min_code, classes_on, complete_bipartite, disjoint_union,
                     permutation_group_order, random_graph)


def test_relabelings_share_one_label():
    rng = random.Random(99)
    g = random_graph(rng, 5, 0.5)
    labels = {canonical_label(g.relabel(list(p))) for p in permutations(range(5))}
    assert len(labels) == 1


def test_label_applies_perm():
    rng = random.Random(4)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        form = canonical_form(g)
        assert write_graph6(g.relabel(form.perm)) == form.label


def test_labels_separate_nonisomorphic_classes():
    # brute-force min codes partition small graphs exactly like labels do
    for n in range(1, 6):
        by_label = {}
        for g in classes_on(n):
            by_label.setdefault(canonical_label(g), []).append(g)
        codes = {brute_min_code(g) for g in classes_on(n)}
        assert len(by_label) == len(classes_on(n)) == len(codes)


def test_p4_differs_from_star():
    assert canonical_label(Graph.path(4)) != canonical_label(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    )


def test_idempotent():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        form = canonical_form(g)
        again = canonical_form(g.relabel(form.perm))
        assert again.label == form.label


def test_symmetric_worst_cases_are_fast():
    star = Graph.from_edges(13, [(0, i) for i in range(1, 13)])
    assert canonical_label(star) == canonical_label(star.relabel(list(range(12, -1, -1))))
    matching = Graph.from_edges(24, [(2 * i, 2 * i + 1) for i in range(12)])
    assert parse_graph6(canonical_label(matching)).m == 12
    assert canonical_label(Graph.complete(10))


def exhaustive_automorphisms(g):
    return sum(
        1
        for p in permutations(range(g.n))
        if all((g.has_edge(u, v) == g.has_edge(p[u], p[v])) for u in range(g.n) for v in range(g.n))
    )


def test_automorphism_order_examples():
    assert automorphism_order(Graph.complete(4)) == 24
    assert automorphism_order(Graph.cycle(6)) == 12
    assert automorphism_order(Graph.path(5)) == 2
    assert automorphism_order(Graph.empty(1)) == 1


def test_automorphism_order_exhaustive_small():
    for n in range(1, 7):
        for g in classes_on(n):
            assert automorphism_order(g) == exhaustive_automorphisms(g)


def test_generators_generate_the_automorphism_group():
    for m in range(8):
        for g in enumerate_m_edge_graphs(m):
            gens = canonical_form(g).gens
            assert list(gens) == sorted(set(gens))
            assert all(g.relabel(p) == g for p in gens)
            assert permutation_group_order(gens, g.n) == automorphism_order(g)


def test_generators_of_stars_and_matchings_on_both_twins(backends):
    # |Aut| is k! for K_{1,k} and 2^k k! for kK2, far beyond counting the
    # self-maps; the subtree abandonment keeps the generating set small
    # (one label of K_{1,61} used to find 1,830 generators)
    cases = [(complete_bipartite(1, k), factorial(k)) for k in (29, 40, 61)]
    cases += [(disjoint_union(*[Graph.complete(2)] * k), 2 ** k * factorial(k))
              for k in (12, 31)]
    for g, order in cases:
        results = {backend.canonical_search(g.adj) for backend in backends}
        assert len(results) == 1
        label, perm, gens = results.pop()
        assert write_graph6(g.relabel(perm)) == label
        assert len(gens) <= g.n - 1
        assert all(g.relabel(p) == g for p in gens)
        assert permutation_group_order(gens, g.n) == order
