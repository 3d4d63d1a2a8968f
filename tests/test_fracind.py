import random
from fractions import Fraction
from itertools import combinations

import pytest

from edgeind import (
    Graph,
    HalfIntegralWeighting,
    alpha_f,
    kernels,
    optimal_weighting,
)
from edgeind.fracind import _decompose

from helpers import (
    alpha_f_bruteforce,
    classes_on,
    disjoint_union,
    half_integral_optimum,
    random_graph,
)


def test_named_values():
    assert alpha_f(Graph.cycle(5)) == Fraction(5, 2)
    for k in range(3, 9):
        assert alpha_f(Graph.cycle(k)) == Fraction(k, 2)
        assert alpha_f(Graph.path(k)) == (k + 1) // 2
    assert alpha_f(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) == 3
    assert alpha_f_bruteforce(Graph.complete(2)) == 1
    assert alpha_f_bruteforce(Graph.from_edges(4, [(0, 1), (2, 3)])) == 2


def test_matching_equals_bruteforce_small_classes():
    for n in range(1, 7):
        for g in classes_on(n):
            assert alpha_f(g) == alpha_f_bruteforce(g)


def test_matching_equals_bruteforce_random():
    rng = random.Random(424242)
    for _ in range(120):
        g = random_graph(rng, rng.randint(8, 12), rng.choice([0.2, 0.5, 0.8]))
        assert alpha_f(g) == alpha_f_bruteforce(g)


def test_bruteforce_size_limit():
    with pytest.raises(ValueError):
        alpha_f_bruteforce(Graph.empty(15))


def assert_weighting_is_the_oracle_optimum(g):
    value, units = half_integral_optimum(g)
    weighting = HalfIntegralWeighting(units)
    assert alpha_f(g) == value
    assert optimal_weighting(g) == (weighting, _decompose(g, weighting))


def test_weighting_equals_oracle_on_small_classes(backends, monkeypatch):
    # every class on at most 8 vertices; the classes are labelled by the
    # compiled kernel when the session can build it, which only speeds
    # their generation up, since both backends give the same labels
    monkeypatch.setattr(kernels, "_impl", backends[-1])
    for n in range(9):
        for g in classes_on(n):
            assert_weighting_is_the_oracle_optimum(g)


def relabelled_graphs(rng, count):
    """Graphs on 9-13 vertices under a random relabelling: random graphs,
    and disjoint unions of random parts on 1-5 vertices, which bring
    several components and isolated vertices."""
    for i in range(count):
        n = rng.randint(9, 13)
        if i % 2:
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        else:
            parts = []
            while n:
                size = rng.randint(1, min(5, n))
                parts.append(random_graph(rng, size, rng.choice([0.3, 0.6, 0.9])))
                n -= size
            g = disjoint_union(*parts)
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g.relabel(perm)


def test_weighting_equals_oracle_on_relabelled_graphs():
    isolated = 0
    for g in relabelled_graphs(random.Random(16016), 200):
        assert_weighting_is_the_oracle_optimum(g)
        isolated += bool(g.isolated_vertices())
    assert isolated >= 20


def test_weighting_examples():
    w, d = optimal_weighting(Graph.path(5))
    assert w.half_units == (2, 0, 2, 0, 2)
    assert d.A == (0, 2, 4) and d.B == (1, 3) and d.C == ()
    assert d.matching == ((0, 1), (2, 3))
    w, d = optimal_weighting(Graph.cycle(5))
    assert d.A == () and len(d.C) == 5 and w.total == Fraction(5, 2)
    w, d = optimal_weighting(Graph.complete(2))
    assert d.A == (0,) and d.B == (1,) and d.matching == ((0, 1),)


def test_isolated_vertices_join_weight_one_side():
    g = Graph.from_edges(4, [(1, 2)])
    w, d = optimal_weighting(g)
    assert 0 in d.A and 3 in d.A
    assert w.total == 3


def test_decomposition_invariants():
    rng = random.Random(8888)
    for _ in range(80):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        w, d = optimal_weighting(g)
        assert w.total == alpha_f(g)
        a_set = set(d.A)
        # A independent, B = N(A)
        for u in d.A:
            assert not set(g.neighbors(u)) & a_set
        neighborhood = set()
        for u in d.A:
            neighborhood.update(g.neighbors(u))
        assert neighborhood == set(d.B)
        # matching covers B into A
        assert len(d.matching) == len(d.B)
        assert {b for _, b in d.matching} == set(d.B)
        assert all(a in a_set and g.has_edge(a, b) for a, b in d.matching)
        matched_a = [a for a, _ in d.matching]
        assert len(set(matched_a)) == len(matched_a)
        assert len(d.A) >= len(d.B)
        # Hall condition in H[A, B]
        for size in range(1, len(d.B) + 1):
            for subset in combinations(d.B, size):
                seen = set()
                for b in subset:
                    seen.update(v for v in g.neighbors(b) if v in a_set)
                assert len(seen) >= size
        # the half-weight part is itself half-integrally tight
        hc = g.induced_subgraph(d.C)
        assert alpha_f(hc) == Fraction(len(d.C), 2)


def test_all_halves_case():
    rng = random.Random(1312)
    checked = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 8), 0.5)
        w, d = optimal_weighting(g)
        if d.A:
            continue
        checked += 1
        for v in range(g.n):
            keep = [u for u in range(g.n) if u != v]
            assert alpha_f(g.induced_subgraph(keep)) == Fraction(g.n - 1, 2)
    assert checked >= 3


def test_additive_over_components():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    assert alpha_f(g) == alpha_f(Graph.path(3)) + 2 * alpha_f(Graph.complete(2))
