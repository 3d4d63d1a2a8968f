import random

import pytest
from hypothesis import given, settings, strategies as st

from edgeind import (
    Graph,
    InvalidTupleError,
    alpha_extension_edges,
    alpha_extensions,
    beta_embeddings,
    characterizes_cycle,
    count_induced,
    enumerate_ordered,
    gamma_table,
    is_well_ordered,
    kernels,
)

from helpers import (
    complete_bipartite,
    gamma_by_filtering,
    naive_count_ordered,
    naive_count_unordered,
    petersen,
    predicate_extension_edges,
    random_graph,
)

PATTERNS = {
    "P3": Graph.path(3),
    "P4": Graph.path(4),
    "P5": Graph.path(5),
    "C4": Graph.cycle(4),
    "C5": Graph.cycle(5),
    "C6": Graph.cycle(6),
    "K3": Graph.complete(3),
    "K4": Graph.complete(4),
}


def test_count_examples():
    c5 = Graph.cycle(5)
    s = count_induced(c5, c5)
    assert (s.ordered, s.unordered) == (10, 1)
    assert count_induced(complete_bipartite(3, 3), Graph.cycle(4)).unordered == 9
    assert count_induced(petersen(), Graph.cycle(5)).unordered == 12


def test_isolated_pattern_rejected():
    with pytest.raises(ValueError):
        count_induced(Graph.cycle(4), Graph.from_edges(3, [(0, 1)]))


def test_counts_match_naive_enumeration():
    rng = random.Random(2718)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 8), rng.choice([0.3, 0.5, 0.7]))
        for h in PATTERNS.values():
            s = count_induced(g, h)
            assert s.ordered == naive_count_ordered(g, h)
            assert s.ordered == s.unordered * s.aut


def test_ordered_divisible_by_aut():
    rng = random.Random(161)
    for _ in range(25):
        g = random_graph(rng, 9, 0.4)
        for h in PATTERNS.values():
            s = count_induced(g, h)
            assert s.ordered % s.aut == 0


def test_well_ordered_examples():
    c6 = Graph.cycle(6)
    assert is_well_ordered(c6, [(0, 1), (2, 3)])
    assert not is_well_ordered(c6, [(0, 1), (3, 4)])
    k4 = Graph.complete(4)
    assert not is_well_ordered(k4, [(0, 1), (2, 3)])


def test_tuple_validation_errors():
    c6 = Graph.cycle(6)
    with pytest.raises(InvalidTupleError):
        is_well_ordered(c6, [(0, 2)])  # not an edge
    with pytest.raises(InvalidTupleError):
        is_well_ordered(c6, [(0, 1), (1, 2)])  # shared vertex
    with pytest.raises(InvalidTupleError):
        is_well_ordered(c6, [])
    # -1 would alias vertex 5 through negative indexing; 6 is past the host
    for t in ([(-1, 0)], [(-1, 0), (1, 2)], [(0, 1), (6, 5)]):
        for check in (is_well_ordered, characterizes_cycle, alpha_extension_edges):
            with pytest.raises(InvalidTupleError, match="outside"):
                check(c6, t)


def test_alpha_examples():
    c6 = Graph.cycle(6)
    assert alpha_extensions(c6, [(0, 1)]) == 1
    assert alpha_extensions(c6, [(0, 1), (2, 3)], "cycle-close") == 1
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert alpha_extensions(star, [(1, 0)]) == 0
    with pytest.raises(ValueError):
        alpha_extensions(c6, [(0, 1), (3, 4)])  # not well-ordered


def test_characterizes_cycle():
    c4 = Graph.cycle(4)
    assert characterizes_cycle(c4, [(0, 1), (2, 3)])
    c6 = Graph.cycle(6)
    assert characterizes_cycle(c6, [(0, 1), (2, 3), (4, 5)])
    assert not characterizes_cycle(c6, [(1, 0), (2, 3), (4, 5)])


def test_beta_examples_and_partition():
    c6 = Graph.cycle(6)
    assert beta_embeddings(c6, [(0, 1), (2, 3), (4, 5)], "C6") == 1
    assert beta_embeddings(c6, [(0, 1)], "P5") == 1
    # partition: summing beta over the realized odd prefixes of every copy
    # recovers the ordered count, for each prefix length
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(rng, 8, 0.45)
        copies = enumerate_ordered(g, Graph.path(5))
        if not copies:
            continue
        for t in (1, 2):
            prefixes = {}
            for c in copies:
                key = tuple((c[2 * i], c[2 * i + 1]) for i in range(t))
                prefixes[key] = prefixes.get(key, 0) + 1
            total = 0
            for key, expected in prefixes.items():
                b = beta_embeddings(g, key, "P5")
                assert b == expected
                total += b
            assert total == len(copies)


def test_gamma_examples():
    c6 = Graph.cycle(6)
    assert gamma_table(c6, [(0, 1)]) == {(3, 4): (1, 1)}
    k23 = complete_bipartite(2, 3)
    assert gamma_table(k23, [(0, 2)]) == {}
    with pytest.raises(ValueError):
        gamma_table(c6, [])


def test_path_budget_sets_disjoint():
    # along any fixed ordered induced path, the extension sets at each
    # prefix length (plus the feasible-final-edge sets for odd paths) are
    # pairwise disjoint edge sets, so their sizes fit inside m
    rng = random.Random(5150)
    hosts = [Graph.cycle(6), Graph.cycle(7)]
    for _ in range(10):
        hosts.append(random_graph(rng, 9, 0.35))
    for g in hosts:
        m = g.m
        for k, l in ((4, 2), (6, 3)):
            for c in enumerate_ordered(g, Graph.path(k)):
                edges = [(c[i], c[i + 1]) for i in range(k - 1)]
                sets = []
                for i in range(1, l):
                    sets.append(set(alpha_extension_edges(g, tuple(edges[2 * j] for j in range(i)))))
                for a in range(len(sets)):
                    for b in range(a + 1, len(sets)):
                        assert not sets[a] & sets[b]
                assert sum(len(s) for s in sets) <= m
        for k, l in ((5, 2), (7, 3)):
            for c in enumerate_ordered(g, Graph.path(k)):
                edges = [(c[i], c[i + 1]) for i in range(k - 1)]
                prefix = tuple(edges[2 * j] for j in range(l - 1))
                sets = []
                for i in range(1, l - 1):
                    sets.append(set(alpha_extension_edges(g, prefix[:i])))
                table = gamma_table(g, prefix)
                gamma1, gamma2 = table[tuple(sorted(edges[2 * l - 1]))]
                for s in sets:
                    assert not s & table.keys()
                assert sum(len(s) for s in sets) + len(table) + gamma1 + gamma2 <= m


def test_beta_partition_for_cycles():
    from edgeind import BlowupSpec, blow_up

    rng = random.Random(1999)
    hosts = [
        Graph.cycle(6),
        blow_up(BlowupSpec(Graph.cycle(6), (2, 1, 1, 1, 1, 1))),
        blow_up(BlowupSpec(Graph.cycle(6), (2, 1, 2, 1, 1, 1))),
    ]
    for _ in range(10):
        hosts.append(random_graph(rng, 8, 0.4))
    seen = 0
    for g in hosts:
        copies = enumerate_ordered(g, Graph.cycle(6))
        if not copies:
            continue
        seen += 1
        for t in (1, 2, 3):
            prefixes = {}
            for c in copies:
                key = tuple((c[2 * i], c[(2 * i + 1) % 6]) for i in range(t))
                prefixes[key] = prefixes.get(key, 0) + 1
            total = 0
            for key, expected in prefixes.items():
                b = beta_embeddings(g, key, "C6")
                assert b == expected
                total += b
            assert total == len(copies)
    assert seen >= 3


def test_parse_graph6_file():
    from edgeind import parse_graph6_file, write_graph6

    lines = [write_graph6(Graph.cycle(5)), "", write_graph6(Graph.path(3)) + "\n"]
    graphs = parse_graph6_file(lines)
    assert [g.n for g in graphs] == [5, 3]


def test_count_of_smaller_host_is_zero():
    assert count_induced(Graph.path(3), Graph.cycle(4)).unordered == 0


@st.composite
def hosts_with_path_tuples(draw, max_n=12):
    """A host on at most 12 vertices, random or a blown-up cycle with a few
    pairs flipped, and the odd-edge tuple of one of its ordered induced
    paths on 2i vertices, oriented along the path: a well-ordered tuple of
    i entries."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(2, max_n))
        p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.7]))
        g = random_graph(rng, n, p)
    else:
        k = draw(st.integers(4, 8))
        sizes = [1 + (rng.random() < 0.4) for _ in range(k)]
        while sum(sizes) > max_n:
            sizes[sizes.index(2)] = 1
        part = [i for i, size in enumerate(sizes) for _ in range(size)]
        n = len(part)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if (part[u] - part[v]) % k in (1, k - 1)}
        edges ^= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05}
        name = list(range(n))
        rng.shuffle(name)
        g = Graph.from_edges(n, [(name[u], name[v]) for u, v in edges])
    for entries in range(draw(st.integers(1, 4)), 0, -1):
        copies = enumerate_ordered(g, Graph.path(2 * entries))
        if copies:
            c = copies[draw(st.integers(0, len(copies) - 1))]
            return g, tuple((c[2 * i], c[2 * i + 1]) for i in range(entries))
    return Graph.path(2), ((0, 1),)


@settings(max_examples=300, deadline=None, database=None)
@given(hosts_with_path_tuples())
def test_extension_sets_match_tuple_predicates(case):
    g, t = case
    for mode, k in (("path-extend", None), ("cycle-close", 2 * (len(t) + 1))):
        got = alpha_extension_edges(g, t, mode)
        assert got == predicate_extension_edges(g, t, mode, k)
        assert got == sorted(got) and all(u < v for u, v in got)


def test_extension_sets_close_c4_from_one_entry():
    c4 = Graph.cycle(4)
    assert alpha_extension_edges(c4, [(0, 1)], "cycle-close") == [(2, 3)]
    assert alpha_extension_edges(c4, [(1, 0)], "cycle-close") == [(2, 3)]
    k33 = complete_bipartite(3, 3)
    for t in ([(0, 3)], [(3, 0)]):
        got = alpha_extension_edges(k33, t, "cycle-close")
        assert got == predicate_extension_edges(k33, t, "cycle-close", 4)
        assert len(got) == 4
    with pytest.raises(ValueError):
        alpha_extension_edges(c4, [(0, 1)], "cycle-open")


def test_gamma_table_matches_filtered_completions():
    rng = random.Random(4242)
    hosts = [Graph.cycle(7), Graph.cycle(9)]
    for _ in range(12):
        hosts.append(random_graph(rng, rng.randint(7, 10), rng.choice([0.3, 0.4])))
    checked = 0
    for g in hosts:
        for k, l in ((5, 2), (7, 3)):
            prefixes = {tuple((c[2 * i], c[2 * i + 1]) for i in range(l - 1))
                        for c in enumerate_ordered(g, Graph.path(k))}
            for t in sorted(prefixes):
                table = gamma_table(g, t)
                assert list(table) == sorted(table)
                for e, gammas in table.items():
                    assert gammas == gamma_by_filtering(g, t, e)
                    checked += 1
    assert checked > 50
    with pytest.raises(ValueError):
        gamma_table(Graph.cycle(6), [(0, 1), (3, 4)])


def test_gamma_sets_grouped_from_the_copies_equal_gamma_table():
    """The odd-path check reads gamma off the ordered copies of P_k: those
    sharing an odd-edge prefix are exactly the completions gamma_table
    enumerates for it."""
    rng = random.Random(5791)
    checked = 0
    for _ in range(12):
        g = random_graph(rng, rng.randint(7, 11), rng.choice([0.25, 0.35, 0.45]))
        for k in (5, 7, 9):
            l = (k - 1) // 2
            copies = enumerate_ordered(g, Graph.path(k))
            finals = {}
            for c in copies:
                prefix = tuple((c[2 * i], c[2 * i + 1]) for i in range(l - 1))
                last = tuple(sorted((c[2 * l - 1], c[2 * l])))
                g1, g2 = finals.setdefault(prefix, {}).setdefault(last, (set(), set()))
                g1.add(tuple(sorted((c[2 * l - 3], c[2 * l - 2]))))
                g2.add(tuple(sorted((c[2 * l - 2], c[2 * l - 1]))))
            for prefix, by_last in finals.items():
                grouped = {e: (len(a), len(b)) for e, (a, b) in sorted(by_last.items())}
                table = gamma_table(g, prefix)
                assert grouped == table and list(grouped) == list(table)
                checked += 1
            # the counting the check itself does, on (value, key) columns
            pairs = [(e, p) for p, by_last in finals.items() for e in by_last] * 2
            if pairs:  # the kernel entries take non-empty columns
                values = [u * g.n + v for (u, v), _ in pairs]
                keys = [sum(p, ()) for _, p in pairs]
                counts = kernels.distinct_counts(values, keys)
                assert counts == [len(finals[p]) for _, p in pairs]
    assert checked > 100
