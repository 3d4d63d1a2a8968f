import math
import os
import random
import shlex
import subprocess
import sys
import sysconfig
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from edgeind import Graph, canonical_form, kernels, parse_graph6, write_graph6
from edgeind import _kernels_py

from helpers import (
    complete_bipartite,
    disjoint_union,
    one_edge_extensions,
    petersen,
    random_graph,
)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, chosen) if keep])


@st.composite
def cycle_unions(draw, max_n=16):
    """Disjoint cycles, randomly relabelled, with an optional extra matching:
    refinement cannot split their degree classes, so the search meets leaves
    with different certificates."""
    lengths = draw(st.lists(st.integers(3, 8), min_size=1, max_size=4)
                   .filter(lambda ls: sum(ls) <= max_n))
    n = sum(lengths)
    name = draw(st.permutations(range(n)))
    edges, start = set(), 0
    for k in lengths:
        edges |= {(start + i, start + (i + 1) % k) for i in range(k)}
        start += k
    if draw(st.booleans()):
        for a, b in zip(name[0::2], name[1::2]):
            if (a, b) not in edges and (b, a) not in edges:
                edges.add((a, b))
    return Graph.from_edges(n, [(name[u], name[v]) for u, v in edges])


@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(graphs(), cycle_unions()))
def test_backends_agree_on_labels(compiled, g):
    assert compiled.canonical_search(g.adj) == _kernels_py.canonical_search(g.adj)


def test_backends_agree_on_symmetric_labels(compiled):
    cases = [Graph.cycle(19), Graph.complete(10), Graph.empty(12), petersen(),
             complete_bipartite(5, 6),
             Graph.from_edges(24, [(2 * i, 2 * i + 1) for i in range(12)])]
    for g in cases:
        assert compiled.canonical_search(g.adj) == _kernels_py.canonical_search(g.adj)


def test_backends_agree_on_labels_up_to_64_vertices(compiled):
    # 63 and 64 vertices take graph6's 4-byte header
    rng = random.Random(64)
    for n in (40, 62, 63, 64):
        for p in (0.08, 0.5):
            g = random_graph(rng, n, p)
            label, perm, gens = compiled.canonical_search(g.adj)
            assert (label, perm, gens) == _kernels_py.canonical_search(g.adj)
            assert label.startswith("~") == (n > 62)
            assert g.relabel(perm) == parse_graph6(label)


def _pure_never_asked():
    raise AssertionError("the pure twin was asked")


def test_labels_above_64_vertices_take_the_pure_path(compiled, monkeypatch):
    # the compiled entry answers NotImplemented above its word and kernels
    # asks the pure twin, which it never asks within the word
    g = Graph.path(65)
    assert compiled.canonical_search(g.adj) is NotImplemented
    monkeypatch.setattr(kernels, "_impl", compiled)
    assert canonical_form(g).label == _kernels_py.canonical_search(g.adj)[0]
    monkeypatch.setattr(kernels, "_pure", _pure_never_asked)
    assert canonical_form(Graph.path(64)) == compiled.canonical_search(Graph.path(64).adj)


def test_hosts_above_the_word_take_the_pure_twin(compiled, monkeypatch):
    # every graph entry on a 65-vertex host, through kernels with the
    # compiled twin active, gives the pure twin's answer
    g = random_graph(random.Random(65), 65, 0.1)
    h = Graph.path(3)
    order = kernels.visit_order(h)
    labels = [write_graph6(Graph.cycle(5)), write_graph6(g)]
    monkeypatch.setattr(kernels, "_impl", compiled)
    assert kernels.canonical_form(g) == _kernels_py.canonical_search(g.adj)
    assert kernels.count_ordered(g, h) == _kernels_py.count_ordered(g.adj, h.adj, order, ())
    assert kernels.enumerate_ordered(g, h) == \
        sorted(_kernels_py.enumerate_ordered(g.adj, h.adj, order, ()))
    assert kernels.count_ordered_many(labels, h) == \
        _kernels_py.count_ordered_many(labels, h.adj, order)
    assert kernels.count_ordered_many(labels, h)[0] == 10


@settings(max_examples=150, deadline=None, database=None)
@given(graphs(max_n=10), st.integers(0, 3))
def test_backends_agree_on_growth(compiled, parent, keep):
    # seen-sets empty and holding every (keep + 1)-th new class; the parent
    # label need not be canonical, and each child label is its own label
    label = write_graph6(parent)
    fresh = _kernels_py.children(label, set())
    for start in (set(), set(fresh[::keep + 1])):
        seen_c, seen_py = set(start), set(start)
        new = compiled.children(label, seen_c)
        assert new == _kernels_py.children(label, seen_py)
        assert seen_c == seen_py == start | set(fresh)
        assert new == [child for child in fresh if child not in start]
    for child_label in fresh:
        child = parse_graph6(child_label)
        assert compiled.canonical_search(child.adj)[0] == child_label
        assert child.m == parent.m + 1 and child.n - parent.n in (0, 1, 2)


def test_growth_up_to_the_word(compiled):
    # the disjoint edge of a 62-vertex parent fills the word, and the
    # compiled entry answers NotImplemented for a 63- or 64-vertex parent,
    # whose disjoint-edge child would not fit, with ``seen`` untouched
    label = write_graph6(Graph.path(62))
    assert not label.startswith("~")
    new = compiled.children(label, set())
    assert len(new) == len(set(new))
    children = [parse_graph6(child) for child in new]
    assert {child.n for child in children} == {62, 63, 64}
    assert [child.n for child in children].count(64) == 1
    for child_label, child in zip(new, children):
        assert child_label.startswith("~") == (child.n > 62)
        assert child.m == 62
    assert compiled.children(label, set(new)) == []
    for n in (63, 64):
        label = write_graph6(Graph.path(n))
        assert label.startswith("~")
        seen = {"A_"}
        assert compiled.children(label, seen) is NotImplemented
        assert seen == {"A_"}
    with pytest.raises(TypeError):
        compiled.children(write_graph6(Graph.path(3)), frozenset())


def test_backends_agree_on_counts_and_lists(compiled):
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 11), rng.random())
        h = random_graph(rng, rng.randint(2, 5), 0.6)
        order = kernels.visit_order(h)
        pure = _kernels_py.count_ordered(g.adj, h.adj, order, [])
        fast = compiled.count_ordered(g.adj, h.adj, order, [])
        assert pure == fast
        assert _kernels_py.enumerate_ordered(g.adj, h.adj, order, []) == \
            compiled.enumerate_ordered(g.adj, h.adj, order, [])


def test_backends_agree_with_pins(compiled):
    # counts and lists under two random pins, two pins on one host vertex,
    # every vertex pinned to a copy, and every vertex pinned at random;
    # the inconsistent and the fully pinned cases end before any search
    rng = random.Random(32)
    h = Graph.path(4)
    seen = set()
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 10), 0.5)
        twice = rng.randrange(g.n)
        pin_sets = [[(0, rng.randrange(g.n)), (1, rng.randrange(g.n))], [(0, twice), (1, twice)],
                    list(enumerate(rng.sample(range(g.n), h.n)))]
        copies = _kernels_py.enumerate_ordered(g.adj, h.adj, kernels.visit_order(h), [])
        if copies:
            pin_sets.append(list(enumerate(rng.choice(copies))))
        for pins in pin_sets:
            pats = [p for p, _ in pins]
            hosts = [v for _, v in pins]
            args = (g.adj, h.adj, kernels.visit_order(h, pats), hosts)
            count = _kernels_py.count_ordered(*args)
            assert count == compiled.count_ordered(*args)
            listed = _kernels_py.enumerate_ordered(*args)
            assert listed == compiled.enumerate_ordered(*args)
            assert len(listed) == count
            seen.add((len(pins) == h.n, _kernels_py._setup(*args) is None, count))
    # a fully pinned copy, a fully pinned inconsistent set, and an
    # inconsistent partial set all occur
    assert {(True, False, 1), (True, True, 0), (False, True, 0)} <= seen


def test_pins_are_read_once_and_range_checked(backends, monkeypatch):
    # a generator of pins is as good as a list, and a pin outside the
    # pattern's or the host's vertices raises IndexError on either backend
    c6, p3 = Graph.cycle(6), Graph.path(3)
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        assert kernels.count_ordered(c6, p3, iter([(0, 0), (1, 1)])) == 1
        assert kernels.enumerate_ordered(c6, p3, ((p, v) for p, v in [(0, 0), (1, 1)])) == \
            [(0, 1, 2)]
        for bad in (-1, c6.n):
            with pytest.raises(IndexError):
                kernels.count_ordered(c6, p3, [(0, bad)])
            with pytest.raises(IndexError):
                kernels.enumerate_ordered(c6, p3, [(0, 0), (1, bad)])
        for bad in (-1, p3.n):
            with pytest.raises(IndexError):
                kernels.count_ordered(c6, p3, [(bad, 0)])


def test_backends_agree_on_64_vertex_hosts(compiled):
    rng = random.Random(33)
    hosts = [complete_bipartite(32, 32), random_graph(rng, 64, 0.1),
             random_graph(rng, 64, 0.9)]
    patterns = [Graph.path(3), Graph.cycle(4), Graph.complete(3), Graph.from_edges(3, [(0, 1)])]
    for g in hosts:
        for h in patterns:
            for pins in ([], [(0, 63)], [(0, 63), (1, rng.randrange(64))]):
                pats, hosts_ = [p for p, _ in pins], [v for _, v in pins]
                order = kernels.visit_order(h, pats)
                args = (g.adj, h.adj, order, hosts_)
                count = compiled.count_ordered(*args)
                assert count == _kernels_py.count_ordered(*args)
                if count <= 50000:
                    copies = compiled.enumerate_ordered(*args)
                    assert len(copies) == count
                    assert copies == _kernels_py.enumerate_ordered(*args)


def test_growth_of_symmetric_parents(compiled):
    # the compiled entry labels one extension per orbit of the parent's
    # automorphisms and the pure twin labels them all; on these parents
    # most extensions are skipped
    c5 = Graph.cycle(5)
    parents = [Graph.complete(8), complete_bipartite(4, 4),
               complete_bipartite(1, 12), disjoint_union(*[Graph.complete(2)] * 8),
               disjoint_union(c5, c5, c5), Graph.cycle(16)]
    for parent in map(write_graph6, parents):
        fresh = _kernels_py.children(parent, set())
        half = set(fresh[::2])
        seen_py = set(half)
        runs = [(set(), fresh, set(fresh)),
                (half, _kernels_py.children(parent, seen_py), seen_py)]
        for start, pure, pure_seen in runs:
            seen_c = set(start)
            assert compiled.children(parent, seen_c) == pure
            assert seen_c == pure_seen


def _path_complement(n):
    full = (1 << n) - 1
    return Graph(n, [full ^ 1 << v ^ row for v, row in enumerate(Graph.path(n).adj)])


def test_growth_of_a_63_vertex_parent(compiled, monkeypatch):
    # the smallest parent the compiled entry declines: its disjoint-edge
    # child has 65 vertices.  The complement of P63 has 62 non-edges, so
    # the pure twin labels its 126 extensions in about a second (K63's 63
    # pendant extensions take it over ten); through kernels the compiled
    # twin declines and the pure twin answers, parent + K2 last
    graph = _path_complement(63)
    parent = write_graph6(graph)
    seen = {"A_"}
    assert compiled.children(parent, seen) is NotImplemented
    assert seen == {"A_"}
    seen_py = set()
    new = _kernels_py.children(parent, seen_py)
    assert seen_py == set(new) and len(new) == len(seen_py)
    sizes = [parse_graph6(child).n for child in new]
    assert set(sizes) == {63, 64, 65} and sizes.count(65) == 1
    plus_k2 = disjoint_union(graph, Graph.complete(2))
    assert new[-1] == _kernels_py.canonical_search(plus_k2.adj)[0]
    monkeypatch.setattr(kernels, "_impl", compiled)
    assert kernels.children(parent, set()) == new


def test_growth_past_the_largest_graph_raises(backends, monkeypatch):
    # a child of a 127- or 128-vertex parent would pass the 128-vertex
    # limit of a graph: the pure twin raises before labelling any
    # extension, whether it is active or the compiled one declines, with
    # ``seen`` untouched
    for n in (127, 128):
        parent = write_graph6(_path_complement(n))
        for backend in backends:
            monkeypatch.setattr(kernels, "_impl", backend)
            seen = {"A_"}
            with pytest.raises(ValueError):
                kernels.children(parent, seen)
            assert seen == {"A_"}


def test_growth_of_symmetric_62_vertex_parents(compiled):
    # the whole word, the disjoint edge's 64 vertices included: each parent
    # against a compiled label of every one-edge extension.  31K2 and
    # K_{1,61} are the most symmetric parents; a subtree that an
    # automorphism maps onto an explored one is abandoned, so their labels
    # take milliseconds
    parents = [disjoint_union(Graph.cycle(50), *[Graph.cycle(4)] * 3),
               disjoint_union(*[Graph.complete(2)] * 31), complete_bipartite(1, 61)]
    for parent in parents:
        extensions = one_edge_extensions(parent)
        labels = {compiled.canonical_search(child.adj)[0] for child in extensions}
        new = compiled.children(write_graph6(parent), set())
        assert len(new) == len(labels)
        assert set(new) == labels


def test_kernel_source_compiles_without_warnings(built_lib):
    # built_lib skips without a C compiler or the Python headers
    cc = shlex.split(sysconfig.get_config_var("CC"))
    source = os.path.join(os.path.dirname(kernels.__file__), "_kernels.c")
    proc = subprocess.run(
        [*cc, "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
         "-I", sysconfig.get_paths()["include"], source],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_setup_build_compiles_the_extension(built_lib):
    # a compiled extension that silently failed to build would leave the
    # package on the pure backend.  No environment variable selects the
    # twin, so EDGEIND_PURE=1 leaves labelling and counting on the
    # compiled kernel
    probe = (
        "from edgeind import Graph, canonical_form, kernels, _kernels, _kernels_py\n"
        "g = Graph.cycle(5)\n"
        "calls = []\n"
        "for name in ('canonical_search', 'count_ordered'):\n"
        "    def spy(*a, _f=getattr(_kernels_py, name), _n=name):\n"
        "        calls.append(_n)\n"
        "        return _f(*a)\n"
        "    setattr(_kernels_py, name, spy)\n"
        "canonical_form(g)\n"
        "kernels.count_ordered(g, Graph.path(3))\n"
        "print(_kernels.BACKEND, kernels.BACKEND, ','.join(calls))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(built_lib), EDGEIND_PURE="1")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=built_lib,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["c", "c"]


def test_enumerate_is_sorted_and_injective():
    g = Graph.cycle(5)
    copies = kernels.enumerate_ordered(g, Graph.path(3))
    assert copies == sorted(copies)
    assert all(len(set(c)) == 3 for c in copies)


@pytest.mark.parametrize("call", [
    lambda: kernels.visit_order(Graph.path(3), (1, 1)),
    lambda: kernels.count_ordered(Graph.cycle(5), Graph.path(3), pins=[(0, 0), (0, 1)]),
    lambda: kernels.enumerate_ordered(Graph.cycle(5), Graph.path(3), pins=[(2, 0), (2, 3)]),
])
def test_argument_errors(call):
    # a pattern vertex pinned twice, reached from each entry that takes pins
    with pytest.raises(ValueError, match="repeated pattern vertex in pins"):
        call()


def test_pins_force_prefix():
    g = Graph.cycle(6)
    copies = kernels.enumerate_ordered(g, Graph.path(4), pins=[(0, 0), (1, 1)])
    assert copies == [(0, 1, 2, 3)]
    assert kernels.count_ordered(g, Graph.path(4), pins=[(0, 0), (1, 2)]) == 0
    assert kernels.count_ordered(g, Graph.path(4), pins=[(0, 0), (1, 0)]) == 0
    # any sequence of pins; the memoised order is an immutable tuple
    assert kernels.visit_order(Graph.path(4), [1, 0]) == (1, 0, 2, 3)


def test_empty_and_undersized(backends):
    # an empty pattern has one copy, the empty map, and a host smaller than
    # the pattern has none, on either backend
    g = Graph.cycle(4)
    assert kernels.count_ordered(g, Graph.empty(0)) == 1
    assert kernels.enumerate_ordered(g, Graph.empty(0)) == [()]
    assert kernels.count_ordered(Graph.empty(2), Graph.cycle(3)) == 0
    assert kernels.enumerate_ordered(Graph.empty(2), Graph.cycle(3)) == []
    c3 = Graph.cycle(3)
    for impl in backends:
        assert impl.count_ordered(g.adj, (), (), ()) == 1
        assert impl.enumerate_ordered(g.adj, (), (), ()) == [()]
        assert impl.count_ordered(Graph.empty(2).adj, c3.adj, kernels.visit_order(c3), ()) == 0
        assert impl.enumerate_ordered(Graph.empty(2).adj, c3.adj, kernels.visit_order(c3), ()) == []
    # the compiled twin does not read the host rows for an empty pattern,
    # so a host one row past its 64-row limit is no error
    if len(backends) > 1:
        assert backends[-1].count_ordered([0] * 65, (), (), ()) == 1
        assert backends[-1].enumerate_ordered([0] * 65, (), (), ()) == [()]


def test_full_64_vertex_host():
    g = complete_bipartite(32, 32)
    assert kernels.count_ordered(g, Graph.complete(2)) == 2 * 32 * 32


def test_count_many_routes_each_host_by_size(compiled, monkeypatch):
    # the compiled kernel answers NotImplemented for a host above 64
    # vertices, so the call with the 66-vertex host goes to the pure twin
    monkeypatch.setattr(kernels, "_impl", compiled)
    hosts = [complete_bipartite(33, 33), Graph.cycle(4), Graph.path(3),
             complete_bipartite(3, 5)]
    labels = list(map(write_graph6, hosts))
    assert len(write_graph6(Graph.empty(64))) == 340 < len(labels[0])
    c4 = Graph.cycle(4)
    assert kernels.count_ordered_many(labels, c4) == [kernels.count_ordered(g, c4) for g in hosts]
    assert kernels.count_ordered_many(labels, c4)[:3] == [8 * math.comb(33, 2) ** 2, 8, 0]


PATTERNS_G6 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "patterns.g6")


def test_count_ordered_many_matches_per_host_counts(backends):
    # every label of levels <= 7 (most of them smaller than most patterns)
    # against every benchmark pattern, on each backend, against the
    # per-host entry of the compiled kernel when it is built
    from edgeind import search

    with open(PATTERNS_G6) as fh:
        patterns = [parse_graph6(line.strip()) for line in fh
                    if line.strip() and not line.startswith("#")]
    assert len(patterns) == 196
    labels = [label for m in range(8) for label in search._level(m)]
    hosts = [parse_graph6(label).adj for label in labels]
    reference = backends[-1]
    for h in patterns + [Graph.empty(0), Graph.complete(2)]:
        order = kernels.visit_order(h)
        want = [reference.count_ordered(rows, h.adj, order, ()) for rows in hosts]
        for backend in backends:
            assert backend.count_ordered_many(labels, h.adj, order) == want, backend.BACKEND
    for backend in backends:
        assert backend.count_ordered_many([], Graph.path(3).adj, (1, 0, 2)) == []


def test_count_ordered_many_reads_an_iterator_once(backends, monkeypatch):
    # an iterator of labels gives the counts a list does, on either backend,
    # both within the 64-vertex word and with a host above it
    p3 = Graph.path(3)
    for labels, want in ((["Bw", "Bo", "Dhc"], [0, 2, 10]),
                         (["Bo", write_graph6(Graph.path(65))], [2, 126])):
        for backend in backends:
            monkeypatch.setattr(kernels, "_impl", backend)
            assert kernels.count_ordered_many(labels, p3) == want, backend.BACKEND
            assert kernels.count_ordered_many(iter(labels), p3) == want, backend.BACKEND


def test_count_ordered_many_fails_like_count_ordered(compiled):
    # a host above the 64-vertex word makes the whole call answer
    # NotImplemented, as count_ordered and enumerate_ordered do on its
    # rows, and the pure twin counts it; a pattern larger than every host
    # is never read
    c4 = Graph.cycle(4)
    order = kernels.visit_order(c4)
    big = complete_bipartite(33, 33)
    labels = [write_graph6(Graph.cycle(5)), write_graph6(big), write_graph6(c4)]
    assert compiled.count_ordered_many(labels, c4.adj, order) is NotImplemented
    assert compiled.count_ordered(big.adj, c4.adj, order, ()) is NotImplemented
    assert compiled.enumerate_ordered(big.adj, c4.adj, order, ()) is NotImplemented
    assert _kernels_py.count_ordered_many([write_graph6(big)], c4.adj, order) == \
        [8 * math.comb(33, 2) ** 2]
    huge = [(1 << 65) - 1] * 66  # not a valid pattern for the compiled kernel
    assert compiled.count_ordered_many([write_graph6(c4), "?"], huge, ()) == [0, 0]


def test_level_entries_reject_malformed_labels(backends):
    # both decoders are strict: a character outside ?..~ (in the header or
    # the body), a truncated body, a trailing character, a set padding bit,
    # a ">>graph6<<" header and a trailing newline.  The compiled entries
    # answer NotImplemented for more than 64 vertices, and children leaves
    # ``seen`` untouched
    c5 = write_graph6(Graph.cycle(5))  # 10 bits: two body characters
    assert not (ord(c5[-1]) - 63) & 3
    malformed = [" " + c5[1:], c5[:-1] + " ", c5[:-1] + chr(127), c5[:-1], c5 + "?",
                 c5[:-1] + chr(ord(c5[-1]) + 1), ">>graph6<<" + c5, c5 + "\n",
                 ">>graph6<<A_", "A_\n"]
    k2 = Graph.complete(2)
    big = write_graph6(Graph.path(65))
    for backend in backends:
        for label in malformed:
            with pytest.raises(ValueError):
                backend.count_ordered_many([c5, label], k2.adj, (0, 1))
            with pytest.raises(ValueError):
                backend.children(label, set())
        if backend.BACKEND == "c":
            seen = {c5}
            assert backend.count_ordered_many([c5, big], k2.adj, (0, 1)) is NotImplemented
            assert backend.children(big, seen) is NotImplemented
            assert seen == {c5}
        assert backend.count_ordered_many([c5], k2.adj, (0, 1)) == [10]
        assert backend.count_ordered_many([], k2.adj, (0, 1)) == []


# -- entropy sums --


def _entropy_columns():
    """(keys, givens, values) triples: random int columns of several
    spreads (negative ints included), tuple keys of 0-4 entries, a single
    distinct key, and a column whose first-occurrence order is the reverse
    of sorted order.  ``values`` are positive ints for ``mean_log``."""
    rng = random.Random(2026)
    cases = []
    for _ in range(30):
        n = rng.randint(1, 300)
        spread = rng.choice([1, 3, 40, 2 ** 40, 2 ** 62])
        ints = [rng.randint(-spread, spread) for _ in range(n)]
        givens = [rng.randint(0, rng.randint(1, 12)) for _ in range(n)]
        values = [rng.randint(1, spread) for _ in range(n)]
        tuples = [tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 4))) for _ in range(n)]
        cases += [(ints, givens, values), (tuples, givens, values), (givens, tuples, values)]
    cases.append(([7] * 50, [-3] * 50, [5] * 50))
    order = [3, 2, 1, 0, 3, 2, 1, 1, 1, 0, 0]  # counts 2, 2, 4, 3 in first-occurrence order
    cases.append((order, [0] * len(order), [k + 1 for k in order]))
    return cases


def test_entropy_entries_agree_exactly(backends):
    for keys, givens, values in _entropy_columns():
        results = [(b.entropy(keys), b.cond_entropy(keys, givens), b.cond_entropy(givens, keys),
                    b.mean_log(values), b.distinct_counts(keys, givens),
                    b.distinct_counts(givens, keys)) for b in backends]
        for result in results:
            assert result == results[0]  # floats equal to the last bit, not approximately
            assert list(map(type, result)) == [float] * 4 + [list] * 2


def test_entropy_sums_meet_keys_in_first_occurrence_order(backends):
    # the count terms (2, 2, 4, 3) and (3, 4, 2, 2) add to different floats
    keys = [3, 2, 1, 0, 3, 2, 1, 1, 1, 0, 0]
    n = len(keys)

    def entropy_in(order):
        counts = [keys.count(k) for k in order]
        return math.log(n) - reduce(add, (c * math.log(c) for c in counts), 0.0) / n

    assert entropy_in([3, 2, 1, 0]) != entropy_in([0, 1, 2, 3])
    for backend in backends:
        assert backend.entropy(keys) == entropy_in([3, 2, 1, 0])


def test_keys_outside_64_bits_take_the_pure_twin(backends, monkeypatch):
    wide = [2 ** 63, 1, 2 ** 63, -2 ** 63 - 1]
    calls = [("entropy", (wide,)), ("cond_entropy", (wide, [1, 1, 2, 2])),
             ("cond_entropy", ([1, 1, 2, 2], [(1, 2 ** 64)] * 4)),
             ("mean_log", ([3, 2 ** 70, 5, 2 ** 63],)), ("distinct_counts", (wide, [0, 0, 1, 0])),
             ("entropy", ([1.5, 1, 1.5, 2],)), ("entropy", ([((1,),), (1,), (1,), ((1,),)],))]
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        for name, columns in calls:
            expected = getattr(_kernels_py, name)(*columns)
            assert getattr(kernels, name)(*map(iter, columns)) == expected, (backend.BACKEND, name)
            if backend.BACKEND == "c":
                assert getattr(backend, name)(*columns) is NotImplemented
    # the edges of the signed 64-bit range are held
    edges = [-2 ** 63, 2 ** 63 - 1, 2 ** 63 - 1]
    assert len({b.entropy(edges) for b in backends} | {_kernels_py.entropy([0, 1, 1])}) == 1


def test_entropy_entries_reject_empty_and_ragged_columns(backends):
    calls = [("entropy", ([],)), ("cond_entropy", ([], [])), ("mean_log", ([],)),
             ("distinct_counts", ([], [])), ("cond_entropy", ([1, 2], [1])),
             ("distinct_counts", ([1], [1, 2])), ("mean_log", ([2, 0],)), ("mean_log", ([-1],))]
    for name, columns in calls:
        raised = set()
        for backend in backends:
            with pytest.raises(ValueError) as info:
                getattr(backend, name)(*columns)
            raised.add(type(info.value))
        assert raised == {ValueError}, name
