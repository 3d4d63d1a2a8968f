import math
import os
import random
import shlex
import subprocess
import sys
import sysconfig

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


def test_labels_above_64_vertices_take_the_pure_path(compiled, monkeypatch):
    g = Graph.path(65)
    with pytest.raises(ValueError):
        compiled.canonical_search(g.adj)
    monkeypatch.setattr(kernels, "_impl", compiled)
    assert kernels._backend_for(g) is _kernels_py
    assert canonical_form(g).label == _kernels_py.canonical_search(g.adj)[0]
    assert kernels._backend_for(Graph.path(64)) is compiled


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
    # the disjoint edge of a 62-vertex parent fills the word, a 63-vertex
    # parent has no disjoint-edge extension, and the compiled entry refuses
    # a 64-vertex parent
    for n, sizes in ((62, {62, 63, 64}), (63, {63, 64})):
        label = write_graph6(Graph.path(n))
        assert label.startswith("~") == (n > 62)
        new = compiled.children(label, set())
        assert len(new) == len(set(new))
        children = [parse_graph6(child) for child in new]
        assert {child.n for child in children} == sizes
        assert [child.n for child in children].count(n + 2) == (n == 62)
        for child_label, child in zip(new, children):
            assert child_label.startswith("~") == (child.n > 62)
            assert child.m == n
        assert compiled.children(label, set(new)) == []
    with pytest.raises(ValueError):
        compiled.children(write_graph6(Graph.path(64)), set())
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
            seen.add((len(pins) == h.n, _kernels_py._pin_state(*args) is None, count))
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


def test_growth_of_symmetric_62_vertex_parents(compiled):
    # the whole word, the disjoint edge's 64 vertices included.  C50 + 3C4
    # against a compiled label of every one-edge extension; 31K2, where one
    # label takes about 0.5 s, against a label of each of the three classes
    # its extensions fall into: P4 + 29K2, P3 + 30K2 and 32K2
    k2, p3, p4 = Graph.complete(2), Graph.path(3), Graph.path(4)
    c50 = disjoint_union(Graph.cycle(50), *[Graph.cycle(4)] * 3)
    cases = [(c50, one_edge_extensions(c50)),
             (disjoint_union(*[k2] * 31), [disjoint_union(p4, *[k2] * 29),
                                           disjoint_union(p3, *[k2] * 30),
                                           disjoint_union(*[k2] * 32)])]
    for parent, extensions in cases:
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
    # package on the pure backend; EDGEIND_PURE=1 must select the pure twin
    # for labelling as well as for counting
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
    env = {k: v for k, v in os.environ.items() if k != "EDGEIND_PURE"}
    env["PYTHONPATH"] = str(built_lib)
    outputs = []
    for pure in ("", "1"):
        if pure:
            env["EDGEIND_PURE"] = pure
        proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=built_lib,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0] == ["c", "c"]
    assert outputs[1] == ["c", "pure", "canonical_search,count_ordered"]


def test_enumerate_is_sorted_and_injective():
    g = Graph.cycle(5)
    copies = kernels.enumerate_ordered(g, Graph.path(3))
    assert copies == sorted(copies)
    assert all(len(set(c)) == 3 for c in copies)


def test_pins_force_prefix():
    g = Graph.cycle(6)
    copies = kernels.enumerate_ordered(g, Graph.path(4), pins=[(0, 0), (1, 1)])
    assert copies == [(0, 1, 2, 3)]
    assert kernels.count_ordered(g, Graph.path(4), pins=[(0, 0), (1, 2)]) == 0
    assert kernels.count_ordered(g, Graph.path(4), pins=[(0, 0), (1, 0)]) == 0
    # any sequence of pins; the memoised order is an immutable tuple
    assert kernels.visit_order(Graph.path(4), [1, 0]) == (1, 0, 2, 3)


def test_empty_and_undersized():
    g = Graph.cycle(4)
    assert kernels.count_ordered(g, Graph.empty(0)) == 1
    assert kernels.count_ordered(Graph.empty(2), Graph.cycle(3)) == 0


def test_full_64_vertex_host():
    g = complete_bipartite(32, 32)
    assert kernels.count_ordered(g, Graph.complete(2)) == 2 * 32 * 32


def test_count_many_routes_each_host_by_size(compiled, monkeypatch):
    # the compiled kernel refuses hosts above 64 vertices, so the
    # 66-vertex host must go to the pure twin
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


def test_count_ordered_many_fails_like_count_ordered(compiled):
    # a host above the 64-vertex word fails the whole call with a
    # ValueError, as count_ordered does on its rows, and the pure twin
    # counts it; a pattern larger than every host is never read
    c4 = Graph.cycle(4)
    order = kernels.visit_order(c4)
    big = complete_bipartite(33, 33)
    labels = [write_graph6(Graph.cycle(5)), write_graph6(big), write_graph6(c4)]
    with pytest.raises(ValueError, match="has 66 vertices"):
        compiled.count_ordered_many(labels, c4.adj, order)
    with pytest.raises(ValueError, match="66 rows"):
        compiled.count_ordered(big.adj, c4.adj, order, ())
    assert _kernels_py.count_ordered_many([write_graph6(big)], c4.adj, order) == \
        [8 * math.comb(33, 2) ** 2]
    huge = [(1 << 65) - 1] * 66  # not a valid pattern for the compiled kernel
    assert compiled.count_ordered_many([write_graph6(c4), "?"], huge, ()) == [0, 0]


def test_level_entries_reject_malformed_labels(backends):
    # both decoders are strict: a character outside ?..~ (in the header or
    # the body), a truncated body, a trailing character, a set padding bit,
    # a ">>graph6<<" header, a trailing newline and, on the compiled entries
    # only, more than 64 vertices
    c5 = write_graph6(Graph.cycle(5))  # 10 bits: two body characters
    assert not (ord(c5[-1]) - 63) & 3
    malformed = [" " + c5[1:], c5[:-1] + " ", c5[:-1] + chr(127), c5[:-1], c5 + "?",
                 c5[:-1] + chr(ord(c5[-1]) + 1), ">>graph6<<" + c5, c5 + "\n",
                 ">>graph6<<A_", "A_\n"]
    k2 = Graph.complete(2)
    for backend in backends:
        big = [write_graph6(Graph.path(65))] if backend.BACKEND == "c" else []
        for label in malformed + big:
            with pytest.raises(ValueError):
                backend.count_ordered_many([c5, label], k2.adj, (0, 1))
            with pytest.raises(ValueError):
                backend.children(label, set())
        assert backend.count_ordered_many([c5], k2.adj, (0, 1)) == [10]
        assert backend.count_ordered_many([], k2.adj, (0, 1)) == []
