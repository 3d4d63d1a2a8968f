import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from edgeind import Graph, canonical_form, kernels, parse_graph6
from edgeind import _kernels_py

from helpers import petersen, random_graph


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
             Graph.complete_bipartite(5, 6),
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
    rng = random.Random(32)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 10), 0.5)
        h = Graph.path(4)
        pins = [(0, rng.randrange(g.n)), (1, rng.randrange(g.n))]
        pats = [p for p, _ in pins]
        hosts = [v for _, v in pins]
        order = kernels.visit_order(h, pats)
        assert _kernels_py.count_ordered(g.adj, h.adj, order, hosts) == \
            compiled.count_ordered(g.adj, h.adj, order, hosts)


def test_backends_agree_on_64_vertex_hosts(compiled):
    rng = random.Random(33)
    hosts = [Graph.complete_bipartite(32, 32), random_graph(rng, 64, 0.1),
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
    g = Graph.complete_bipartite(32, 32)
    assert kernels.count_ordered(g, Graph.complete(2)) == 2 * 32 * 32
