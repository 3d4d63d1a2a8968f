import random

import networkx as nx
import pytest

from edgeind import Graph, Graph6Error, parse_graph6, write_graph6

from helpers import random_graph


def nx_graph6(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def test_c5_matches_reference_encoder():
    c5 = Graph.cycle(5)
    assert write_graph6(c5) == nx_graph6(c5)
    back = parse_graph6(nx_graph6(c5))
    assert back.n == 5 and back.m == 5
    assert all(back.degree(v) == 2 for v in range(5))


def test_small_roundtrips():
    for g in [Graph.complete(2), Graph.empty(3), Graph.cycle(6), Graph.path(4)]:
        assert parse_graph6(write_graph6(g)) == g
    assert parse_graph6(write_graph6(Graph.empty(3))).m == 0
    c6 = parse_graph6(write_graph6(Graph.cycle(6)))
    assert sorted(c6.degree(v) for v in range(6)) == [2] * 6


def test_roundtrip_random_corpus_against_reference():
    rng = random.Random(20240817)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        line = nx_graph6(g)
        assert parse_graph6(line) == g
        assert write_graph6(g) == line


def test_large_vertex_count_form():
    g = random_graph(random.Random(5), 63, 0.3)
    assert parse_graph6(write_graph6(g)) == g
    g = random_graph(random.Random(6), 64, 0.1)
    assert parse_graph6(write_graph6(g)) == g
    big = Graph.complete_bipartite(40, 40)
    assert parse_graph6(write_graph6(big)) == big


def test_parse_errors_name_byte_offset():
    with pytest.raises(Graph6Error, match="byte 0"):
        parse_graph6(">>graph5<<Bw")
    with pytest.raises(Graph6Error, match="byte 1"):
        parse_graph6("B" + chr(200))
    with pytest.raises(Graph6Error, match="trailing garbage"):
        parse_graph6("BwA")
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D")
    with pytest.raises(Graph6Error, match="128"):
        parse_graph6(chr(126) + chr(63) + chr(65) + chr(64))  # 129 vertices


def test_header_is_stripped():
    assert parse_graph6(">>graph6<<Bw") == parse_graph6("Bw")


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # loop
    with pytest.raises(ValueError):
        Graph(129, (0,) * 129)


def test_derived_graph_arguments_are_checked():
    g = Graph.path(3)
    for u, v in [(0, 3), (3, 0), (-1, 0), (0, -1), (1, 1), (0, 1), (1, 0)]:
        with pytest.raises(ValueError):
            g.add_edge(u, v)
    for mask in (-1, 1 << 3, 0b1010):
        with pytest.raises(ValueError):
            g.add_vertex(mask)
    with pytest.raises(ValueError):
        Graph.empty(128).add_vertex(0)
    # the unchecked construction equals the validating one
    assert g.add_edge(0, 2) == Graph.cycle(3)
    assert hash(g.add_edge(0, 2)) == hash(Graph.cycle(3))
    assert g.add_vertex(0b101) == Graph.from_edges(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    assert Graph.empty(0).add_vertex() == Graph.empty(1)


def test_relabel_and_induced_subgraph():
    g = Graph.path(4)
    perm = [2, 0, 3, 1]
    h = g.relabel(perm)
    assert h.m == g.m
    assert h.has_edge(2, 0) and h.has_edge(0, 3) and h.has_edge(3, 1)
    sub = g.induced_subgraph([1, 2, 3])
    assert sub.edges() == [(0, 1), (1, 2)]


def test_without_isolated():
    g = Graph.from_edges(5, [(1, 3)])
    stripped = g.without_isolated()
    assert stripped.n == 2 and stripped.m == 1
