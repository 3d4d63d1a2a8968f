import copy
import pickle
import random

import networkx as nx
import pytest

from edgeind import Graph, Graph6Error, parse_graph6, write_graph6
from edgeind.graph import MAX_VERTICES, encode_graph6, parse_family

from helpers import complete_bipartite, random_graph, without_isolated


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
    big = complete_bipartite(40, 40)
    assert parse_graph6(write_graph6(big)) == big


def test_roundtrip_against_reference_up_to_128_vertices():
    # the long form (4-byte header) starts at 63 vertices
    rng = random.Random(128)
    sizes = [rng.randint(0, 128) for _ in range(30)] + [62, 63, 64, 100, 127, 128]
    for n in sizes:
        g = random_graph(rng, n, rng.random())
        line = nx_graph6(g)
        back = parse_graph6(line)
        assert back == g and hash(back) == hash(g)
        assert write_graph6(g) == line
        assert parse_graph6(">>graph6<<" + line + "\n") == g


def test_parse_errors_keep_offsets_in_edge_data():
    with pytest.raises(Graph6Error, match="byte 1: nonzero padding bits"):
        parse_graph6("Bx")
    with pytest.raises(Graph6Error, match="byte 11: nonzero padding bits"):
        parse_graph6(">>graph6<<Bx")
    with pytest.raises(Graph6Error, match="byte 2: character ' ' outside graph6 range"):
        parse_graph6("D? ")
    with pytest.raises(Graph6Error, match="byte 5: truncated edge data"):
        parse_graph6(chr(126) + "?A??")
    with pytest.raises(Graph6Error, match="byte 0: 130 vertices"):
        parse_graph6(chr(126) + "?AA" + "?" * 10)


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
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0))  # 0 sees 1, 1 does not see 0
    with pytest.raises(ValueError):
        Graph(1, (1,))  # loop
    with pytest.raises(ValueError):
        Graph(129, (0,) * 129)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph(2, (0,)), ValueError, "adjacency length does not match"),
    (lambda: Graph(2, (0b100, 0)), ValueError, "mentions vertices >= 2"),
    (lambda: Graph.from_edges(2, [(1, 1)]), ValueError, "loop at vertex 1"),
    (lambda: Graph.cycle(2), ValueError, "cycles need at least 3 vertices"),
    (lambda: Graph.path(3).induced_subgraph([0, 0]), ValueError, "repeated vertex"),
    (lambda: encode_graph6([0] * (MAX_VERTICES + 1)), ValueError, "beyond 128 vertices"),
    (lambda: parse_graph6(""), Graph6Error, "byte 0: empty graph6 string"),
    (lambda: parse_graph6(">>graph6<<\n"), Graph6Error, "byte 10: empty graph6 string"),
    (lambda: parse_graph6("~??"), Graph6Error, "byte 3: truncated vertex count"),
    (lambda: parse_graph6("~~???"), Graph6Error, "byte 1: vertex counts beyond 258047"),
    (lambda: parse_family("P1"), ValueError, "paths need at least 2 vertices, got P1"),
    (lambda: parse_family("C2"), ValueError, "cycles need at least 3 vertices, got C2"),
    (lambda: parse_family(5), ValueError, "unrecognized family descriptor 5"),
])
def test_argument_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    stripped = without_isolated(g)
    assert stripped.n == 2 and stripped.m == 1


def test_pickle_and_copy_round_trip():
    for g in (Graph.cycle(5), Graph.empty(0), complete_bipartite(40, 40)):
        copies = [pickle.loads(pickle.dumps(g, protocol)) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
        copies += [copy.copy(g), copy.deepcopy(g), copy.deepcopy([g, g])[1]]
        for h in copies:
            assert type(h) is Graph and h == g and hash(h) == hash(g)
            assert (h.n, h.adj) == (g.n, g.adj)
            with pytest.raises(AttributeError):
                h.n = 3
