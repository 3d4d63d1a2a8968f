import hashlib
import json
from itertools import combinations

import pytest

from edgeind import (
    CeilingError,
    Graph,
    ResultCache,
    canonical_form,
    canonical_label,
    count_induced,
    enumerate_m_edge_graphs,
    parse_graph6,
    rho_exact,
    verify_sandwich,
    write_graph6,
)
from edgeind import automorphism_order, kernels, search
from edgeind.search import SearchResult, estimated_class_count

from helpers import polya_edge_class_count


def filter_and_canonicalize(m):
    """Literal oracle: all m-subsets of the 2m-vertex edge slots, stripped
    of isolated vertices, deduplicated by canonical label."""
    slots = list(combinations(range(2 * m), 2))
    seen = set()
    for chosen in combinations(slots, m):
        g = Graph.from_edges(2 * m, chosen).without_isolated()
        seen.add(canonical_label(g))
    return len(seen)


def test_generation_matches_literal_oracle_small():
    for m in range(1, 5):
        assert len(list(enumerate_m_edge_graphs(m))) == filter_and_canonicalize(m)


def test_generation_matches_cycle_index_counts():
    for m in range(1, 9):
        assert len(list(enumerate_m_edge_graphs(m))) == polya_edge_class_count(m)


def test_m3_classes():
    labels = {canonical_label(g) for g in enumerate_m_edge_graphs(3)}
    expected = {
        canonical_label(Graph.complete(3)),
        canonical_label(Graph.path(4)),
        canonical_label(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
        canonical_label(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])),
        canonical_label(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])),
    }
    assert labels == expected


def test_no_duplicates_and_no_isolated():
    for m in range(1, 7):
        reps = list(enumerate_m_edge_graphs(m))
        labels = [canonical_label(g) for g in reps]
        assert len(labels) == len(set(labels))
        assert all(not g.isolated_vertices() and g.m == m for g in reps)


def test_ceiling():
    with pytest.raises(CeilingError):
        list(enumerate_m_edge_graphs(13))
    assert estimated_class_count(13) > 1476
    with pytest.raises(CeilingError, match="roughly 177 isomorphism classes") as exc:
        list(enumerate_m_edge_graphs(7, ceiling=5))
    assert exc.value.estimate == 177


def test_estimated_class_count_is_the_exact_table():
    for m in range(len(search.CLASS_COUNTS)):
        assert estimated_class_count(m) == polya_edge_class_count(m)
    beyond = [estimated_class_count(m) for m in range(len(search.CLASS_COUNTS) - 1, 24)]
    assert all(a < b for a, b in zip(beyond, beyond[1:]))


def test_bad_budgets_raise_at_call_time():
    with pytest.raises(CeilingError):
        enumerate_m_edge_graphs(13)
    with pytest.raises(ValueError):
        enumerate_m_edge_graphs(-2)


def test_negative_budgets_raise():
    for m in (-1, -2):
        with pytest.raises(ValueError):
            list(enumerate_m_edge_graphs(m))
        with pytest.raises(ValueError):
            search._level(m)
        assert m not in search._LEVELS


def test_rho_examples():
    r = rho_exact(Graph.path(3), 5)
    assert r.rho == 10
    assert canonical_label(Graph.complete_bipartite(1, 5)) in r.extremal
    assert rho_exact(Graph.cycle(4), 4).rho == 1
    assert rho_exact(Graph.complete(3), 3).rho == 1


def test_rho_certificates_attain_and_monotone():
    h = Graph.cycle(5)
    prev = -1
    for m in range(3, 8):
        r = rho_exact(h, m)
        assert r.rho >= prev
        prev = r.rho
        for label in r.extremal:
            g = parse_graph6(label)
            assert g.m == m and not g.isolated_vertices()
            assert count_induced(g, h).unordered == r.rho


# sha256 of "<m> <label>\n" over levels 0..9 in label order.  Labels are
# CLI output and cache keys: changing one needs a GENERATOR_VERSION bump.
LEVEL_LABELS_SHA256 = "7da320b998d72a5da547d94d52559e04041141ffb16cf5f09f04722576a9548b"

# sha256 of "<label> <perm>\n" (perm comma-separated) over every one-edge
# extension of every class of levels 0..7: non-edges in lexicographic
# order, then a pendant edge at each vertex, then a disjoint edge.
CANDIDATE_FORMS_SHA256 = "8ed9ff8aae8632734fc056ad96e3f31bc961d78b85e32c80044fb2b461d73916"


def test_level_labels_match_fixture(backends, monkeypatch):
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        monkeypatch.setattr(search, "_LEVELS", {})
        digest = hashlib.sha256()
        for m in range(10):
            for label, g in search._level(m):
                assert g == parse_graph6(label)
                digest.update(f"{m} {label}\n".encode())
        assert digest.hexdigest() == LEVEL_LABELS_SHA256, backend.BACKEND


def one_edge_extensions(g):
    n = g.n
    for u, v in combinations(range(n), 2):
        if not g.has_edge(u, v):
            yield g.add_edge(u, v)
    for u in range(n):
        yield g.add_vertex(1 << u)
    yield g.add_vertex(0).add_vertex(1 << n)


def test_candidate_labels_and_perms_match_fixture(backends, monkeypatch):
    levels = [search._level(m) for m in range(8)]
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        digest = hashlib.sha256()
        count = 0
        for level in levels:
            for _, g in level:
                for child in one_edge_extensions(g):
                    form = canonical_form(child)
                    digest.update(f"{form.label} {','.join(map(str, form.perm))}\n".encode())
                    count += 1
        assert count == 8252
        assert digest.hexdigest() == CANDIDATE_FORMS_SHA256, backend.BACKEND


def test_growth_labels_one_child_per_orbit(monkeypatch):
    # levels 0..8 made 8,253 canonical_form calls when every one-edge
    # extension was labelled
    calls = 0

    def counting(g):
        nonlocal calls
        calls += 1
        return canonical_form(g)

    monkeypatch.setattr(search, "_LEVELS", {})
    monkeypatch.setattr(search, "canonical_form", counting)
    assert len(search._level(8)) == 497
    assert calls <= 3700


def test_sharded_growth_equals_level(monkeypatch):
    # shard counts above the parent count leave some worker slices empty
    for m in (1, 2, 4, 6, 7):
        serial = search._level(m)
        for shards in (2, 3, 5):
            below = {k: v for k, v in search._LEVELS.items() if k < m}
            monkeypatch.setattr(search, "_LEVELS", below)
            assert search._level(m, shards) == serial


def test_sharded_rho_identical():
    h = Graph.path(4)
    a = rho_exact(h, 7, shards=1)
    b = rho_exact(h, 7, shards=4)
    assert a == b


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path))
    h = Graph.cycle(4)
    first = rho_exact(h, 6, cache=cache)
    hit = rho_exact(h, 6, cache=cache)
    assert first == hit
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".jsonl"
    rec = json.loads(files[0].read_text().splitlines()[0])
    assert SearchResult.from_record(rec) == first
    # stale versions are ignored
    rec["version"] = "0"
    rec["rho"] = 99
    files[0].write_text(json.dumps(rec) + "\n")
    fresh = rho_exact(h, 6, cache=cache)
    assert fresh.rho == first.rho


def test_cache_skips_torn_lines(tmp_path, capsys):
    cache = ResultCache(str(tmp_path))
    h = Graph.path(3)
    rho_exact(h, 4, cache=cache)
    (path,) = tmp_path.iterdir()
    with open(path, "a") as fh:
        fh.write('{"classes": 26, "extremal": ["Ds')  # a record cut short
    assert rho_exact(h, 5, cache=cache).rho == 10
    assert capsys.readouterr().err.count("skipped 1 unreadable line") == 1
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and json.loads(lines[2])["m"] == 5
    assert cache.get(canonical_label(h), 5) == rho_exact(h, 5)
    assert cache.get(canonical_label(h), 4) == rho_exact(h, 4)
    path.write_text(path.read_text() + '[1]\n{"h": "Bw"}\n')  # foreign records
    assert cache.get(canonical_label(h), 6) is None
    assert "skipped 3 unreadable line(s)" in capsys.readouterr().err


def test_cache_returns_the_last_matching_record(tmp_path):
    # a capped search stores a truncated record; the full record appended
    # after it must serve every later lookup
    cache = ResultCache(str(tmp_path))
    h = Graph.complete(2)
    assert rho_exact(h, 5, max_certificates=1, cache=cache).truncated
    full = [rho_exact(h, 5, cache=cache) for _ in range(3)]
    assert full[0] == full[1] == full[2] and not full[0].truncated
    (path,) = tmp_path.iterdir()
    assert len(path.read_text().splitlines()) == 2
    assert cache.get(canonical_label(h), 5) == full[0]


def test_scan_makes_one_kernel_call_per_host(monkeypatch):
    pattern = Graph.path(4)
    automorphism_order(pattern)
    hosts = []
    count_ordered = kernels.count_ordered

    def spy(g, h, pins=()):
        hosts.append(g)
        return count_ordered(g, h, pins)

    monkeypatch.setattr(kernels, "count_ordered", spy)
    level = search._level(6)
    search._scan(level, pattern)
    assert hosts == [g for _, g in level if g.n >= pattern.n]


def test_certificate_cap(tmp_path):
    r = rho_exact(Graph.path(3), 1, max_certificates=0)
    assert r.truncated and r.extremal == ()
    with pytest.raises(ValueError):
        rho_exact(Graph.path(3), 3, max_certificates=-1)
    with pytest.raises(ValueError):
        verify_sandwich("P3", 3, max_certificates=-1)


def test_sandwich_examples():
    rep = verify_sandwich("P3", 6)
    assert (rep["lower"], rep["exact"], rep["upper"]) == (15, 15, 15.0)
    rep = verify_sandwich("C4", 8)
    assert rep["upper"] == pytest.approx(16.0)
    assert rep["lower"] <= rep["exact"] <= rep["upper"]
    rep = verify_sandwich("C5", 7)
    assert rep["lower"] == 2 and rep["pass"]


def test_star_law():
    star_labels = {m: canonical_label(Graph.complete_bipartite(1, m)) for m in range(1, 7)}
    for m in range(1, 7):
        r = rho_exact(Graph.path(3), m)
        assert r.rho == m * (m - 1) // 2
        assert star_labels[m] in r.extremal


def test_rho_matches_exhaustive_labeled_maximum():
    # independent of the generator: maximize over every labeled 4-edge
    # graph on 8 vertex slots
    m = 4
    patterns = [Graph.path(3), Graph.path(4), Graph.cycle(4), Graph.complete(3)]
    best = [0] * len(patterns)
    slots = list(combinations(range(2 * m), 2))
    for chosen in combinations(slots, m):
        g = Graph.from_edges(2 * m, chosen).without_isolated()
        for i, h in enumerate(patterns):
            c = count_induced(g, h).unordered
            if c > best[i]:
                best[i] = c
    for i, h in enumerate(patterns):
        assert rho_exact(h, m).rho == best[i]
