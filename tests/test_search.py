import hashlib
import json
import os
from itertools import combinations
from types import SimpleNamespace

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
from edgeind import _kernels_py, automorphism_order, kernels, search
from edgeind.search import SearchResult, estimated_class_count

from helpers import (
    complete_bipartite,
    one_edge_extensions,
    polya_edge_class_count,
    without_isolated,
)


def filter_and_canonicalize(m):
    """Literal oracle: all m-subsets of the 2m-vertex edge slots, stripped
    of isolated vertices, deduplicated by canonical label."""
    slots = list(combinations(range(2 * m), 2))
    seen = set()
    for chosen in combinations(slots, m):
        g = without_isolated(Graph.from_edges(2 * m, chosen))
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
    assert canonical_label(complete_bipartite(1, 5)) in r.extremal
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
    # a level is its sorted labels, and up to m = 7 each is the label of
    # the graph it encodes
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        monkeypatch.setattr(search, "_LEVELS", {})
        digest = hashlib.sha256()
        for m in range(10):
            level = search._level(m)
            assert type(level) is tuple and list(level) == sorted(level)
            for label in level:
                if m <= 7:
                    assert canonical_label(parse_graph6(label)) == label, backend.BACKEND
                digest.update(f"{m} {label}\n".encode())
        assert digest.hexdigest() == LEVEL_LABELS_SHA256, backend.BACKEND


def test_candidate_labels_and_perms_match_fixture(backends, monkeypatch):
    levels = [search._level(m) for m in range(8)]
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        digest = hashlib.sha256()
        count = 0
        for level in levels:
            for g in map(parse_graph6, level):
                for child in one_edge_extensions(g):
                    form = canonical_form(child)
                    digest.update(f"{form.label} {','.join(map(str, form.perm))}\n".encode())
                    count += 1
        assert count == 8252
        assert digest.hexdigest() == CANDIDATE_FORMS_SHA256, backend.BACKEND


def test_growth_labels_every_extension_once(monkeypatch):
    # under the pure backend: one label per one-edge extension of the
    # classes of levels 0..7, the candidate fixture's 8,252, and no
    # canonical_form call, since level 1 grows from level 0 like the rest;
    # a parent labelled again would add more
    forms = labels = 0
    form = search.canonical_form
    label = _kernels_py._canonical

    def counting_form(g):
        nonlocal forms
        forms += 1
        return form(g)

    def counting_label(adj):
        nonlocal labels
        labels += 1
        return label(adj)

    monkeypatch.setattr(kernels, "_impl", _kernels_py)
    monkeypatch.setattr(search, "canonical_form", counting_form)
    monkeypatch.setattr(_kernels_py, "_canonical", counting_label)
    monkeypatch.setattr(search, "_LEVELS", {})
    assert len(search._level(8)) == 497
    assert (forms, labels) == (0, 8252)


def test_growth_entries_agree(backends):
    # every class of levels 0..7 as a parent, with an empty seen-set and
    # with one holding every other class of the next level
    levels = [search._level(m) for m in range(9)]
    for m in range(8):
        filled = set(levels[m + 1][::2])
        for parent in levels[m]:
            for start in (set(), filled):
                runs = []
                for backend in backends:
                    seen = set(start)
                    runs.append((backend.children(parent, seen), seen))
                assert all(run == runs[0] for run in runs[1:])
                new, seen = runs[0]
                assert seen == start | set(new)
                assert len(seen) == len(start) + len(new)
                assert set(new) <= set(levels[m + 1])


def test_children_of_large_parents_take_the_pure_path(monkeypatch):
    # the compiled entry packs a child's rows into 64-bit words, so a
    # parent with n + 2 > 64, whose label takes the long form, goes to the
    # pure twin
    calls = []

    def spy(name):
        return lambda label, seen: calls.append((name, parse_graph6(label).n)) or []

    monkeypatch.setattr(kernels, "_impl", SimpleNamespace(children=spy("impl")))
    monkeypatch.setattr(_kernels_py, "children", spy("pure"))
    for n in (61, 62, 63, 64, 70):
        assert search._children(write_graph6(Graph.empty(n)), set()) == []
    assert calls == [("impl", 61), ("impl", 62), ("pure", 63), ("pure", 64), ("pure", 70)]


def test_sharded_growth_equals_level(monkeypatch):
    # shard counts above the parent count leave some worker slices empty
    for m in (1, 2, 4, 6, 7):
        serial = search._level(m)
        for shards in (2, 3, 5):
            below = {k: v for k, v in search._LEVELS.items() if k < m}
            monkeypatch.setattr(search, "_LEVELS", below)
            assert search._level(m, shards) == serial


def test_level_with_a_missing_class_raises(monkeypatch):
    # every grown level is checked against A000664, serial or sharded; C6
    # is one of the 68 classes with 6 edges, and the pool's forked workers
    # run the lossy growth too
    dropped = canonical_label(Graph.cycle(6))
    grow = search._grow
    monkeypatch.setattr(search, "_grow", lambda parents: grow(parents) - {dropped})
    for shards in (1, 2):
        monkeypatch.setattr(search, "_LEVELS", {})
        assert len(search._level(5, shards)) == 26
        with pytest.raises(RuntimeError, match=r"^level 6 has 67 classes, expected 68 "):
            search._level(6, shards)
        assert 6 not in search._LEVELS


def test_sharded_growth_calls_the_worker_set_on_the_module(monkeypatch, tmp_path):
    # a forked child looks _shard_worker up on the module, so a wrapper set
    # there (as a tracer does) sees the call; this process grows its own
    # slice without it
    worker = search._shard_worker

    def wrapper(parents):
        (tmp_path / str(os.getpid())).write_text(str(len(parents)))
        return worker(parents)

    monkeypatch.setattr(search, "_shard_worker", wrapper)
    serial = search._level(5)
    monkeypatch.setattr(search, "_LEVELS", {m: search._level(m) for m in range(5)})
    assert search._level(5, 2) == serial
    calls = {int(path.name): int(path.read_text()) for path in tmp_path.iterdir()}
    assert os.getpid() not in calls
    assert list(calls.values()) == [len(search._level(4)[1::2])]
    assert not hasattr(search, "ProcessPoolExecutor")


def test_a_failed_shard_worker_raises_and_is_reaped(monkeypatch):
    def failing(parents):
        raise ValueError("worker failed")

    monkeypatch.setattr(search, "_shard_worker", failing)
    monkeypatch.setattr(search, "_LEVELS", {m: search._level(m) for m in range(5)})
    with pytest.raises(RuntimeError, match="^1 of 1 shard workers failed$"):
        search._level(5, 2)
    assert 5 not in search._LEVELS
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_children_are_reaped_when_the_own_slice_raises(monkeypatch):
    # this process's slice fails; the child's slice succeeds
    me = os.getpid()
    grow = search._grow

    def failing_here(parents):
        if os.getpid() == me:
            raise KeyError("own slice")
        return grow(parents)

    monkeypatch.setattr(search, "_LEVELS", {m: search._level(m) for m in range(6)})
    monkeypatch.setattr(search, "_grow", failing_here)
    with pytest.raises(KeyError, match="own slice"):
        search._level(6, 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert len(files) == 1 and files[0].name == "results.jsonl"
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
    assert path.name == "results.jsonl"
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


def test_cache_reads_each_file_once_and_sees_writes_behind_its_back(tmp_path, monkeypatch,
                                                                    capsys):
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append((os.path.basename(path), args[0] if args else kwargs.get("mode", "r")))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(search, "open", counting_open, raising=False)
    h = Graph.path(3)
    label = canonical_label(h)
    first = rho_exact(h, 4, cache=ResultCache(str(tmp_path)))
    (path,) = tmp_path.iterdir()
    assert path.name == "results.jsonl"
    # a new cache per query, as the CLI makes them: the file written by
    # this process is not read back
    for _ in range(3):
        assert ResultCache(str(tmp_path)).get(label, 4) == first
    assert opened == [(path.name, "ab+")]
    # a line appended behind the memo's back is seen by the next get
    behind = SearchResult(label, 5, 10, ("Ds",), False, 26)
    with open(path, "a") as fh:
        fh.write(json.dumps(behind.to_record()) + "\n")
    cache = ResultCache(str(tmp_path))
    assert cache.get(label, 5) == behind and cache.get(label, 4) == first
    assert opened[1:] == [(path.name, "rb")]
    # a torn tail written behind its back still gets a fresh line
    with open(path, "a") as fh:
        fh.write('{"h": "B')
    cache.put(rho_exact(h, 6))
    lines = path.read_text().splitlines()
    assert len(lines) == 4 and lines[2] == '{"h": "B' and json.loads(lines[3])["m"] == 6
    assert cache.get(label, 6) == rho_exact(h, 6)
    assert capsys.readouterr().err.count("skipped 1 unreadable line") == 1
    # a torn tail the memo has read gets a fresh line too
    with open(path, "a") as fh:
        fh.write('{"h": "B')
    assert cache.get(label, 4) == first
    cache.put(rho_exact(h, 7))
    lines = path.read_text().splitlines()
    assert len(lines) == 6 and json.loads(lines[5])["m"] == 7
    assert cache.get(label, 7) == rho_exact(h, 7)
    assert [mode for _, mode in opened] == ["ab+", "rb", "ab+", "rb", "rb", "ab+"]


def test_cache_keeps_every_record_of_a_directory_in_one_file(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))
    patterns = [Graph.path(3), Graph.path(4), Graph.cycle(4), complete_bipartite(1, 3)]
    results = [rho_exact(h, m, cache=cache) for h in patterns for m in range(3, 7)]
    assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]
    lines = (tmp_path / "results.jsonl").read_text().splitlines()
    assert [SearchResult.from_record(json.loads(line)) for line in lines] == results
    monkeypatch.setattr(search, "_CACHE_FILES", {})  # as a fresh process
    fresh = ResultCache(str(tmp_path))
    assert [fresh.get(r.pattern, r.m) for r in results] == results


def test_cache_forked_writers_leave_whole_lines(tmp_path, monkeypatch, capsys):
    # the writers start together once the pipe closes; some records are
    # longer than a pipe buffer and than the file object's buffer.  A writer
    # that reads the file's end while a long record is half written starts
    # its own record on a new line, which leaves a blank line readers skip
    level = search._level(6)
    label = canonical_label(Graph.complete(2))
    writers = 4
    results = [[SearchResult(label, 100 * w + i, 6, level * (1 + 2 * i), False, len(level))
                for i in range(12)] for w in range(writers)]
    assert max(len(json.dumps(r.to_record())) for r in results[0]) > 8192
    start, release = os.pipe()
    pids = []
    for mine in results:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(release)
                os.read(start, 1)
                cache = ResultCache(str(tmp_path))
                for result in mine:
                    cache.put(result)
                code = 0
            finally:
                os._exit(code)
        pids.append(pid)
    os.close(start)
    os.close(release)
    assert all(os.waitpid(pid, 0)[1] == 0 for pid in pids)
    lines = [line for line in (tmp_path / "results.jsonl").read_text().splitlines() if line]
    assert sorted(json.loads(line)["m"] for line in lines) == \
        sorted(r.m for mine in results for r in mine)
    monkeypatch.setattr(search, "_CACHE_FILES", {})
    cache = ResultCache(str(tmp_path))
    assert all(cache.get(r.pattern, r.m) == r for mine in results for r in mine)
    assert capsys.readouterr().err == ""


def test_scan_makes_one_kernel_call_per_level(monkeypatch):
    # the stand-in backend has no per-host entry, so a scan that counted
    # host by host would fail; the kernel gets the level's own tuple of
    # labels, which is all a level stores
    pattern = Graph.path(4)
    automorphism_order(pattern)
    backend = kernels._impl
    calls = []

    def spy(labels, h_adj, order):
        calls.append(labels)
        return backend.count_ordered_many(labels, h_adj, order)

    monkeypatch.setattr(kernels, "_impl", SimpleNamespace(count_ordered_many=spy))
    for m in range(8):
        level = search._level(m)
        for _ in range(2):
            calls.clear()
            search._scan(level, pattern)
            assert len(calls) == 1 and calls[0] is level
        assert type(level) is tuple and all(type(label) is str for label in level)


def connected(g):
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(g.n):
            if frontier >> v & 1:
                reach |= g.adj[v]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << g.n) - 1


def test_scan_matches_per_host_count_induced(backends, monkeypatch):
    levels = [search._level(m) for m in range(8)]
    patterns = [g for level in levels[1:7] for g in map(parse_graph6, level) if connected(g)]
    assert len(patterns) == 52  # connected graphs with 1..6 edges
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        for h in patterns:
            for level in levels:
                rho, maximizers = 0, []
                for label in level:
                    c = count_induced(parse_graph6(label), h).unordered
                    if c > rho:
                        rho, maximizers = c, [label]
                    elif c == rho:
                        maximizers.append(label)
                assert search._scan(level, h) == (rho, maximizers, len(level)), backend.BACKEND


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
    star_labels = {m: canonical_label(complete_bipartite(1, m)) for m in range(1, 7)}
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
        g = without_isolated(Graph.from_edges(2 * m, chosen))
        for i, h in enumerate(patterns):
            c = count_induced(g, h).unordered
            if c > best[i]:
                best[i] = c
    for i, h in enumerate(patterns):
        assert rho_exact(h, m).rho == best[i]
