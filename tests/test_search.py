import errno
import hashlib
import os
from itertools import combinations
from types import SimpleNamespace

import pytest

from edgeind import (
    CeilingError,
    Graph,
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
from edgeind.search import estimated_class_count

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


def test_ceiling(monkeypatch):
    with pytest.raises(CeilingError):
        list(enumerate_m_edge_graphs(15))
    assert estimated_class_count(15) > 1476
    # the ceiling is read at call time, so raising it is one edit of the constant
    monkeypatch.setattr(search, "DEFAULT_CEILING", 5)
    with pytest.raises(CeilingError, match="roughly 177 isomorphism classes") as exc:
        list(enumerate_m_edge_graphs(7))
    assert exc.value.estimate == 177


def test_ceiling_error_derives_its_ceiling_and_estimate():
    exc = CeilingError(15)
    assert str(exc) == ("15 edges exceeds the search ceiling 14; "
                        "roughly 2960520 isomorphism classes would be scanned")
    assert exc.estimate == 2960520


def test_estimated_class_count_is_the_exact_table():
    for m in range(len(search.CLASS_COUNTS)):
        assert estimated_class_count(m) == polya_edge_class_count(m)
    beyond = [estimated_class_count(m) for m in range(len(search.CLASS_COUNTS) - 1, 24)]
    assert all(a < b for a, b in zip(beyond, beyond[1:]))


def test_bad_budgets_raise_at_call_time():
    with pytest.raises(CeilingError):
        enumerate_m_edge_graphs(15)
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
    # the compiled entry packs a child's rows into 64-bit words, so it
    # answers NotImplemented for a parent above 62 vertices, whose
    # disjoint-edge child would not fit, and that parent goes to the pure
    # twin
    calls = []

    def spy(name, most):
        def children(label, seen):
            n = parse_graph6(label).n
            calls.append((name, n))
            return [] if n <= most else NotImplemented
        return children

    monkeypatch.setattr(kernels, "_impl", SimpleNamespace(children=spy("impl", 62)))
    monkeypatch.setattr(_kernels_py, "children", spy("pure", 70))
    for n in (61, 62, 63, 64, 70):
        assert search._children(write_graph6(Graph.empty(n)), set()) == []
    assert calls == [("impl", 61), ("impl", 62), ("impl", 63), ("pure", 63), ("impl", 64),
                     ("pure", 64), ("impl", 70), ("pure", 70)]


def test_sharded_growth_equals_level(monkeypatch):
    # shard counts above the parent count leave some worker slices empty
    for m in (1, 2, 4, 6, 7):
        serial = search._level(m)
        for shards in (2, 3, 5):
            below = {k: v for k, v in search._LEVELS.items() if k < m}
            monkeypatch.setattr(search, "_LEVELS", below)
            assert search._level(m, shards) == serial


def test_level_with_a_missing_class_raises(monkeypatch, tmp_path):
    # every grown level is checked against A000664, serial or sharded, and
    # only then saved; C6 is one of the 68 classes with 6 edges, and the
    # forked workers run the lossy growth too
    dropped = canonical_label(Graph.cycle(6))
    grow = search._grow
    monkeypatch.setattr(search, "_grow", lambda parents: grow(parents) - {dropped})
    for shards in (1, 2):
        for store in (None, str(tmp_path)):
            monkeypatch.setattr(search, "_LEVELS", {})
            assert len(search._level(5, shards, store)) == 26
            with pytest.raises(RuntimeError, match=r"^level 6 has 67 classes, expected 68 "):
                search._level(6, shards, store)
            assert 6 not in search._LEVELS
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"level-{m}-v1.g6" for m in range(6)]


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
    with pytest.raises(ChildProcessError, match="^1 of 1 shard workers failed$"):
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


def stored(level):
    """The bytes of a store file holding the level."""
    body = "".join(label + "\n" for label in level).encode()
    return body + f"sha256 {hashlib.sha256(body).hexdigest()}\n".encode()


def test_cache_roundtrip(tmp_path, monkeypatch):
    # every level grown with a store is saved; a fresh process then takes a
    # new pattern's level from the store and grows nothing
    expected = rho_exact(Graph.path(4), 6)
    first = rho_exact(Graph.cycle(4), 6)
    levels = [search._level(m) for m in range(7)]
    monkeypatch.setattr(search, "_LEVELS", {})
    assert rho_exact(Graph.cycle(4), 6, cache_dir=str(tmp_path)) == first
    names = [f"level-{m}-v1.g6" for m in range(7)]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert [(tmp_path / name).read_bytes() for name in names] == list(map(stored, levels))
    monkeypatch.setattr(search, "_LEVELS", {})
    monkeypatch.setattr(search, "_grow", lambda parents: pytest.fail("a level was grown"))
    assert rho_exact(Graph.path(4), 6, cache_dir=str(tmp_path)) == expected
    assert list(search._LEVELS) == [6]


def drop_a_label(data):
    # one class fewer, under a digest that matches
    return stored(data.decode().split("\n")[1:-2])


@pytest.mark.parametrize("damage", [
    lambda data: bytes([data[0] ^ 1]) + data[1:],  # a flipped label byte
    lambda data: data[:len(data) // 2],  # a truncated file
    lambda data: data[:data.rindex(b"sha256 ")],  # no digest line
    drop_a_label,  # a wrong class count
], ids=["flipped", "truncated", "no-digest", "count"])
def test_a_damaged_level_is_grown_again(damage, tmp_path, monkeypatch, capsys):
    level = search._level(6)
    monkeypatch.setattr(search, "_LEVELS", {})
    search._level(6, store=str(tmp_path))
    path = tmp_path / "level-6-v1.g6"
    path.write_bytes(damage(path.read_bytes()))
    capsys.readouterr()
    monkeypatch.setattr(search, "_LEVELS", {})
    assert search._level(6, store=str(tmp_path)) == level
    assert capsys.readouterr().err == f"warning: {path} is damaged; the level is grown again\n"
    assert path.read_bytes() == stored(level)
    monkeypatch.setattr(search, "_LEVELS", {})
    assert search._level(6, store=str(tmp_path)) == level
    assert capsys.readouterr().err == ""


def test_levels_of_other_generator_versions_are_not_read(tmp_path, monkeypatch, capsys):
    # a well-formed level 6 under version 0, one class swapped for another
    level = search._level(6)
    old = tmp_path / "level-6-v0.g6"
    old.write_bytes(stored(level[1:] + search._level(5)[:1]))
    before = old.read_bytes()
    monkeypatch.setattr(search, "_LEVELS", {})
    assert search._level(6, store=str(tmp_path)) == level
    assert old.read_bytes() == before
    assert (tmp_path / "level-6-v1.g6").read_bytes() == stored(level)
    assert capsys.readouterr().err == ""


def test_a_failed_save_leaves_the_stored_level_whole(tmp_path, monkeypatch):
    # the disk fills halfway through the write: the file already stored is
    # untouched and no temporary file is left
    level = search._level(6)
    path = tmp_path / "level-6-v1.g6"
    path.write_bytes(stored(level))

    class Full:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def filling_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return Full(fh) if "w" in mode else fh

    monkeypatch.setattr(search, "open", filling_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        search._save_level(str(path), search._level(5) + level)
    assert path.read_bytes() == stored(level)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_forked_writers_leave_whole_files(tmp_path):
    # the writers start together once the pipe closes and each saves every
    # level up to 7 several times over
    levels = [search._level(m) for m in range(8)]
    start, release = os.pipe()
    pids = []
    for _ in range(4):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(release)
                os.read(start, 1)
                for _ in range(20):
                    for m, level in enumerate(levels):
                        search._save_level(str(tmp_path / f"level-{m}-v1.g6"), level)
                code = 0
            finally:
                os._exit(code)
        pids.append(pid)
    os.close(start)
    os.close(release)
    assert all(os.waitpid(pid, 0)[1] == 0 for pid in pids)
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"level-{m}-v1.g6" for m in range(8)]
    for m, level in enumerate(levels):
        assert search._load_level(str(tmp_path / f"level-{m}-v1.g6"), m) == level


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


def test_scan_skips_aut_when_no_host_holds_a_copy(monkeypatch):
    # |Aut| of a star is factorial to count; at m = 5 no host holds K_{1,13},
    # so the scan must not ask for it
    def refuse(g):
        raise AssertionError("automorphism_order called")

    monkeypatch.setattr(search, "automorphism_order", refuse)
    r = rho_exact(complete_bipartite(1, 13), 5)
    assert r.rho == 0 and r.classes_scanned == 26
    assert r.extremal == search._level(5) and not r.truncated


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


# The exact-value atlas: rho(H, m) and the number of maximizing classes for
# each of the 51 connected patterns with 2..6 edges, at m <= 12 on the
# compiled kernel and m <= 7 on the pure twin.  ATLAS_SHA256[top] is the
# sha256 of the lines "<pattern> <m> <rho> <maximizers>" for m = 1..top,
# patterns in level order.
ATLAS_SHA256 = {
    7: "72bbab058b7c4de9ff0fed27411d91263f95b902c09f62d37e4c1be13991a970",
    10: "a669f9cc2f1bab3b22ebd333ed12fabe5f2006eab6f6bd570dcfa2894ea43c60",
    12: "c9ba3d40338c865db9a875aeb284193699af99db3ce1f58f330f3a2b06a888b2",
}


def atlas_digest(patterns, table, top):
    digest = hashlib.sha256()
    for label in patterns:
        for m in range(1, top + 1):
            digest.update(f"{label} {m} {' '.join(map(str, table[label, m]))}\n".encode())
    return digest.hexdigest()


def test_exact_value_atlas(backends, monkeypatch):
    patterns = [label for m in range(2, 7) for label in search._level(m)
                if connected(parse_graph6(label))]
    assert len(patterns) == 51
    tables = {}
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        monkeypatch.setattr(search, "_LEVELS", {})
        top = 7 if backend is _kernels_py else 12
        table = {(label, 0): (0, 1) for label in patterns}  # the empty host
        for label in patterns:
            h = parse_graph6(label)
            for m in range(1, top + 1):
                r = rho_exact(h, m, max_certificates=search.CLASS_COUNTS[m])
                table[label, m] = (r.rho, len(r.extremal))
        # the oracles that hold for every connected pattern with h.m edges:
        # one more edge never hurts, disjoint hosts add, and deleting one of
        # the m edges keeps each copy in all but h.m of the m ways; count the
        # (pattern, m) pairs of the last and those where its floor is rho
        averaged = tight = 0
        for label in patterns:
            h = parse_graph6(label)
            rho = [table[label, m][0] for m in range(top + 1)]
            for m in range(1, top + 1):
                assert rho[m] >= rho[m - 1], (label, m)
                for a in range(1, m):
                    assert rho[m] >= rho[a] + rho[m - a], (label, a, m - a)
                if m > h.m:
                    assert rho[m] * (m - h.m) <= m * rho[m - 1], (label, m)
                    averaged += 1
                    tight += m * rho[m - 1] // (m - h.m) == rho[m]
        if top == 12:
            assert (averaged, tight) == (341, 57)
            families = (Graph.path(4), Graph.path(5), Graph.path(6), Graph.cycle(5), Graph.cycle(6))
            assert [table[canonical_form(h).label, 12][0] for h in families] == [36, 36, 32, 8, 8]
        for pinned, digest in ATLAS_SHA256.items():
            if pinned <= top:
                assert atlas_digest(patterns, table, pinned) == digest, (backend.BACKEND, pinned)
        tables[backend.BACKEND] = table
    if len(tables) == 2:
        assert tables["pure"].items() <= tables["c"].items()
