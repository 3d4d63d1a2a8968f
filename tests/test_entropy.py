import io
import json
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from edgeind import (
    BlowupSpec,
    CopyDistribution,
    EmptySupportError,
    Graph,
    alpha_extension_edges,
    blow_up,
    c6_hypergraph_check,
    characterizes_cycle,
    count_induced,
    cycle_extension_ledger,
    cycle_path_shearer,
    drop_one_covers,
    full_tuple_identity,
    induced_cycles,
    is_well_ordered,
    projection_entropy,
    verify_chain_shearer,
    kernels,
    parse_graph6,
    rho_exact,
    verify_path_decomposition,
)
from edgeind import entropy as ent
from edgeind.entropy import _contribution_cap, _row_fields, _validate_induced_cycle

from helpers import (
    complete_bipartite,
    edge_tuples_oracle,
    even_entries,
    fraction_caps_and_flags,
    fraction_contribution_cap,
    fraction_ledger,
    is_capable,
    links_ok,
    odd_prefix,
    path_decomposition_oracle,
    predicate_extension_edges,
    projection_entropy_oracle,
    random_graph,
)


def test_every_export_resolves():
    # the lazily imported names too, so a name deleted from its module
    # cannot stay exported; a module's own name serves the module
    import importlib

    import edgeind

    assert edgeind._LAZY.keys() <= set(edgeind.__all__)
    for name in edgeind.__all__:
        getattr(edgeind, name)  # AttributeError on a stale name
    for name, owner in edgeind._LAZY.items():
        module = importlib.import_module(f"edgeind.{owner}")
        assert getattr(edgeind, name) is (module if name == owner else getattr(module, name))
    assert edgeind.entropy is ent


@pytest.mark.parametrize("name", ["canon", "counting", "families", "ResultCache"])
def test_removed_names_are_not_served(name):
    import edgeind

    with pytest.raises(AttributeError, match=f"module 'edgeind' has no attribute '{name}'"):
        getattr(edgeind, name)


def test_projection_entropy_c4_in_k22():
    k22 = complete_bipartite(2, 2)
    dist = CopyDistribution.collect(k22, Graph.cycle(4))
    assert projection_entropy(dist, (1, 2, 3, 4)) == pytest.approx(math.log(8), abs=1e-12)
    edges = edge_tuples_oracle(dist.copies, 4, True)
    unoriented = [tuple(tuple(sorted(e)) for e in t) for t in edges]
    assert projection_entropy(unoriented, (2, 4), (1, 3)) == pytest.approx(math.log(2), abs=1e-12)


@st.composite
def tuples_with_coordinates(draw):
    """1-200 equal-length tuples of vertex and edge values, with 1-3 target
    and 0-3 given coordinates, disjoint.  The rows come from a seeded
    stream, because drawn lists stay too short for the order of a sum of
    many distinct counts to show in the last bit."""
    k = draw(st.integers(1, 7))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    spread = draw(st.integers(1, 9))

    def entry():
        if rng.random() < 0.5:
            return rng.randint(0, spread)
        return rng.randint(0, spread), rng.randint(0, spread)

    rows = [tuple(entry() for _ in range(k)) for _ in range(draw(st.integers(1, 200)))]
    coords = draw(st.permutations(range(1, k + 1)))
    n_target = draw(st.integers(1, min(3, k)))
    n_given = draw(st.integers(0, min(3, k - n_target)))
    return rows, tuple(coords[:n_target]), tuple(coords[n_target:n_target + n_given])


@settings(max_examples=400, deadline=None, database=None)
@given(tuples_with_coordinates())
def test_projection_entropy_equals_the_tuple_oracle_exactly(case):
    rows, target, given = case
    assert projection_entropy(rows, target, given) == \
        projection_entropy_oracle(rows, target, given)


def test_projection_entropy_on_copies_equals_the_tuple_oracle_exactly():
    dist = CopyDistribution.collect(blow_up(BlowupSpec(Graph.cycle(6), (2, 1, 2, 1, 2, 1))),
                                    Graph.cycle(6))
    for target, given in (((1,), ()), ((1, 2, 3, 4, 5, 6), ()), ((4,), (1, 2, 3)),
                          ((2, 5), (6,)), ((6, 1, 3), (2, 4, 5))):
        assert projection_entropy(dist, target, given) == \
            projection_entropy_oracle(dist.copies, target, given)


def test_edge_views_and_slices_equal_the_generators():
    """Odd-edge prefixes and even-edge tuples, as the path checks slice
    them, on the edge views of copies of C5..C10 and P4..P9."""
    cases = [(Graph.cycle(k), blow_up(BlowupSpec(Graph.cycle(k), (2,) + (1,) * (k - 1))), True)
             for k in range(5, 11)]
    cases += [(Graph.path(k), Graph.cycle(k + 3), False) for k in range(4, 10)]
    for pattern, host, cycle in cases:
        k = pattern.n
        dist = CopyDistribution.collect(host, pattern)
        for t in edge_tuples_oracle(dist.copies, k, cycle):
            for count in range(1, (len(t) + 1) // 2 + 1):
                assert t[:2 * count:2] == odd_prefix(t, count)
            for count in range(len(t) // 2 + 1):
                assert t[1:2 * count:2] == even_entries(t, count)
            if not cycle:
                l = k // 2 if k % 2 == 0 else (k - 1) // 2
                assert t[1:2 * l - 2:2] == even_entries(t, l - 1)
                if l >= 3:
                    assert t[1:2 * l - 4:2] == even_entries(t, l - 2)


def test_deterministic_coordinate_has_zero_entropy():
    dist = CopyDistribution.collect(Graph.cycle(5), Graph.cycle(5))
    k = dist.arity
    assert projection_entropy(dist, (1,), tuple(range(2, k + 1))) == pytest.approx(0.0, abs=1e-12)


def test_projection_entropy_input_validation():
    dist = CopyDistribution.collect(Graph.cycle(4), Graph.cycle(4))
    with pytest.raises(ValueError):
        projection_entropy(dist, (), (1,))
    with pytest.raises(ValueError):
        projection_entropy(dist, (1,), (1,))
    with pytest.raises(ValueError):
        projection_entropy(dist, (9,))
    with pytest.raises(EmptySupportError):
        projection_entropy([], (1,))
    with pytest.raises(EmptySupportError):
        CopyDistribution.collect(Graph.complete(3), Graph.cycle(4))


def test_full_tuple_identity_examples():
    for host, pattern in [
        (complete_bipartite(2, 2), Graph.cycle(4)),
        (blow_up(BlowupSpec(Graph.cycle(5), (2,) * 5)), Graph.cycle(5)),
        (Graph.cycle(6), Graph.path(5)),
    ]:
        rep = full_tuple_identity(CopyDistribution.collect(host, pattern))
        assert rep.passed


def test_chain_rule_random_orderings():
    rng = random.Random(606)
    dist = CopyDistribution.collect(blow_up(BlowupSpec(Graph.cycle(5), (2, 1, 2, 1, 1))), Graph.cycle(5))
    for _ in range(20):
        order = list(range(1, 6))
        rng.shuffle(order)
        rep = verify_chain_shearer(dist, ordering=tuple(order))
        assert rep.passed
        assert abs(rep["chain_rule"].slack) < 1e-9


def test_shearer_cover_validation():
    # the multiplicity r is the fewest sets covering a coordinate: 4 for
    # the drop-one family of C5, 2 for the three pairs of P3's coordinates
    c5 = CopyDistribution.collect(Graph.cycle(5), Graph.cycle(5))
    p3 = CopyDistribution.collect(Graph.cycle(6), Graph.path(3))
    for dist, covers, r in ((c5, drop_one_covers(5), 4), (p3, [(1, 2), (2, 3), (1, 3)], 2)):
        h = projection_entropy(dist, range(1, dist.arity + 1))
        rhs = sum(projection_entropy(dist, a) for a in covers) / r
        rep = verify_chain_shearer(dist, covers=covers)
        assert rep.terms == [ent.Term("full_entropy", "value", h),
                             ent.Term("uniform_support", "identity", h, math.log(len(dist))),
                             ent.Term("subadditive_cover", "inequality", h, rhs)]
        assert rep.passed


C5_COPIES = CopyDistribution.collect(Graph.cycle(5), Graph.cycle(5))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ent.EntropyReport()["chain_rule"], KeyError, "chain_rule"),
    (lambda: verify_chain_shearer(C5_COPIES, ordering=(1, 1, 2, 3, 4)), ValueError,
     "ordering must permute the coordinates"),
    (lambda: verify_chain_shearer(C5_COPIES, covers=[(1, 2), (2, 3)]), ValueError,
     "coordinate 4 is not covered"),
    (lambda: cycle_path_shearer(Graph.cycle(6), 6), ValueError,
     "odd cycles with at least 5 vertices only"),
    (lambda: cycle_path_shearer(Graph.cycle(3), 3), ValueError,
     "odd cycles with at least 5 vertices only"),
    (lambda: ent.beta_embeddings(Graph.cycle(6), ((0, 1),), Graph.path(3)), ValueError,
     "beta embeddings are defined for path/cycle families"),
    (lambda: ent.beta_embeddings(Graph.path(6), ((0, 1), (2, 3), (4, 5)), "P4"), ValueError,
     "tuple of 3 edges too long for P4"),
    (lambda: ent.beta_embeddings(Graph.cycle(6), ((0, 1), (3, 2)), "P6"), ValueError,
     "tuple is neither well-ordered nor cycle-characterizing"),
    (lambda: verify_path_decomposition(Graph.cycle(5), "C5"), ValueError,
     "decomposition applies to paths on at least 4 vertices"),
    (lambda: verify_path_decomposition(Graph.cycle(5), "P3"), ValueError,
     "decomposition applies to paths on at least 4 vertices"),
])
def test_argument_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_cycle_close_defaults_k_to_the_closing_cycle():
    # a tuple of k/2 - 1 entries closes C_k: on C_k[2], entries on the
    # first k - 2 parts (the edge sets pinned when k was an argument)
    assert alpha_extension_edges(Graph.cycle(6), ((0, 1), (2, 3)), "cycle-close") == [(4, 5)]
    closing = {4: [(1, 3), (1, 6), (1, 7), (3, 4), (3, 5), (4, 6), (4, 7), (5, 6), (5, 7)],
               6: [(8, 10), (8, 11), (9, 10), (9, 11)],
               8: [(12, 14), (12, 15), (13, 14), (13, 15)]}
    for k, expected in closing.items():
        host = blow_up(BlowupSpec(Graph.cycle(k), (2,) * k))
        t = tuple((4 * i, 4 * i + 2) for i in range(k // 2 - 1))
        assert alpha_extension_edges(host, t, "cycle-close") == expected
        assert predicate_extension_edges(host, t, "cycle-close", k) == expected


def test_cycle_path_shearer_on_blowup():
    host = blow_up(BlowupSpec(Graph.cycle(5), (2,) * 5))
    rep = cycle_path_shearer(host, 5)
    assert rep.passed
    gamma = count_induced(host, Graph.cycle(5)).unordered
    upsilon = count_induced(host, Graph.path(4)).unordered
    lhs = math.log(2 * 5 * gamma)
    rhs = (5 / 4) * math.log(2 * upsilon)
    assert rep["cycle_vs_path"].lhs == pytest.approx(lhs, abs=1e-12)
    assert rep["cycle_vs_path"].rhs == pytest.approx(rhs, abs=1e-12)
    assert lhs <= rhs + 1e-9


def test_path_decomposition_examples():
    host = blow_up(BlowupSpec(Graph.cycle(5), (2,) * 5))
    rep = verify_path_decomposition(host, "P4")
    assert rep.passed
    assert rep["closed_form"].slack > 0  # strict on this host
    rep = verify_path_decomposition(Graph.cycle(6), "P5")
    assert rep.passed
    assert rep["per_copy_budget"].lhs <= 6
    with pytest.raises(EmptySupportError):
        verify_path_decomposition(complete_bipartite(3, 3), "P5")


def test_path_decomposition_random_hosts():
    rng = random.Random(909)
    done = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(6, 9), rng.choice([0.3, 0.45]))
        for fam in ("P4", "P5", "P6", "P7"):
            try:
                rep = verify_path_decomposition(g, fam)
            except EmptySupportError:
                continue
            assert rep.passed, (fam, [t.name for t in rep.terms if not t.ok])
            done += 1
    assert done > 20


def test_ledger_c8():
    led = cycle_extension_ledger(Graph.cycle(8), tuple(range(8)))
    assert set(led.s_plus) == {Fraction(5, 2)} and set(led.s_minus) == {Fraction(5, 2)}
    assert led.total_plus == 20 and led.budget == 32
    assert led.within_budget and not led.flagged


def test_ledger_c6():
    led = cycle_extension_ledger(Graph.cycle(6), tuple(range(6)))
    assert led.total_plus <= led.fallback_budget
    assert led.within_fallback


def test_ledger_rows_reconstruct_totals():
    rng = random.Random(2024)
    hosts = [Graph.cycle(6), blow_up(BlowupSpec(Graph.cycle(6), (2, 1, 1, 2, 1, 1)))]
    for _ in range(20):
        hosts.append(random_graph(rng, 9, 0.3))
    count = 0
    for g in hosts:
        for cyc in induced_cycles(g, 6):
            led = cycle_extension_ledger(g, cyc)
            count += 1
            assert sum(r.plus_total for r in led.rows) == led.total_plus
            assert sum(r.minus_total for r in led.rows) == led.total_minus
            assert led.within_fallback
    assert count >= 5


def test_ledger_blowup_example():
    host = blow_up(BlowupSpec(Graph.cycle(8), (2, 1, 1, 1, 1, 1, 1, 1)))
    for cyc in induced_cycles(host, 8):
        led = cycle_extension_ledger(host, cyc)
        assert led.within_budget


def test_ledger_csv_shape():
    led = cycle_extension_ledger(Graph.cycle(6), tuple(range(6)))
    buf = io.StringIO()
    led.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1 + 6 + 1  # header, one per edge, totals
    assert lines[0].split(",")[2] == "S1+"


def test_ledger_flags_every_row_over_its_cap(monkeypatch):
    # with every case cap at 0, each edge that extends a tuple is flagged;
    # the flags are a report, so the sums and the verdicts stay the same
    host = blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6))
    cyc = induced_cycles(host, 6)[0]
    ent._host_memo.cache_clear()
    ref = cycle_extension_ledger(host, cyc)
    monkeypatch.setattr(ent, "_contribution_cap", lambda adjacent, j, k: 0)
    ent._host_memo.cache_clear()
    try:
        led = cycle_extension_ledger(host, cyc)
    finally:
        ent._host_memo.cache_clear()
    assert not ref.flagged and len(led.rows) == host.m == 24
    assert led.flagged == tuple((r.edge, r.flags) for r in led.rows)
    assert all(flags for _, flags in led.flagged)
    rep = led.to_json()
    assert rep["flagged"] == [[list(edge), list(flags)] for edge, flags in led.flagged]
    assert len(rep["flagged"]) == 24
    assert (led.s_plus, led.s_minus, led.total_plus, led.total_minus) == \
        (ref.s_plus, ref.s_minus, ref.total_plus, ref.total_minus)
    assert (led.within_budget, led.within_fallback) == (ref.within_budget, ref.within_fallback)


def test_ledger_input_validation():
    with pytest.raises(ValueError):
        cycle_extension_ledger(Graph.cycle(6), (0, 1, 2, 3, 4, 4))
    with pytest.raises(ValueError):
        cycle_extension_ledger(Graph.complete(6), (0, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        cycle_extension_ledger(Graph.cycle(7), tuple(range(7)))  # odd length
    # -1 would alias vertex 7 and 8 is past the host: both are out of range
    for seq in ((-1, 0, 1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 7, 8)):
        with pytest.raises(ValueError, match="outside"):
            cycle_extension_ledger(Graph.cycle(8), seq)


def test_c6_hypergraph_on_c6():
    rep = c6_hypergraph_check(Graph.cycle(6))
    assert rep.gamma == 1 and len(rep.capable_triples) == 2
    assert rep.passed
    by_name = {t.name: t for t in rep.report.terms}
    assert by_name["codegree_sum_vs_budget"].lhs == by_name["codegree_sum_vs_budget"].rhs == 6


def test_c6_hypergraph_trivial_and_blowup():
    rep = c6_hypergraph_check(Graph.complete(4))
    assert rep.gamma == 0 and rep.passed
    host = blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6))
    rep = c6_hypergraph_check(host)
    assert rep.gamma == 64 and len(rep.capable_triples) == 128
    assert rep.passed


def test_capable_triples_match_direct_definition():
    rng = random.Random(31337)
    for _ in range(6):
        g = random_graph(rng, 8, 0.4)
        rep = c6_hypergraph_check(g)
        from itertools import combinations

        direct = {
            tuple(sorted(t))
            for t in combinations(g.edges(), 3)
            if is_capable(g, t)
        }
        assert direct == set(rep.capable_triples)


def _relabelled_blowup(rng, k, sizes):
    host = blow_up(BlowupSpec(Graph.cycle(k), tuple(sizes)))
    perm = list(range(host.n))
    rng.shuffle(perm)
    return host.relabel(perm)


def _assert_same_ledger(led, ref):
    assert (led.cycle, led.m) == (ref.cycle, ref.m)
    assert led.s_plus == ref.s_plus and led.s_minus == ref.s_minus
    for row, ref_row in zip(led.rows, ref.rows, strict=True):
        assert row.edge == ref_row.edge
        assert row.adjacent_positions == ref_row.adjacent_positions
        assert (row.plus, row.minus) == (ref_row.plus, ref_row.minus)
        assert (row.plus_caps, row.minus_caps) == (ref_row.plus_caps, ref_row.minus_caps)
        assert row.flags == ref_row.flags
        for values in (row.plus, row.minus, row.plus_caps, row.minus_caps):
            assert all(type(x) is Fraction for x in values)
    assert all(type(x) is Fraction for x in led.s_plus + led.s_minus)
    assert led.flagged == ref.flagged
    assert led == ref
    assert led.to_json() == ref.to_json()
    buf, ref_buf = io.StringIO(), io.StringIO()
    led.write_csv(buf)
    ref.write_csv(ref_buf)
    assert buf.getvalue() == ref_buf.getvalue()


def test_ledger_matches_fraction_oracle_on_blowups():
    rng = random.Random(6810)
    checked = 0
    for k in (6, 8, 10):
        for _ in range(4):
            sizes = [rng.choice((1, 1, 2, 3)) for _ in range(k)]
            host = _relabelled_blowup(rng, k, sizes)
            cycles = induced_cycles(host, k)
            for cyc in rng.sample(cycles, min(3, len(cycles))):
                _assert_same_ledger(cycle_extension_ledger(host, cyc), fraction_ledger(host, cyc))
                checked += 1
    assert checked >= 30


def test_ledger_matches_fraction_oracle_on_random_hosts():
    # an induced C_k planted among random extra vertices and edges, which
    # random graphs this small rarely contain by themselves
    rng = random.Random(1357)
    checked = 0
    for _ in range(40):
        k = rng.choice((6, 8, 10))
        extra = random_graph(rng, rng.randint(2, 6), rng.choice((0.25, 0.5)))
        n = k + extra.n
        edges = [(i, (i + 1) % k) for i in range(k)]
        edges += [(k + u, k + v) for u, v in extra.edges()]
        p = rng.choice((0.15, 0.3))
        edges += [(i, k + v) for i in range(k) for v in range(extra.n) if rng.random() < p]
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        cycles = induced_cycles(g, k)
        for cyc in cycles[:3]:
            _assert_same_ledger(cycle_extension_ledger(g, cyc), fraction_ledger(g, cyc))
            checked += 1
    assert checked >= 40


def test_half_unit_caps_match_fraction_caps():
    # the flag path never fires on random hosts, so every adjacency mask
    # and position is compared here
    for k in (6, 8, 10):
        for mask in range(1 << k):
            adjacent = {j for j in range(k) if mask >> j & 1}
            for j in range(k):
                assert Fraction(_contribution_cap(mask, j, k), 2) == \
                    fraction_contribution_cap(adjacent, j, k)


def test_row_fields_match_the_oracle_on_over_cap_vectors():
    # real hosts never reach the flag path, so synthetic plus and minus
    # vectors (half-units 0..4, often over a case cap or the per-edge cap)
    # go straight to the row derivation, on every adjacency mask for k = 6
    # and 8 and on sampled masks for k = 10
    rng = random.Random(1910)
    fired = set()
    for k in (6, 8, 10):
        masks = range(1 << k) if k < 10 else rng.sample(range(1 << k), 300)
        for mask in masks:
            for _ in range(2):
                plus = tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(k))
                minus = tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(k))
                adjacent = tuple(j for j in range(k) if mask >> j & 1)
                adjacent_rev = {k - 1 - j for j in adjacent}  # rev[j] is seq[k-1-j]
                halves = [Fraction(h, 2) for h in plus], [Fraction(h, 2) for h in minus]
                pcaps, mcaps, flags = fraction_caps_and_flags(k, adjacent, adjacent_rev, *halves)
                fields = _row_fields(mask, plus, minus)
                assert fields == (adjacent, *map(tuple, halves), pcaps, mcaps, flags), \
                    (k, mask, plus, minus)
                for values in fields[1:5]:
                    assert all(type(x) is Fraction for x in values)
                fired.update(f.split("_", 1)[0] + ("_total" if "total" in f else "")
                             for f in flags)
    assert fired == {"plus", "minus", "plus_total", "minus_total"}


def _two_cycle_host():
    """C8 on 0..7 with the path 3-8-9-0: induced 6- and 8-cycles share
    vertices, so one host gives ledgers of both lengths."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(3, 8), (8, 9), (9, 0)]
    return Graph.from_edges(10, edges)


def test_ledger_memo_holds_the_current_host_only():
    rng = random.Random(1911)
    a = _two_cycle_host()
    b = _relabelled_blowup(rng, 6, (2, 1, 3, 1, 1, 2))
    perm = list(range(a.n))
    rng.shuffle(perm)
    runs = [(a, (6, 8, 6)), (b, (6,)), (a, (8, 6)), (a.relabel(perm), (8, 6))]
    for host, lengths in runs:
        for k in lengths:
            cycles = induced_cycles(host, k)
            assert cycles
            for cyc in cycles[:4]:
                _assert_same_ledger(cycle_extension_ledger(host, cyc), fraction_ledger(host, cyc))
            # one host is held, and it is this one: asking for it is a hit
            misses = ent._host_memo.cache_info().misses
            edges, windows, _ = ent._host_memo(host)
            assert ent._host_memo.cache_info().currsize == 1
            assert ent._host_memo.cache_info().misses == misses
            assert edges == host.edges()
        # the windows held are the host's own: reading ``host.adj`` again
        # gives each window's weights
        for window, (weights, total) in windows.items():
            assert weights == ent._extension_weights(host.adj, window)
            assert total == sum(weights.values())


def test_ledger_json_shares_one_list_per_shared_tuple():
    host = blow_up(BlowupSpec(Graph.cycle(6), (3, 3, 2, 2, 2, 2)))
    ledgers = [cycle_extension_ledger(host, c) for c in induced_cycles(host, 6)[:2]]
    for led in ledgers:
        rows = led.to_json()["rows"]
        for name in ("adjacent_positions", "plus", "minus"):
            tuples = {id(getattr(r, name)) for r in led.rows}
            lists = {id(r[name]) for r in rows}
            assert len(lists) == len(tuples) < len(rows), name
    # rows of one pattern share their tuples across the host's ledgers
    assert {id(r.plus) for r in ledgers[0].rows} & {id(r.plus) for r in ledgers[1].rows}


def test_odd_path_check_enumerates_once(monkeypatch):
    # the gamma statistics are read off the copies the check collects, so
    # the 256 prefixes of this host cost no enumeration of their own
    host = blow_up(BlowupSpec(Graph.cycle(8), (2,) * 8))
    calls = []
    enumerate_ordered = kernels.enumerate_ordered

    def counted(g, h, pins=()):
        calls.append(pins)
        return enumerate_ordered(g, h, pins)

    monkeypatch.setattr(kernels, "enumerate_ordered", counted)
    rep = verify_path_decomposition(host, "P7")
    assert rep.passed
    assert calls == [()]


def _maximizers(pattern, m):
    result = rho_exact(pattern, m)
    assert result.rho > 0 and not result.truncated
    return [parse_graph6(label) for label in result.extremal]


def test_proof_steps_hold_on_every_extremal_host(backends, monkeypatch):
    """The proof steps on the hosts where the bounds are tightest: every
    rho maximizer for m <= 9 of P4..P7 passes the path decomposition, of
    C6 and C8 keeps every claim1 ledger within the m*l budget, and of C6
    passes the hypergraph chain."""
    monkeypatch.setattr(kernels, "_impl", backends[-1])  # the compiled kernel when built
    checked = 0
    for k in range(4, 8):
        for m in range(k - 1, 10):
            for host in _maximizers(Graph.path(k), m):
                rep = verify_path_decomposition(host, f"P{k}")
                assert rep.passed, (k, m, [t.name for t in rep.terms if not t.ok])
                checked += 1
    for k in (6, 8):
        for m in range(k, 10):
            for host in _maximizers(Graph.cycle(k), m):
                for cyc in induced_cycles(host, k):
                    assert cycle_extension_ledger(host, cyc).within_budget, (k, m)
                if k == 6:
                    assert c6_hypergraph_check(host).passed, m
                checked += 1
    assert checked > 30


@st.composite
def hosts_with_any_tuples(draw):
    """A host on at most 10 vertices with a path or cycle on 2*entries
    vertices (1-4 entries) planted on a random relabelling, random edges
    added among all vertices, and the planted odd-edge tuple with one entry
    reversed a third of the time: well-ordered, cycle-characterizing or
    neither."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    entries = rng.randint(1, 4)
    k = 2 * entries
    n = rng.randint(k, 10)
    edges = {(i, i + 1) for i in range(k - 1)}
    if entries >= 2 and rng.random() < 0.5:
        edges.add((0, k - 1))
    p = rng.choice([0.05, 0.15, 0.3])
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    name = list(range(n))
    rng.shuffle(name)
    g = Graph.from_edges(n, [(name[u], name[v]) for u, v in edges])
    t = [(name[2 * i], name[2 * i + 1]) for i in range(entries)]
    if rng.random() < 1 / 3:
        i = rng.randrange(entries)
        t[i] = t[i][::-1]
    return g, tuple(t)


@settings(max_examples=300, deadline=None, database=None)
@given(hosts_with_any_tuples())
def test_tuple_predicates_equal_the_pairwise_definition(backends, case):
    g, t = case
    saved = kernels._impl
    try:
        for backend in backends:
            kernels._impl = backend
            assert is_well_ordered(g, t) == links_ok(g, t, wrap=False)
            assert characterizes_cycle(g, t) == (len(t) >= 2 and links_ok(g, t, wrap=True))
            seq = tuple(v for e in t for v in e)
            if len(seq) >= 6:
                try:
                    _validate_induced_cycle(g, seq)
                    valid = True
                except ValueError:
                    valid = False
                assert valid == links_ok(g, t, wrap=True)
    finally:
        kernels._impl = saved


# -- the path check on integer columns against the tuple oracle --


def _path_reports(host, k):
    """(new, oracle) report texts, or "empty" where both raise
    EmptySupportError."""
    out = []
    for check in (verify_path_decomposition, path_decomposition_oracle):
        try:
            out.append(json.dumps(check(host, f"P{k}").to_json()))
        except EmptySupportError:
            out.append("empty")
    return out


@st.composite
def path_hosts(draw):
    """A path length 4..9 and a host: a random graph on 4-16 vertices at
    one of several densities, or a blow-up of a cycle long enough to hold
    the path (C_{k+1}..C_10) with parts of 1-2 vertices, relabelled at
    random.  The choices come from a seeded stream: drawn ones shrink to
    hosts too small to hold a long path."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    k = rng.randint(4, 9)
    if rng.random() < 0.5:
        n = rng.randint(max(4, k), 16)
        return random_graph(rng, n, rng.choice([0.15, 0.3, 0.45, 0.6, 0.85])), k
    c = rng.randint(k + 1, 10)
    host = blow_up(BlowupSpec(Graph.cycle(c), tuple(rng.randint(1, 2) for _ in range(c))))
    perm = list(range(host.n))
    rng.shuffle(perm)
    return host.relabel(perm), k


@settings(max_examples=60, deadline=None, database=None)
@given(path_hosts())
def test_path_check_equals_the_tuple_oracle(backends, case):
    host, k = case
    saved = kernels._impl
    try:
        for backend in backends:
            kernels._impl = backend
            new, oracle = _path_reports(host, k)
            assert new == oracle, (backend.BACKEND, k)
    finally:
        kernels._impl = saved


def test_path_check_keeps_its_summation_order(backends, monkeypatch):
    """On this host the per-copy log terms of P4's alpha average and of
    P5's gamma averages have a correctly rounded sum (math.fsum) that
    differs from their left-to-right sum even after dividing by the copy
    count.  So the report pins the summation primitive: a running float
    total from 0.0, ``reduce(add, terms, 0.0)``, for every average on every
    Python version (builtin ``sum`` compensates float rounding from 3.12
    on)."""
    host = random_graph(random.Random(1), 11, 0.35)

    def norm(e):
        return tuple(sorted(e))

    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        edges = edge_tuples_oracle(CopyDistribution.collect(host, Graph.path(4)).copies, 4, False)
        terms = [math.log(len(alpha_extension_edges(host, (t[0],)))) for t in edges]
        rep = verify_path_decomposition(host, "P4")
        n = len(terms)
        running = reduce(add, terms, 0.0)
        assert math.fsum(terms) / n != running / n
        assert rep["conditional_3_vs_extensions"].rhs == running / n

        edges = edge_tuples_oracle(CopyDistribution.collect(host, Graph.path(5)).copies, 5, False)
        n = len(edges)
        finals = {}
        for t in edges:
            finals.setdefault(t[0], set()).add(norm(t[3]))
        g0 = [math.log(len(finals[t[0]])) for t in edges]
        seconds = {}
        for t in edges:
            seconds.setdefault((t[0], norm(t[3])), set()).add(norm(t[1]))
        g1 = [math.log(len(seconds[t[0], norm(t[3])])) for t in edges]
        rep = verify_path_decomposition(host, "P5")
        running = reduce(add, g0, 0.0)
        assert math.fsum(g0) / n != running / n
        assert rep["conditional_final_vs_gamma0"].rhs == running / n
        running = reduce(add, g1, 0.0)
        assert math.fsum(g1) / n != running / n
        assert rep["conditional_secondlast_vs_gamma1"].rhs == running / n
        for k in (4, 5):
            new, oracle = _path_reports(host, k)
            assert new == oracle


def test_path_check_asks_alpha_once_per_distinct_prefix(monkeypatch):
    host = blow_up(BlowupSpec(Graph.cycle(8), (2,) * 8))
    calls = []
    extension_edges = ent._extension_edges

    def counted(adj, t, close):
        calls.append(tuple(t))
        return extension_edges(adj, t, close)

    monkeypatch.setattr(ent, "_extension_edges", counted)
    rep = verify_path_decomposition(host, "P7")
    assert rep.passed
    # P7 has l = 3, so alpha is asked only of one-entry prefixes: the
    # first edges, with orientation
    edges = edge_tuples_oracle(CopyDistribution.collect(host, Graph.path(7)).copies, 7, False)
    prefixes = {t[:1] for t in edges}
    assert len(calls) == len(set(calls)) == len(prefixes) == 64
    assert set(calls) == prefixes


def test_finished_path_check_leaves_no_cycle(monkeypatch):
    # with the collector off, reference counting alone must free the
    # columns and their memos once the check returns
    import gc
    import weakref

    made = []

    class Watched(ent._PathColumns):
        def __init__(self, host, copies):
            super().__init__(host, copies)
            made.append(weakref.ref(self))

    monkeypatch.setattr(ent, "_PathColumns", Watched)
    host = blow_up(BlowupSpec(Graph.cycle(8), (2,) * 8))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for family in ("P4", "P5", "P7"):
            assert verify_path_decomposition(host, family).passed
        freed = [ref() is None for ref in made]
    finally:
        if enabled:
            gc.enable()
    assert freed == [True] * 3
