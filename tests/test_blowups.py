import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from edgeind import (
    BlowupSpec,
    Graph,
    alpha_f,
    automorphism_order,
    blow_up,
    blowups,
    bound_eval,
    canonical_label,
    construction,
    count_induced,
    effective_upper,
    kernels,
    lower_bound_construction,
    optimize_part_sizes,
    parse_graph6,
    verify_sandwich,
)
from edgeind.blowups import map_profile
from edgeind.graph import family_graph

from helpers import complete_bipartite, count_labellings, reference_optimize, without_isolated


def test_blowup_examples():
    g = blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6))
    assert (g.n, g.m) == (12, 24)
    assert count_induced(g, Graph.cycle(6)).unordered == 64
    assert blow_up(BlowupSpec(Graph.cycle(5), (1,) * 5)) == Graph.cycle(5)
    assert BlowupSpec(Graph.cycle(6), (1, 4, 1, 4, 1, 4)).edge_count() == 24


def test_blowup_edge_count_closed_form():
    rng = random.Random(7)
    for _ in range(30):
        base = Graph.from_edges(4, [(i, j) for i, j in combinations(range(4), 2) if rng.random() < 0.6])
        sizes = tuple(rng.randint(0, 3) for _ in range(4))
        spec = BlowupSpec(base, sizes)
        assert blow_up(spec).m == spec.edge_count()


def test_cycle_blowup_count_is_product_of_parts():
    rng = random.Random(17)
    for k in (5, 6, 7):
        for _ in range(8):
            sizes = tuple(rng.randint(1, 3) for _ in range(k))
            if sum(sizes) > 12:
                continue
            spec = BlowupSpec(Graph.cycle(k), sizes)
            expected = math.prod(sizes)
            assert count_induced(blow_up(spec), Graph.cycle(k)).unordered == expected


def test_lower_bound_construction_examples():
    spec = lower_bound_construction(Graph.cycle(5), 125)
    assert spec.sizes == (5,) * 5 and spec.edge_count() == 125
    assert count_induced(blow_up(spec), Graph.cycle(5)).unordered == 3125
    spec = lower_bound_construction(Graph.complete(2), 10)
    assert sorted(spec.sizes) == [1, 10]
    assert count_induced(blow_up(spec), Graph.complete(2)).unordered == 10
    spec = lower_bound_construction(Graph.path(5), 36)
    assert spec.sizes == (9, 1, 9, 1, 9) and spec.edge_count() <= 36


def test_lower_bound_construction_respects_budget():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < 0.5]
        if not edges:
            continue
        h = without_isolated(Graph.from_edges(n, edges))
        for m in (h.m, 2 * h.m + 1, 30):
            assert lower_bound_construction(h, m).edge_count() <= m


def test_lower_bound_construction_warns_below_budget():
    with pytest.warns(UserWarning):
        spec = lower_bound_construction(Graph.cycle(5), 3)
    assert count_induced(blow_up(spec), Graph.cycle(5)).unordered == 0


def test_optimizer_examples():
    spec = optimize_part_sizes("C5", 500)
    assert sorted(spec.sizes) == [10] * 5
    assert count_induced(blow_up(spec), Graph.cycle(5)).unordered == 100000
    spec = optimize_part_sizes("C4", 100)
    assert sorted(spec.sizes) == [10, 10]
    assert count_induced(blow_up(spec), Graph.cycle(4)).unordered == 2025
    spec = optimize_part_sizes("P5", 16)
    realized = blow_up(spec)
    assert realized.m <= 16
    odd = [spec.sizes[i] for i in range(0, 5, 2)]
    assert count_induced(realized, Graph.path(5)).unordered == math.prod(odd)


def test_optimizer_budget_and_determinism():
    for fam, m in [("C5", 23), ("C6", 17), ("P4", 11), ("P3", 8), ("C4", 12)]:
        a = optimize_part_sizes(fam, m)
        b = optimize_part_sizes(fam, m)
        assert a == b
        assert a.edge_count() <= m


def test_optimizer_matches_exhaustive_on_small_budgets():
    # full search over every size vector of the same base graph
    from itertools import product

    cases = [("C5", 10, 4), ("C5", 14, 5), ("C6", 14, 4), ("C4", 12, 6),
             ("P4", 9, 4), ("P5", 12, 5), ("P3", 7, 7)]
    for fam, m, cap in cases:
        pattern = family_graph(fam)
        spec = optimize_part_sizes(fam, m)
        got = count_induced(blow_up(spec), pattern).unordered
        best = 0
        for sizes in product(range(cap + 1), repeat=spec.base.n):
            cand = BlowupSpec(spec.base, sizes)
            if cand.edge_count() > m or sum(cand.sizes) < pattern.n:
                continue
            best = max(best, count_induced(blow_up(cand), pattern).unordered)
        assert got == best, (fam, m, got, best)


def test_bound_examples():
    rows = bound_eval("C6", 36)
    assert effective_upper(rows).value == pytest.approx(648.0)
    rows = bound_eval("P4", 10)
    assert effective_upper(rows).value == pytest.approx(50.0)
    rows = bound_eval("P3", 9)
    assert effective_upper(rows).value == pytest.approx(36.0)
    rows = bound_eval("C4", 16)
    assert effective_upper(rows).value == pytest.approx(64.0)


def test_bound_rational_crosschecks():
    # closed forms with integer exponents, recomputed in exact arithmetic
    for l, m in [(2, 10), (3, 9), (4, 20)]:
        rows = {r.provenance: r for r in bound_eval(f"P{2 * l}", m)}
        exact = Fraction(m ** l, 2 * (l - 1) ** (l - 1))
        assert rows["even_path_upper"].value == pytest.approx(float(exact), rel=1e-12)
        rows = {r.provenance: r for r in bound_eval(f"P{2 * l + 1}", m)}
        exact = Fraction(m ** (l + 1), 4 * l ** l)
        assert rows["odd_path_upper"].value == pytest.approx(float(exact), rel=1e-12)
    rows = {r.provenance: r for r in bound_eval("C6", 12)}
    assert rows["c6_upper"].value == pytest.approx(float(Fraction(3 * 12 ** 3, 6 ** 3)), rel=1e-12)


def test_generic_upper_uses_aut_and_alpha_f():
    h = Graph.path(4)
    rows = {r.provenance: r for r in bound_eval(h, 10)}
    expected = 2 ** (4 / 2) / automorphism_order(h) * 10 ** float(alpha_f(h))
    assert rows["fractional_independence_upper"].value == pytest.approx(expected)


def test_even_cycle_factor_below_e():
    for l in range(4, 12):
        assert (1 + 1 / (l - 1)) ** (l - 1) <= math.e + 1e-12
        rows = {r.provenance: r for r in bound_eval(f"C{2 * l}", 2 * l)}
        assert rows["long_even_cycle_upper"].value <= math.e * (1.0) ** l + 1e-9


def test_range_errors():
    with pytest.raises(ValueError):
        bound_eval("C3", 5)
    with pytest.raises(ValueError):
        bound_eval("P2", 5)


@pytest.mark.parametrize("call, message", [
    (lambda: blow_up(BlowupSpec(Graph.path(2), (1,))), "one size per base vertex"),
    (lambda: blow_up(BlowupSpec(Graph.path(2), (1, -1))), "part sizes must be nonnegative"),
    (lambda: blow_up(BlowupSpec(Graph.path(2), (65, 64))),
     "blow-up on 129 vertices exceeds the 128-vertex limit"),
    (lambda: lower_bound_construction(Graph.from_edges(3, [(0, 1)]), 5),
     "pattern must have no isolated vertices"),
])
def test_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_construction_lower_row_included():
    rows = {r.provenance: r for r in bound_eval("C5", 20)}
    assert rows["construction_lower"].kind == "lower"
    assert rows["construction_lower"].value <= effective_upper(rows.values()).value + 1e-9


# (family, budget) of every optimizer run in the tests above
OPTIMIZER_RUNS = [("C5", 500), ("C4", 100), ("P5", 16),
                  ("C5", 23), ("C6", 17), ("P4", 11), ("P3", 8), ("C4", 12),
                  ("C5", 10), ("C5", 14), ("C6", 14), ("P4", 9), ("P5", 12), ("P3", 7)]


def closed_form(spec, pattern):
    return blowups._scorer(spec.base, pattern)(spec.sizes)


def test_closed_form_matches_kernel_on_visited_specs(backends, monkeypatch):
    scores = {}
    scorer = blowups._scorer

    def recording(base, pattern):
        score = scorer(base, pattern)

        def record(sizes):
            value = scores[BlowupSpec(base, sizes), pattern] = score(sizes)
            return value

        return record

    monkeypatch.setattr(blowups, "_scorer", recording)
    for family, m in OPTIMIZER_RUNS:
        optimize_part_sizes(family, m)
    assert len(scores) > 2000
    monkeypatch.setattr(kernels, "_impl", backends[-1])  # the compiled kernel when built
    for (spec, pattern), score in scores.items():
        assert score == count_induced(blow_up(spec), pattern).unordered, spec


# (base, pattern) pairs the optimizer blows up: C4 on K2, each cycle and odd
# path on itself, P4 and P6 on C5 and C7, a generic pattern (the star "Cs")
# on itself, plus a path on a cycle and a cycle on a path for zero counts.
FORMULA_PAIRS = ([(Graph.complete(2), Graph.cycle(4))]
                 + [(Graph.cycle(k), Graph.cycle(k)) for k in range(4, 9)]
                 + [(Graph.path(k), Graph.path(k)) for k in (3, 5, 7)]
                 + [(Graph.cycle(k + 1), Graph.path(k)) for k in (4, 6)]
                 + [(parse_graph6("Cs"), parse_graph6("Cs")),
                    (Graph.cycle(6), Graph.path(4)), (Graph.path(5), Graph.cycle(4))])


@st.composite
def small_graphs(draw, low, high):
    n = draw(st.integers(low, high))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def blowup_cases(draw):
    """One of the pairs above or a random base and pattern, with part sizes
    of 0 to 3."""
    if draw(st.booleans()):
        base, pattern = draw(st.sampled_from(FORMULA_PAIRS))
    else:
        base = draw(small_graphs(1, 5))
        pattern = draw(small_graphs(2, 5).filter(lambda h: h.m and not h.isolated_vertices()))
    sizes = tuple(draw(st.lists(st.integers(0, 3), min_size=base.n, max_size=base.n)))
    return BlowupSpec(base, sizes), pattern


@settings(max_examples=300, deadline=None, database=None)
@given(blowup_cases())
def test_closed_form_matches_kernel_on_drawn_sizes(case):
    spec, pattern = case
    assert closed_form(spec, pattern) == count_induced(blow_up(spec), pattern).unordered


def test_map_profile_merges_twins():
    # a star's leaves are twins: K_{1,8} on itself has 8 ** 8 + 8 maps, in
    # one group per way of spreading the leaves over the base's leaves and
    # one per base leaf that takes the centre
    star = complete_bipartite(1, 8)
    profile = map_profile(star, star)
    assert sum(maps for maps, _ in profile) == 8 ** 8 + 8
    assert len(profile) == math.comb(15, 7) + 8
    assert map_profile(Graph.cycle(6), Graph.cycle(6)) == ((12, tuple((i, 1) for i in range(6))),)


# Optimizer results from when candidates were scored by kernel counts of the
# realized graph, with those counts.
PINNED_SPECS = {
    ("C6", 200): (Graph.cycle(6), (2, 16, 2, 17, 2, 17), 36992),
    ("C5", 500): (Graph.cycle(5), (10, 10, 10, 10, 10), 100000),
    ("P7", 60): (Graph.path(7), (14, 1, 8, 1, 8, 1, 14), 12544),
    ("P6", 34): (Graph.cycle(7), (2, 2, 2, 2, 2, 2, 3), 640),
}


def test_optimizer_specs_are_pinned():
    for (family, m), (base, sizes, count) in PINNED_SPECS.items():
        spec = optimize_part_sizes(family, m)
        assert spec == BlowupSpec(base, sizes), (family, m)
        assert closed_form(spec, family_graph(family)) == count


def test_construction_recount_catches_a_wrong_closed_form(monkeypatch):
    # the pinned specs stay under the recount budget, so their counts are
    # still checked on the kernel when printed
    for (family, _), (_, _, count) in PINNED_SPECS.items():
        aut = automorphism_order(family_graph(family))
        assert count * aut <= blowups.KERNEL_CHECK_COPIES, family
    spec, count, graph = construction("C5", 20)
    assert graph == blow_up(spec)
    assert count == count_induced(graph, Graph.cycle(5)).unordered
    scorer = blowups._scorer
    monkeypatch.setattr(blowups, "_scorer",
                        lambda base, pattern: lambda sizes: scorer(base, pattern)(sizes) + 1)
    with pytest.raises(AssertionError, match="kernel count"):
        construction("C5", 20)


def test_construction_enumerates_the_maps_once(monkeypatch):
    # the optimizer's scorer also gives the printed count, so one
    # construction enumerates the pattern's maps into the base once, above
    # and below the budget
    calls = []
    profile = blowups.map_profile
    monkeypatch.setattr(blowups, "map_profile",
                        lambda base, pattern: calls.append(base) or profile(base, pattern))
    for m in (92, 2):
        calls.clear()
        construction("C5", m)
        assert len(calls) == 1, m


def test_optimizer_matches_reference_climb(monkeypatch):
    # the climb that prices moves incrementally, and returns early on a
    # budget below the pattern's edge count, against the climb that checks
    # every candidate's whole size vector and always climbs; both sides
    # share one scorer per (base, pattern), whose counts do not depend on m
    monkeypatch.setattr(blowups, "_scorer", lru_cache(maxsize=None)(blowups._scorer))
    families = [f"P{k}" for k in range(3, 8)] + [f"C{k}" for k in range(4, 9)] + ["Cs", "Dhc"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # generic seeds below one edge per pattern edge
        for family in families:
            for m in [*range(61), 90, 95, 130]:
                assert optimize_part_sizes(family, m) == reference_optimize(family, m), (family, m)


def test_empty_pattern_is_rejected_before_any_work(monkeypatch):
    def no_work(base, pattern):
        raise AssertionError("map_profile reached")

    monkeypatch.setattr(blowups, "map_profile", no_work)
    for run in (optimize_part_sizes, construction, bound_eval, verify_sandwich):
        with pytest.raises(ValueError, match="^pattern must have no isolated vertices$"):
            run("?", 5)


def test_lower_bound_construction_rejects_the_empty_pattern():
    with pytest.raises(ValueError, match="^pattern must have no isolated vertices$"):
        lower_bound_construction(Graph.empty(0), 3)


def clebsch():
    """The Clebsch graph as the folded 5-cube: vertices 0..15, adjacent
    when they differ in 1 or 4 bits."""
    return Graph.from_edges(16, [(u, v) for u, v in combinations(range(16), 2)
                                 if (u ^ v).bit_count() in (1, 4)])


def test_clebsch_blowups_beat_the_c5_blowup(backends, monkeypatch):
    # the balanced blow-up with parts of t has m = 40 t^2 edges and holds
    # 192 t^5 = (3 sqrt(2) / 4) (m / 5) ** (5 / 2) induced C5, above the
    # conjectured cycle_blowup_value (m / 5) ** (5 / 2), and 0.3 m^2 P4
    g = clebsch()
    assert g.m == 40 and {g.degree(v) for v in range(16)} == {5}
    doubled = blow_up(BlowupSpec(g, (2,) * 16))
    assert doubled.m == 160
    for backend in backends:
        monkeypatch.setattr(kernels, "_impl", backend)
        for host, c5, p4 in ((g, 192, 480), (doubled, 6144, 7680)):
            assert count_induced(host, Graph.cycle(5)).unordered == c5
            assert count_induced(host, Graph.path(4)).unordered == p4
    assert 192 ** 2 * 5 ** 5 == 115_200_000 > 40 ** 5 == 102_400_000
    for t in range(1, 5):
        assert closed_form(BlowupSpec(g, (t,) * 16), Graph.cycle(5)) == 192 * t ** 5
    row, = [r for r in bound_eval("C5", 40) if r.provenance == "cycle_blowup_value"]
    assert row.kind == "conjectured" and row.value < 192


def test_sandwich_labels_a_graph6_pattern_twice(monkeypatch):
    # once for the family name, shared by the report and the bound rows,
    # and once in rho_exact; every module that holds canonical_form is
    # patched, so a call from any layer is counted
    label = canonical_label(parse_graph6("Dhc"))
    calls = count_labellings(monkeypatch)
    report = verify_sandwich("Dhc", 6)
    assert report["pass"] and report["family"] == label
    assert len(calls) <= 2, len(calls)
