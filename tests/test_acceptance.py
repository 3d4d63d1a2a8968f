"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import random
import time
import warnings
from fractions import Fraction
from functools import wraps

import pytest

from edgeind import (
    BlowupSpec,
    CopyDistribution,
    EmptySupportError,
    Graph,
    alpha_f,
    automorphism_order,
    blow_up,
    c6_hypergraph_check,
    canonical_label,
    count_induced,
    cycle_extension_ledger,
    cycle_path_shearer,
    drop_one_covers,
    enumerate_ordered,
    full_tuple_identity,
    induced_cycles,
    lower_bound_construction,
    optimize_part_sizes,
    projection_entropy,
    rho_exact,
    verify_chain_shearer,
    verify_path_decomposition,
    verify_sandwich,
    write_graph6,
)
from edgeind.cli import dispatch

from helpers import (
    add_vertex,
    alpha_f_bruteforce,
    complete_bipartite,
    naive_count_unordered,
    random_graph,
)

TOL = 1e-9
GRID_FAMILIES = ("P4", "P5", "C4", "C5", "C6")
GRID_BUDGETS = tuple(range(4, 10))


def criterion(num, desc):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL {desc}")
                raise
            print(f"[criterion {num:02d}] PASS {desc}")
        return wrapper
    return deco


@criterion(1, "alpha_f matching equals brute force (exhaustive <=7, 500 random 8-12)")
def test_criterion_01_alpha_f_oracle():
    from helpers import classes_on

    start = time.time()
    mismatches = 0
    for n in range(0, 8):
        for g in classes_on(n):
            if alpha_f(g) != alpha_f_bruteforce(g):
                mismatches += 1
    rng = random.Random(101)
    for _ in range(500):
        g = random_graph(rng, rng.randint(8, 12), rng.choice([0.2, 0.5, 0.8]))
        if alpha_f(g) != alpha_f_bruteforce(g):
            mismatches += 1
    elapsed = time.time() - start
    assert mismatches == 0
    assert elapsed < 300, f"took {elapsed:.0f}s, budget is 5 minutes"


@criterion(2, "count_induced equals naive injective enumeration (200 random hosts)")
def test_criterion_02_counting_oracle():
    patterns = {
        "P3": Graph.path(3), "P4": Graph.path(4), "P5": Graph.path(5),
        "C4": Graph.cycle(4), "C5": Graph.cycle(5), "C6": Graph.cycle(6),
        "K3": Graph.complete(3), "K4": Graph.complete(4),
    }
    rng = random.Random(202)
    mismatches = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(5, 9), rng.choice([0.25, 0.4, 0.55, 0.7]))
        for h in patterns.values():
            if count_induced(g, h).unordered != naive_count_unordered(g, h):
                mismatches += 1
    assert mismatches == 0


@criterion(3, "rho(P3, m) = C(m, 2) for m <= 8 with a star certificate")
def test_criterion_03_star_law():
    p3 = Graph.path(3)
    for m in range(1, 9):
        result = rho_exact(p3, m)
        assert result.rho == m * (m - 1) // 2
        assert canonical_label(complete_bipartite(1, m)) in result.extremal


@criterion(4, "sandwich grid: lower <= exact <= tightest upper on 5 families x m=4..9")
def test_criterion_04_sandwich_grid():
    start = time.time()
    for family in GRID_FAMILIES:
        for m in GRID_BUDGETS:
            report = verify_sandwich(family, m)
            assert report["pass"]
            assert report["lower"] <= report["exact"] <= report["upper"] + TOL
    elapsed = time.time() - start
    assert elapsed < 1800, f"took {elapsed:.0f}s, budget is 30 minutes"


@criterion(5, "generic sandwich for 20 random 4-6 vertex patterns at m in {6,7,8}")
def test_criterion_05_generic_sandwich():
    rng = random.Random(505)
    patterns = []
    while len(patterns) < 20:
        g = random_graph(rng, rng.randint(4, 6), rng.choice([0.4, 0.6, 0.8]))
        if g.m and not g.isolated_vertices():
            patterns.append(g)
    violations = 0
    for h in patterns:
        upper_coef = 2 ** (h.n / 2) / automorphism_order(h)
        af = float(alpha_f(h))
        for m in (6, 7, 8):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = lower_bound_construction(h, m)
            lower = count_induced(blow_up(spec), h).unordered
            exact = rho_exact(h, m).rho
            upper = upper_coef * m ** af
            if not lower <= exact <= upper + TOL:
                violations += 1
    assert violations == 0


@criterion(6, "complete-bipartite ratio c/(m^2/4) equals (1-1/a)^2, rising to >= 0.95")
def test_criterion_06_c4_ratio_trend():
    ratios = []
    for a in (10, 20, 40):
        host = complete_bipartite(a, a)
        c = count_induced(host, Graph.cycle(4)).unordered
        m = a * a
        assert c == (a * (a - 1) // 2) ** 2
        ratio = Fraction(4 * c, m * m)
        assert ratio == Fraction(a - 1, a) ** 2
        ratios.append(ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] >= Fraction(95, 100)


@criterion(7, "blow-up counts meet the budget-power closed forms exactly")
def test_criterion_07_blowup_exactness():
    g = blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6))
    assert g.m == 24
    assert count_induced(g, Graph.cycle(6)).unordered == 64 == (24 // 6) ** 3
    g = blow_up(BlowupSpec(Graph.cycle(5), (5,) * 5))
    assert g.m == 125
    count = count_induced(g, Graph.cycle(5)).unordered
    root = math.isqrt(125 // 5)
    assert count == 3125 == root ** 5  # (m/5)^(5/2) at a perfect-square budget


@criterion(8, "entropy identities, chain-rule splits, cover inequality, cycle-vs-path")
def test_criterion_08_entropy_identities():
    c5_blowup = blow_up(BlowupSpec(Graph.cycle(5), (2,) * 5))
    uneven_blowup = blow_up(BlowupSpec(Graph.cycle(5), (2, 1, 2, 1, 1)))
    pairs = [
        (complete_bipartite(2, 2), Graph.cycle(4)),
        (c5_blowup, Graph.cycle(5)),
        (c5_blowup, Graph.path(4)),
        (uneven_blowup, Graph.cycle(5)),
        (Graph.cycle(6), Graph.cycle(6)),
        (Graph.cycle(6), Graph.path(5)),
        (Graph.cycle(7), Graph.cycle(7)),
        (Graph.cycle(8), Graph.path(4)),
        (blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6)), Graph.cycle(6)),
        (Graph.complete(5), Graph.complete(3)),
    ]
    assert len(pairs) >= 10
    rng = random.Random(808)
    split_budget = 100
    for host, pattern in pairs:
        dist = CopyDistribution.collect(host, pattern)
        report = full_tuple_identity(dist)
        assert report.passed  # H(tuple) = log(|Aut| * count) within 1e-9
        k = dist.arity
        coords = list(range(1, k + 1))
        for _ in range(10):
            rng.shuffle(coords)
            cut = rng.randint(1, k - 1)
            left, right = tuple(coords[:cut]), tuple(coords[cut:])
            h_all = projection_entropy(dist, tuple(range(1, k + 1)))
            residual = h_all - projection_entropy(dist, left) - projection_entropy(dist, right, left)
            assert abs(residual) < TOL
            split_budget -= 1
        shearer = verify_chain_shearer(dist, covers=drop_one_covers(k))
        assert shearer["subadditive_cover"].slack >= -TOL
    assert split_budget <= 0
    # odd-cycle versus path inequality wherever both families live
    hosts = [c5_blowup, uneven_blowup]
    rng = random.Random(812)
    while len(hosts) < 6:
        g = random_graph(rng, 9, 0.35)
        if count_induced(g, Graph.cycle(5)).unordered:
            hosts.append(g)
    for host in hosts:
        report = cycle_path_shearer(host, 5)
        assert report.passed
    report = cycle_path_shearer(blow_up(BlowupSpec(Graph.cycle(7), (2, 1, 1, 2, 1, 1, 1))), 7)
    assert report.passed


@criterion(9, "per-copy edge budgets hold as exact integers across the corpus")
def test_criterion_09_budget_integers():
    rng = random.Random(909)
    corpus = [
        Graph.cycle(6),
        Graph.cycle(7),
        blow_up(BlowupSpec(Graph.cycle(5), (2,) * 5)),
        blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6)),
        blow_up(BlowupSpec(Graph.cycle(7), (2,) * 7)),
    ]
    assert all(g.n <= 14 for g in corpus)
    for _ in range(50):
        corpus.append(random_graph(rng, rng.randint(7, 9), rng.choice([0.3, 0.45])))
    checked = 0
    for host in corpus:
        for family in ("P4", "P5", "P6", "P7"):
            try:
                report = verify_path_decomposition(host, family)
            except EmptySupportError:
                continue
            term = report["per_copy_budget"]
            assert term.lhs == int(term.lhs) <= host.m
            checked += 1
    assert checked >= 60


def _seeded_cycle_host(rng, k, n):
    g = Graph.cycle(k)
    for v in range(k, n):
        nb = 0
        for u in range(v):
            if rng.random() < 0.3:
                nb |= 1 << u
        g = add_vertex(g, nb)
    return g


@criterion(10, "cycle extension sums stay within 4m for every planted 8- and 6-cycle")
def test_criterion_10_claim_budgets():
    rng = random.Random(1010)
    found = 0
    for _ in range(50):
        host = _seeded_cycle_host(rng, 8, rng.randint(10, 12))
        m = host.m
        cycles = induced_cycles(host, 8)
        assert cycles  # the planted cycle stays chordless
        for cyc in cycles:
            ledger = cycle_extension_ledger(host, cyc)
            assert ledger.total_plus <= 4 * m
            assert ledger.total_minus <= 4 * m
            found += 1
    assert found >= 50
    for _ in range(50):
        host = _seeded_cycle_host(rng, 6, rng.randint(8, 10))
        m = host.m
        for cyc in induced_cycles(host, 6):
            ledger = cycle_extension_ledger(host, cyc)
            assert ledger.total_plus <= 4 * m
            assert ledger.total_minus <= 4 * m


@criterion(11, "6-cycle hypergraph chain exact on cycles, cliques and blow-ups")
def test_criterion_11_c6_hypergraph():
    hosts = [
        Graph.cycle(6),
        Graph.complete(4),
        blow_up(BlowupSpec(Graph.cycle(6), (2, 1, 1, 1, 1, 1))),
        blow_up(BlowupSpec(Graph.cycle(6), (2, 2, 1, 2, 1, 1))),
        blow_up(BlowupSpec(Graph.cycle(6), (2,) * 6)),
    ]
    assert all(h.n <= 12 for h in hosts)
    for host in hosts:
        rep = c6_hypergraph_check(host)
        m, gamma = rep.m, rep.gamma
        assert len(rep.capable_triples) == 2 * gamma
        codegree = dict(rep.codegrees)
        codegree_sum = sum(
            codegree[tuple(sorted(pair))]
            for triple in rep.capable_triples
            for pair in ((triple[0], triple[1]), (triple[1], triple[2]), (triple[0], triple[2]))
        )
        assert codegree_sum <= m * gamma
        assert len(rep.codegrees) * 2 <= m * m
        assert 216 * gamma <= 3 * m ** 3
        assert rep.passed


@criterion(12, "shard count never changes a report byte on the sandwich grid")
def test_criterion_12_shard_determinism(tmp_path):
    import io

    for family in GRID_FAMILIES:
        pattern = write_graph6({"P4": Graph.path(4), "P5": Graph.path(5),
                                "C4": Graph.cycle(4), "C5": Graph.cycle(5),
                                "C6": Graph.cycle(6)}[family])
        for m in GRID_BUDGETS:
            outputs = []
            for shards, sub in (("1", "a"), ("8", "b")):
                out = io.StringIO()
                cache = tmp_path / f"{family}-{m}-{sub}"
                code = dispatch(
                    ["--cache-dir", str(cache), "--shards", shards,
                     "rho", "--pattern", pattern, "-m", str(m)],
                    out, io.StringIO(),
                )
                assert code == 0
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1]
            json.loads(outputs[0])  # stays valid JSON
