"""Blow-up constructions, part-size optimization, closed-form bounds and
the sandwich check that holds each exact value between them.

A blow-up replaces each base vertex by an independent set, joining two
parts completely exactly when the base vertices are adjacent.  The
optimizer searches the standard templates (balanced cycle blow-ups,
alternating two-size even-cycle blow-ups, unit even parts for odd paths,
weighting-sized parts for a generic pattern) refined by a deterministic
+-1 local search under the edge budget.  The search prices each move
from the running vertex and edge totals and each part's neighbour sum,
and a budget below the pattern's edge count skips it (see
``optimize_part_sizes``).

Candidates are scored by a closed-form count, not by counting in the
realized graph.  An ordered induced copy of H in the blow-up F[n_1..n_k]
is a map phi: V(H) -> V(F) with uv in E(H) exactly when phi(u) != phi(v)
and phi(u)phi(v) in E(F), followed by an injective choice of vertices
inside each part; the parts are independent sets, so vertices of H that
share a part are non-adjacent, as they must be.  Grouping the maps by
their multiplicity vector r gives the count sum_r c_r prod_i (n_i)_{r_i}
over |Aut H|, a polynomial in the part sizes through falling factorials
(Lovasz, *Large Networks and Graph Limits*, AMS 2012).  The maps are
enumerated once per optimizer run.  The printed counts (the construction
row of ``bound_eval``, ``construct`` and the sandwich's lower bound) are
this closed form too, all from ``construction``, which recounts the
realized graph on the kernel as a check while that stays cheap.

The sandwich (``verify_sandwich``) checks construction count <= exact
value from ``search.rho_exact`` <= tightest closed-form upper bound.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .graph import Graph, MAX_VERTICES, WORD_VERTICES, family_graph, parse_family, write_graph6
from .kernels import automorphism_order, canonical_label, check_pattern, count_induced, visit_order
from .fracind import alpha_f, optimal_weighting
from . import search


def family_name(family) -> str:
    """The name of a path or cycle family ("P5", "C6"), or the canonical
    graph6 label of any other pattern."""
    kind, arg = parse_family(family)
    return canonical_label(arg) if kind == "H" else f"{kind}{arg}"


class BlowupSpec(NamedTuple):
    base: Graph
    sizes: tuple

    def edge_count(self):
        total = 0
        for u, v in self.base.edges():
            total += self.sizes[u] * self.sizes[v]
        return total

    def to_json(self):
        return {"base": write_graph6(self.base), "sizes": list(self.sizes)}


def blow_up(spec: BlowupSpec) -> Graph:
    sizes = spec.sizes
    if len(sizes) != spec.base.n:
        raise ValueError("one size per base vertex required")
    if any(s < 0 for s in sizes):
        raise ValueError("part sizes must be nonnegative")
    n = sum(sizes)
    if n > MAX_VERTICES:
        raise ValueError(f"blow-up on {n} vertices exceeds the {MAX_VERTICES}-vertex limit")
    starts = []
    acc = 0
    for s in sizes:
        starts.append(acc)
        acc += s
    part_mask = []
    for i, s in enumerate(sizes):
        part_mask.append(((1 << s) - 1) << starts[i])
    adj = [0] * n
    for i in range(spec.base.n):
        row = 0
        for j in spec.base.neighbors(i):
            row |= part_mask[j]
        for v in range(starts[i], starts[i] + sizes[i]):
            adj[v] = row
    return Graph(n, adj)


def _floor_power(m, e, half_units):
    """floor((m/e) ** w) for w in {0, 1/2, 1} given in half units."""
    if half_units == 0:
        return 1
    if half_units == 2:
        return m // e
    return math.isqrt(m * e) // e  # floor(sqrt(m/e))


def lower_bound_construction(h: Graph, m: int) -> BlowupSpec:
    """Blow-up of the pattern with part sizes floor((m/|E|)^w(v)) for an
    optimal half-integral weighting w; realized edge count never exceeds m."""
    check_pattern(h)
    e = h.m
    if m < e:
        warnings.warn("edge budget below one edge per pattern edge; construction is empty")
    weighting, _ = optimal_weighting(h)
    sizes = tuple(_floor_power(m, e, hu) for hu in weighting.half_units)
    spec = BlowupSpec(h, sizes)
    if spec.edge_count() > m:
        raise AssertionError("floor-sized blow-up exceeded the edge budget")
    return spec


# -- part-size optimizer ------------------------------------------------


def _family(family, m):
    """``(kind, arg, pattern)``: the parsed family and its pattern.  A
    negative budget, a malformed family and a pattern with no vertices or
    an isolated vertex raise ValueError here, before any other work."""
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    kind, arg = parse_family(family)
    pattern = family_graph((kind, arg))
    check_pattern(pattern)
    return kind, arg, pattern


def _templates(kind, arg, m):
    """``(base, starts)``: the one graph every seed template of the family
    ``(kind, arg)`` blows up, and their part sizes before clipping to m."""
    if kind == "H":  # when no copy fits, no weighting (and no warning) is needed
        return arg, [lower_bound_construction(arg, m).sizes if arg.m <= m else (0,) * arg.n]
    k = arg
    if kind == "C" and k == 4:
        r = math.isqrt(m)
        return Graph.complete(2), [(r, r)] + [(a, m // a) for a in range(1, r + 1)]
    if kind == "C":
        t = math.isqrt(m // k)
        starts = [(t,) * k, (t + 1,) * k, (1,) * k]
        if k % 2 == 0:
            for lam in range(1, t + 1):
                mu = m // (k * lam)
                starts.append(tuple(lam if i % 2 == 0 else mu for i in range(k)))
        return Graph.cycle(k), starts
    if kind == "P" and k == 3:
        return Graph.path(3), [(m - m // 2, 1, m // 2), (m, 1, 0)]
    if kind == "P" and k % 2 == 0:
        t = math.isqrt(m // (k + 1))
        return Graph.cycle(k + 1), [(t,) * (k + 1), (t + 1,) * (k + 1), (1,) * (k + 1)]
    starts = [(1,) * k]
    for c in (m // (k + 1), m // (k + 1) + 1):
        sizes = [1 if i % 2 else c for i in range(k)]
        sizes[0] = sizes[-1] = 2 * c
        starts.append(tuple(sizes))
    return Graph.path(k), starts


def _within(base, m):
    """``fits(sizes)``: the blow-up of ``base`` with these part sizes has at
    most m edges and 64 vertices.  Counts come from the closed form, so the
    vertex cap only keeps the realized graph that ``construct`` prints
    inside one machine word; lifting it changes that output."""
    edges = base.edges()

    def fits(sizes):
        return sum(sizes) <= WORD_VERTICES and sum(sizes[u] * sizes[v] for u, v in edges) <= m

    return fits


def _clip(sizes, fits):
    """Shrink parts (largest first) until the sizes fit.  The zero vector
    fits every budget m >= 0, so a vector that does not fit has a positive
    largest part."""
    sizes = list(sizes)
    while not fits(sizes):
        i = max(range(len(sizes)), key=lambda j: (sizes[j], j))
        sizes[i] -= 1
    return tuple(sizes)


def map_profile(base: Graph, pattern: Graph) -> tuple:
    """The maps phi: V(pattern) -> V(base) with uv a pattern edge exactly
    when phi(u) != phi(v) and phi(u)phi(v) is a base edge, grouped by
    multiplicity vector: ``(maps, ((part, multiplicity), ...))`` pairs,
    zero multiplicities left out.

    Pattern vertices are placed in the kernels' visit order, each on the
    base vertices its placed neighbours and non-neighbours allow (the base
    has no loops, so a non-neighbour's image is allowed).  Placed vertices
    with the same neighbours among the unplaced ones constrain the rest
    only through the set of their images, so partial maps that agree on
    those sets and on the multiplicities are merged and counted together.
    That keeps patterns with many twins (a star's leaves) from costing
    |V(base)| ** |V(pattern)| steps."""
    full = (1 << base.n) - 1
    adj = base.adj
    comp = [full & ~row for row in adj]
    states = {((), (0,) * base.n): 1}  # (image set per class, multiplicities) -> maps
    classes = []  # neighbourhoods among the unplaced vertices, one per class
    unplaced = (1 << pattern.n) - 1
    placed = []
    for p in visit_order(pattern):
        unplaced ^= 1 << p
        placed.append(p)
        next_classes = sorted({pattern.adj[q] & unplaced for q in placed})
        slot = {c: j for j, c in enumerate(next_classes)}
        target = [slot[c & unplaced] for c in classes]
        own = slot[pattern.adj[p] & unplaced]
        grown = {}
        for (images, mult), maps in states.items():
            cand = full
            sets = [0] * len(next_classes)
            for c, mask, j in zip(classes, images, target):
                rows = adj if c >> p & 1 else comp
                sets[j] |= mask
                while mask:
                    low = mask & -mask
                    mask ^= low
                    cand &= rows[low.bit_length() - 1]
            while cand:
                low = cand & -cand
                cand ^= low
                after = list(mult)
                after[low.bit_length() - 1] += 1
                images_after = list(sets)
                images_after[own] |= low
                key = (tuple(images_after), tuple(after))
                grown[key] = grown.get(key, 0) + maps
        states = grown
        classes = next_classes
    groups = {}
    for (_, mult), maps in states.items():
        groups[mult] = groups.get(mult, 0) + maps
    return tuple((maps, tuple((i, r) for i, r in enumerate(mult) if r))
                 for mult, maps in groups.items())


def _copies(profile, sizes, aut):
    ordered = 0
    for maps, parts in profile:
        for i, r in parts:
            maps *= math.perm(sizes[i], r)
        ordered += maps
    if ordered % aut:
        raise AssertionError("ordered copy count not divisible by |Aut|")
    return ordered // aut


def _scorer(base, pattern):
    """``score(sizes)``: induced copies of the pattern in the blow-up of
    ``base`` with those part sizes, from the closed form, memoised; equal
    to ``count_induced(blow_up(BlowupSpec(base, sizes)), pattern).unordered``."""
    profile = map_profile(base, pattern)
    aut = automorphism_order(pattern)
    memo = {}

    def score(sizes):
        value = memo.get(sizes)
        if value is None:
            value = memo[sizes] = _copies(profile, sizes, aut)
        return value

    return score


def optimize_part_sizes(family, m: int) -> BlowupSpec:
    """Best blow-up found for the family under the edge budget; the exact
    induced-copy count of the blow-up is the objective.  Deterministic:
    fixed seed templates plus steepest-ascent +-1 and transfer moves, ties
    to the lexicographically smallest size vector.

    A budget below the pattern's edge count returns the all-zero sizes
    without climbing, which is what the climb would return.  A blow-up with
    at most m edges holds no copy of a pattern with more edges, so every
    size vector that fits scores 0.  From any start, the lexicographically
    smallest move is then the minus on the first nonzero part; it always
    fits, so the walk reaches the zero vector within sum(start) <= 64 steps,
    under the cap of 200.  Among vectors that score 0, the zero vector
    ranks first.
    """
    return _optimize(family, m)[0]


def _optimize(family, m):
    """``(spec, pattern, score)``: the spec ``optimize_part_sizes`` returns,
    the family's pattern and the scorer of the spec's base and that
    pattern."""
    kind, arg, pattern = _family(family, m)
    base, starts = _templates(kind, arg, m)
    score = _scorer(base, pattern)
    if pattern.m > m:
        return BlowupSpec(base, (0,) * base.n), pattern, score
    fits = _within(base, m)
    climbed = [_climb(_clip(s, fits), score, base, m) for s in starts]
    return BlowupSpec(base, min(climbed, key=lambda s: (-score(s), s))), pattern, score


# The kernel recounts a construction while it holds at most this many
# ordered copies (C6 at m = 1000 has 1.76e7: 0.02 s compiled, 1.7 s pure).
# Its backtracking grows with that count, and C27 at m = 200 has 4.2e11.
KERNEL_CHECK_COPIES = 10 ** 7


def construction(family, m: int):
    """``(spec, count, graph)``: the blow-up ``optimize_part_sizes`` finds,
    its induced-copy count from the closed form and the realized graph (at
    most 64 vertices).  While the ordered count (count times |Aut H|) is at
    most ``KERNEL_CHECK_COPIES`` the kernel counts that graph as well, and
    a mismatch raises."""
    spec, pattern, score = _optimize(family, m)
    count = score(spec.sizes)
    graph = blow_up(spec)
    if count * automorphism_order(pattern) <= KERNEL_CHECK_COPIES:
        kernel = count_induced(graph, pattern).unordered
        if kernel != count:
            raise AssertionError(f"closed form {count} != kernel count {kernel} for {spec}")
    return spec, count, graph


def _priced_moves(sizes, total, edges, nsum, adj, m):
    """``(sizes after, vertex total, edge total)`` for each +-1 move and
    unit transfer that keeps the blow-up within m edges and the 64-vertex
    word.  A plus move on part i adds ``nsum[i]`` edges (the sizes of its
    base neighbours), a minus move removes them, and a transfer to i from j
    adds ``nsum[i] - nsum[j] - [i ~ j]``."""
    n = len(sizes)
    for i in range(n):
        gain = nsum[i]
        if total < WORD_VERTICES and edges + gain <= m:
            yield sizes[:i] + (sizes[i] + 1,) + sizes[i + 1:], total + 1, edges + gain
        if sizes[i]:
            yield sizes[:i] + (sizes[i] - 1,) + sizes[i + 1:], total - 1, edges - gain
        row = adj[i]
        for j in range(n):
            if i != j and sizes[j]:
                after = edges + gain - nsum[j] - (row >> j & 1)
                if after <= m:
                    move = list(sizes)
                    move[i] += 1
                    move[j] -= 1
                    yield tuple(move), total, after


def _climb(start, score, base, m):
    """Steepest ascent over single +-1 moves and unit transfers between two
    parts, within the budget m and the 64-vertex word.  Equal-score steps
    are allowed (plateaus hide the exits at tight budgets) with a visited
    set and an iteration cap keeping the walk finite; ties go to the
    lexicographically smallest size vector.  The moves are distinct size
    vectors, so the step taken does not depend on the order they are
    priced in."""
    neighbours = [base.neighbors(i) for i in range(base.n)]
    best = current = start
    best_score = here = score(start)
    total = sum(start)
    edges = BlowupSpec(base, start).edge_count()
    visited = {start}
    for _ in range(200):
        nsum = [sum(map(current.__getitem__, row)) for row in neighbours]
        step = None
        for cand, cand_total, cand_edges in _priced_moves(current, total, edges, nsum,
                                                           base.adj, m):
            if cand in visited:
                continue
            sc = score(cand)
            if sc < here:
                continue
            if step is None or sc > step[0] or sc == step[0] and cand < step[1]:
                step = (sc, cand, cand_total, cand_edges)
        if step is None:
            break
        here, current, total, edges = step
        visited.add(current)
        if here > best_score or here == best_score and current < best:
            best, best_score = current, here
    return best


# -- closed-form bounds --------------------------------------------------


class BoundValue(NamedTuple):
    family: str
    m: int
    provenance: str
    value: float
    kind: str  # "upper" | "exact" | "conjectured" | "lower"

    def to_json(self):
        return self._asdict()


def _path_bounds(k, m, name):
    rows = []
    if k == 3:
        rows.append(BoundValue(name, m, "star_exact", m * (m - 1) / 2, "exact"))
        return rows
    if k % 2 == 0:
        l = k // 2
        rows.append(BoundValue(name, m, "even_path_upper",
                               m ** l / (2 * (l - 1) ** (l - 1)), "upper"))
        rows.append(BoundValue(name, m, "even_path_blowup_value",
                               (k + 1) * (m / (k + 1)) ** (k / 2), "conjectured"))
    else:
        l = (k - 1) // 2
        rows.append(BoundValue(name, m, "odd_path_upper",
                               m ** (l + 1) / (4 * l ** l), "upper"))
        rows.append(BoundValue(name, m, "odd_path_blowup_value",
                               4 * (m / (k + 1)) ** ((k + 1) / 2), "conjectured"))
    return rows


def _cycle_bounds(k, m, name):
    rows = []
    if k == 4:
        rows.append(BoundValue(name, m, "c4_exact_upper", m * m / 4, "upper"))
        rows.append(BoundValue(name, m, "c4_bipartite_value", m * m / 4, "conjectured"))
        return rows
    if k % 2 == 0:
        l = k // 2
        if k == 6:
            rows.append(BoundValue(name, m, "c6_upper", 3 * (m / 6) ** 3, "upper"))
        else:
            rows.append(BoundValue(name, m, "long_even_cycle_upper",
                                   (m / k) ** l * (1 + 1 / (l - 1)) ** (l - 1), "upper"))
    else:
        l = (k - 1) // 2
        factor = (2 * l + 1) ** (l - 0.5) / (2 * (l - 1) ** ((l - 1) * (2 * l + 1) / (2 * l)))
        rows.append(BoundValue(name, m, "odd_cycle_upper",
                               factor * (m / k) ** (k / 2), "upper"))
    rows.append(BoundValue(name, m, "cycle_blowup_value", (m / k) ** (k / 2), "conjectured"))
    return rows


def _closed_form(family, m):
    """``(name, pattern, rows)``: the family's name and pattern and every
    applicable closed-form bound row.  The pattern is labelled once, for
    its name."""
    kind, arg, pattern = _family(family, m)
    name = family_name((kind, arg))
    rows = []
    if kind == "P":
        if arg < 3:
            raise ValueError("path bounds need at least 3 vertices (K2 is exactly m)")
        rows.extend(_path_bounds(arg, m, name))
    elif kind == "C":
        if arg < 4:
            raise ValueError("cycle bounds start at C4; triangles are clique counting")
        rows.extend(_cycle_bounds(arg, m, name))
    aut = automorphism_order(pattern)
    rows.append(BoundValue(
        name, m, "fractional_independence_upper",
        2 ** (pattern.n / 2) / aut * m ** float(alpha_f(pattern)), "upper"))
    return name, pattern, rows


def bound_eval(family, m: int):
    """Every applicable closed-form bound plus the count of the best blow-up
    found (``construction``); the effective upper bound is the minimum over
    rows of kind "upper"/"exact"."""
    name, _, rows = _closed_form(family, m)
    count = construction(family, m)[1]
    rows.append(BoundValue(name, m, "construction_lower", float(count), "lower"))
    return rows


def effective_upper(rows) -> BoundValue:
    uppers = [r for r in rows if r.kind in ("upper", "exact")]
    return min(uppers, key=lambda r: r.value)


# -- the sandwich --------------------------------------------------------

FLOAT_SLACK = 1e-9


class SandwichError(RuntimeError):
    def __init__(self, report, violated):
        super().__init__(f"bound {violated} violated: {report}")
        self.report = report
        self.violated = violated


def verify_sandwich(family, m: int, *, shards=1, max_certificates=1000,
                    cache_dir=None) -> dict:
    """Check construction lower bound <= exact value <= tightest closed-form
    upper bound.  A violation raises SandwichError naming the bound: this
    is the regression alarm for the whole package."""
    name, pattern, rows = _closed_form(family, m)
    # rho_exact first: above the ceiling it raises before doing any work.
    # It is looked up on the module at call time, so a wrapper set there
    # sees the call.
    exact = search.rho_exact(pattern, m, shards=shards,
                             max_certificates=max_certificates, cache_dir=cache_dir)
    spec, lower, _ = construction(family, m)
    upper_row = effective_upper(rows)
    report = {
        "family": name,
        "m": m,
        "lower": lower,
        "exact": exact.rho,
        "upper": upper_row.value,
        "upper_provenance": upper_row.provenance,
        "construction": spec.to_json(),
        "bounds": [r.to_json() for r in rows],
        "classes_scanned": exact.classes_scanned,
        "extremal": list(exact.extremal[:10]),
        "ratios": {
            "exact_over_lower": exact.rho / lower if lower else None,
            "upper_over_exact": upper_row.value / exact.rho if exact.rho else None,
        },
        "pass": True,
    }
    if lower > exact.rho:
        report["pass"] = False
        raise SandwichError(report, "construction_lower")
    if exact.rho > upper_row.value + FLOAT_SLACK:
        report["pass"] = False
        raise SandwichError(report, upper_row.provenance)
    return report
