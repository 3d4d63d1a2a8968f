"""Numeric instantiation of the entropy arguments behind the bounds, and
the edge-tuple statistics they rest on.

Every check works on the uniform distribution over ordered induced copies
of a pattern in a host.  Entropies are computed from exact integer counts
(counts over counts) and converted to floats once, so the 1e-9 identity
and slack tolerances are honest.  Natural logarithm throughout.  The
entropy sums themselves (entropies, conditional entropies, mean logs and
distinct counts per key) are kernel entries, ``kernels.entropy`` and its
siblings; every float sum, there and here, adds left to right from 0.0,
so a report's bytes do not depend on the twin or the Python version.

An *oriented edge tuple* is a sequence of host edges written as ordered
endpoint pairs (u_i, v_i), pairwise vertex-disjoint.  The tuple is
*well-ordered* when the head-to-tail links v_i u_{i+1} are edges and no
other edge joins endpoints of distinct entries; it *characterizes* an
induced even cycle when additionally the wrap link v_t u_1 closes the
cycle.  Tuples arising as the odd-indexed edges of ordered induced paths
or cycles are well-ordered with the orientation inherited from the copy.
Both predicates, and the check that a ledger's cycle is induced, are one
pinned copy count: a vertex sequence induces the path (cycle) on as many
vertices exactly when pinning it, in order, leaves one ordered induced
copy.

The per-copy ledgers re-derive every extension count with the module's
one extension routine; ledger rows are a cross-check against those
counts, never the source of truth.  Tuples read off a ledger's cycle, or
off an ordered induced path, are well-ordered by construction and are
not checked again.  An odd path's gamma statistics are read off the
copies the path check already holds.  The claim1 ledgers of one host
share their work: extension weights once per cycle window, row fields
once per distinct row pattern, totals once per ledger; the memo holds
the last host asked only.

The path check works on integer edge columns, one entry per ordered copy:
edges, odd-edge prefixes and conditioning keys are coded as ints, so every
count is keyed by ints.  Each column is built once, and each alpha count is
taken once per distinct prefix.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import add, itemgetter

from .graph import Graph, parse_family
from .kernels import automorphism_order
from . import kernels

TOL = 1e-9


class EmptySupportError(ValueError):
    pass


class InvalidTupleError(ValueError):
    pass


# -- distributions -------------------------------------------------------


@dataclass(frozen=True)
class CopyDistribution:
    """Uniform distribution over the ordered induced copies of a pattern in
    a host; coordinates are pattern vertices (1-based in the entropy API)."""

    host: Graph
    pattern: Graph
    copies: tuple

    @classmethod
    def collect(cls, host: Graph, pattern: Graph):
        copies = kernels.enumerate_ordered(host, pattern)
        if not copies:
            raise EmptySupportError("host contains no induced copy of the pattern")
        return cls(host, pattern, tuple(copies))

    @property
    def arity(self):
        return self.pattern.n

    def __len__(self):
        return len(self.copies)


def _check_coords(k, target, given):
    target = tuple(target)
    given = tuple(given)
    if not target:
        raise ValueError("empty target coordinate set")
    for i in (*target, *given):
        if not 1 <= i <= k:
            raise ValueError(f"coordinate {i} outside 1..{k}")
    if set(target) & set(given):
        raise ValueError("target and given coordinates overlap")
    return target, given


def _support(dist):
    """The copies of a CopyDistribution, or a list of equal-length tuples,
    as a non-empty list of tuples."""
    tuples = dist.copies if isinstance(dist, CopyDistribution) else list(map(tuple, dist))
    if not tuples:
        raise EmptySupportError("empty support")
    return tuples


class _Memo(dict):
    """``fn(key)`` for each key, computed on its first lookup and kept."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def _projector(coords):
    """The projection onto 1-based coordinates.  One coordinate projects to
    the bare value, not a 1-tuple; the value counts, and so the entropies,
    are the same either way."""
    return itemgetter(*(i - 1 for i in coords))


def projection_entropy(dist, target, given=()) -> float:
    """Empirical entropy (nats) of the target coordinates, optionally
    conditioned on the given coordinates, under the uniform distribution.
    ``dist`` may be a CopyDistribution or any list of equal-length tuples;
    coordinates are 1-based."""
    tuples = _support(dist)
    target, given = _check_coords(len(tuples[0]), target, given)
    if not given:
        return kernels.entropy(map(_projector(target), tuples))
    return kernels.cond_entropy(map(_projector(target), tuples), map(_projector(given), tuples))


# -- reports --------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    name: str
    kind: str  # "identity" | "inequality" | "value"
    lhs: float
    rhs: float | None = None

    @property
    def slack(self):
        if self.rhs is None:
            return None
        if self.kind == "identity":
            return self.lhs - self.rhs
        return self.rhs - self.lhs

    @property
    def ok(self):
        if self.kind == "value":
            return True
        if self.kind == "identity":
            return abs(self.slack) <= TOL
        return self.slack >= -TOL


@dataclass
class EntropyReport:
    terms: list = field(default_factory=list)

    def add(self, name, kind, lhs, rhs=None):
        self.terms.append(Term(name, kind, float(lhs), None if rhs is None else float(rhs)))

    def value(self, name, v):
        self.terms.append(Term(name, "value", float(v)))

    @property
    def passed(self):
        return all(t.ok for t in self.terms)

    def __getitem__(self, name):
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)

    def to_json(self):
        return {
            "terms": [
                {"name": t.name, "kind": t.kind, "lhs": t.lhs, "rhs": t.rhs, "slack": t.slack}
                for t in self.terms
            ],
            "pass": self.passed,
        }


def full_tuple_identity(dist: CopyDistribution) -> EntropyReport:
    """H(full tuple) = log(|copies|) = log(|Aut| * unordered count)."""
    report = EntropyReport()
    coords = tuple(range(1, dist.arity + 1))
    h = projection_entropy(dist, coords)
    n = len(dist)
    aut = automorphism_order(dist.pattern)
    report.add("uniform_support", "identity", h, math.log(n))
    report.add("aut_times_count", "identity", h, math.log(aut * (n // aut)))
    return report


def verify_chain_shearer(dist, ordering=None, covers=None) -> EntropyReport:
    """Chain-rule identity along an ordering (with per-step conditioning
    drop slacks) and/or Shearer's inequality for the cover family: r-fold
    for r the fewest sets covering a coordinate, which must be at least 1."""
    tuples = _support(dist)
    k = len(tuples[0])
    coords = tuple(range(1, k + 1))
    report = EntropyReport()
    h_full = projection_entropy(tuples, coords)
    report.value("full_entropy", h_full)
    report.add("uniform_support", "identity", h_full, math.log(len(tuples)))
    if ordering is not None:
        ordering = tuple(ordering)
        if sorted(ordering) != list(coords):
            raise ValueError("ordering must permute the coordinates")
        total = 0.0
        for i, c in enumerate(ordering):
            cond = projection_entropy(tuples, (c,), ordering[:i])
            total += cond
            report.add(f"drop_condition_{c}", "inequality",
                       cond, projection_entropy(tuples, (c,)))
        report.add("chain_rule", "identity", h_full, total)
    if covers is not None:
        covers = [tuple(a) for a in covers]
        multiplicity = [sum(c in a for a in covers) for c in coords]
        if 0 in multiplicity:
            raise ValueError(f"coordinate {multiplicity.index(0) + 1} is not covered")
        rhs = reduce(add, (projection_entropy(tuples, a) for a in covers), 0.0) / min(multiplicity)
        report.add("subadditive_cover", "inequality", h_full, rhs)
    return report


def drop_one_covers(k):
    """The k subsets each omitting one coordinate; an (k-1)-fold cover."""
    coords = range(1, k + 1)
    return [tuple(c for c in coords if c != omit) for omit in coords]


def cycle_path_shearer(host: Graph, k: int) -> EntropyReport:
    """For odd cycles: dropping any one vertex coordinate of an ordered
    induced C_k copy leaves an ordered induced path on k-1 vertices, so
    log(2k*cycles) <= k/(k-1) * log(2*paths)."""
    if k < 5 or k % 2 == 0:
        raise ValueError("odd cycles with at least 5 vertices only")
    dist = CopyDistribution.collect(host, Graph.cycle(k))
    report = verify_chain_shearer(dist, covers=drop_one_covers(k))
    n_paths = kernels.count_ordered(host, Graph.path(k - 1))
    for omit in range(1, k + 1):
        sub = projection_entropy(dist, tuple(c for c in range(1, k + 1) if c != omit))
        report.add(f"drop_{omit}_path_support", "inequality", sub, math.log(n_paths))
    report.add("cycle_vs_path", "inequality",
               math.log(len(dist)), (k / (k - 1)) * math.log(n_paths))
    return report


# -- edge tuples -----------------------------------------------------------


def validate_edge_tuple(g: Graph, t):
    """Check entries are host edges, oriented, and pairwise vertex-disjoint."""
    if not t:
        raise InvalidTupleError("empty edge tuple")
    seen = set()
    for u, v in t:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise InvalidTupleError(f"({u}, {v}) has a vertex outside 0..{g.n - 1}")
        if u == v or not g.has_edge(u, v):
            raise InvalidTupleError(f"({u}, {v}) is not an edge of the host")
        if u in seen or v in seen:
            raise InvalidTupleError("tuple entries share a vertex")
        seen.add(u)
        seen.add(v)


@lru_cache(maxsize=None)
def _shape(kind, k):
    """The path ("P") or cycle ("C") on k vertices, built once per (kind, k)
    (graphs are immutable)."""
    return Graph.path(k) if kind == "P" else Graph.cycle(k)


def _induces(g, seq, kind):
    """Whether the host vertices seq, in order, induce the path or cycle on
    len(seq) vertices."""
    return kernels.count_ordered(g, _shape(kind, len(seq)), enumerate(seq)) == 1


def is_well_ordered(g: Graph, t) -> bool:
    validate_edge_tuple(g, t)
    return _induces(g, [v for e in t for v in e], "P")


def characterizes_cycle(g: Graph, t) -> bool:
    """True when the oriented tuple's links close a chordless cycle of
    length 2*len(t)."""
    validate_edge_tuple(g, t)
    if len(t) < 2:
        return False
    return _induces(g, [v for e in t for v in e], "C")


def alpha_extension_edges(g: Graph, t, mode="path-extend"):
    """Edges e admitting an orientation such that appending e to the tuple
    is well-ordered ("path-extend") or characterizes an induced C_{2|t|+2}
    ("cycle-close").  At most one orientation can work per edge, so these
    are plain edge sets.  Returns sorted (u, v) pairs with u < v."""
    t = tuple(tuple(e) for e in t)
    if not is_well_ordered(g, t):
        raise ValueError("tuple is not well-ordered")
    if mode not in ("path-extend", "cycle-close"):
        raise ValueError(f"unknown mode {mode!r}")
    return _extension_edges(g.adj, t, mode == "cycle-close")


def _extension_edges(adj, t, close):
    """Extension edges of a well-ordered tuple by neighbourhood masks.

    With U the vertices of t, appending (x, y) keeps t well-ordered exactly
    when x, y avoid U, N(x) & U is the head of t's last entry and N(y) & U
    is empty; it closes the induced cycle when N(y) & U is instead the tail
    of t's first entry.  The links inside t are already right, so these two
    masks are the whole test, and no edge passes in both orientations."""
    used = 0
    for u, v in t:
        used |= 1 << u | 1 << v
    head = 1 << t[-1][1]
    want_y = 1 << t[0][0] if close else 0
    out = []
    xs = adj[t[-1][1]] & ~used
    while xs:
        x = (xs & -xs).bit_length() - 1
        xs &= xs - 1
        if adj[x] & used != head:
            continue
        ys = adj[x] & ~used
        while ys:
            y = (ys & -ys).bit_length() - 1
            ys &= ys - 1
            if adj[y] & used == want_y:
                out.append((x, y) if x < y else (y, x))
    out.sort()
    return out


def alpha_extensions(g: Graph, t, mode="path-extend") -> int:
    return len(alpha_extension_edges(g, t, mode))


def beta_embeddings(g: Graph, t, family) -> int:
    """Ordered induced copies of the family whose odd-indexed edges equal
    the tuple entrywise (orientation included).  The full odd-edge tuple
    of an even cycle carries the wrap link, so it is validated with the
    characterizing predicate instead of the well-ordered one."""
    t = tuple(tuple(e) for e in t)
    kind, k = parse_family(family)
    if kind == "H":
        raise ValueError("beta embeddings are defined for path/cycle families")
    if len(t) > k // 2:
        raise ValueError(f"tuple of {len(t)} edges too long for {kind}{k}")
    if kind == "C" and k % 2 == 0 and len(t) == k // 2:
        ok = characterizes_cycle(g, t)
    else:
        ok = is_well_ordered(g, t)
    if not ok:
        raise ValueError("tuple is neither well-ordered nor cycle-characterizing")
    return kernels.count_ordered(g, _shape(kind, k), enumerate(sum(t, ())))


def gamma_table(g: Graph, t) -> dict:
    """For the odd path on 2l+1 vertices with odd-edge prefix ``t``
    (l-1 entries, l >= 2): ``{final edge: (gamma1, gamma2)}`` over the
    feasible final edges in sorted order, where gamma1 and gamma2 count
    the feasible edges at positions 2l-2 and 2l-1 once the final edge is
    fixed.  One enumeration of the completions serves every final edge."""
    t = tuple(tuple(e) for e in t)
    if not is_well_ordered(g, t):
        raise ValueError("tuple is not well-ordered")
    l = len(t) + 1
    copies = kernels.enumerate_ordered(g, _shape("P", 2 * l + 1), enumerate(sum(t, ())))
    # Pattern vertices are 0-based: the free ones are 2l-2, 2l-1, 2l.
    seconds = {}
    links = {}
    for c in copies:
        last = _norm(c[2 * l - 1], c[2 * l])
        seconds.setdefault(last, set()).add(_norm(c[2 * l - 3], c[2 * l - 2]))
        links.setdefault(last, set()).add(_norm(c[2 * l - 2], c[2 * l - 1]))
    return {e: (len(seconds[e]), len(links[e])) for e in sorted(seconds)}


def _norm(u, v):
    return (u, v) if u < v else (v, u)


# -- path decompositions ---------------------------------------------------
#
# Coordinate conventions matter here.  The first-edge marginal is only
# bounded by log m when the edge is read without orientation (there are at
# most m values); the extension-count bounds on the later conditionals
# need the conditioning prefix read with orientation (the extension count
# of a well-ordered tuple is orientation-specific); and the feasible-set
# bounds on the last three coordinates of an odd path need those
# coordinates read without orientation again.  The ledger therefore
# carries an explicit orientation-reveal term (at most log 2), making
# every reported identity and inequality valid on an arbitrary host.
#
# The check works on integer columns, one entry per ordered copy.  Edge j
# of a copy w is (w_j, w_{j+1}); with N host vertices it is coded u*N + v
# with orientation and min*N + max without.  A key made of several edges
# (an odd-edge prefix: edges 0, 2, ..., 2i-2; or the key a term
# conditions on) packs into one int in base N*N + 1 with every digit
# offset by 1, so keys with different numbers of entries never collide.
# Each coding is a bijection, so every entropy sum meets its keys in the
# order tuples of (u, v) pairs would give, and adds the same floats in the
# same order.


def _pack(base, columns, packed=None):
    """One int per row: the row's ``packed`` key, if given, extended by the
    row's codes in each column (codes below base - 1)."""
    for col in columns:
        packed = ([c + 1 for c in col] if packed is None else
                  [p * base + c + 1 for p, c in zip(packed, col)])
    return packed


class _PathColumns:
    """The ordered copies of a k-vertex path as integer columns, each built
    once: the oriented code of each edge the check reads (all k - 1 edges
    of an even path; the first k - 4 of an odd one, whose last three edges
    are read without orientation), the packed odd-edge prefixes (entry i - 1
    holds the i-entry prefix, packed from the one before) and the alpha
    count of each copy's prefix for every prefix but the longest."""

    def __init__(self, host, copies):
        k = len(copies[0])
        self.size = size = host.n
        self.n = len(copies)
        self.base = size * size + 1
        self._vertices = vertices = list(zip(*copies))
        self.oriented = [[u * size + v for u, v in zip(vertices[j], vertices[j + 1])]
                         for j in range(k - 1 if k % 2 == 0 else k - 4)]
        self.prefix, packed = [], None
        for col in self.oriented[::2]:
            packed = _pack(self.base, [col], packed)
            self.prefix.append(packed)
        self.alpha = [_prefix_alpha(host.adj, copies, codes, i)
                      for i, codes in enumerate(self.prefix[:-1], 1)]

    def unordered(self, j):
        size = self.size
        return [u * size + v if u < v else v * size + u
                for u, v in zip(self._vertices[j], self._vertices[j + 1])]


def _prefix_alpha(adj, copies, codes, i):
    """The alpha count of each copy's i-entry prefix, whose codes are given,
    from one ``_extension_edges`` call per distinct prefix.  The prefix is
    not checked first: the first 2i vertices of an ordered induced path
    induce a path, so its odd edges form a well-ordered tuple."""
    counts = {}
    for code, c in dict(zip(codes, copies)).items():  # one copy per prefix
        prefix = tuple(zip(c[:2 * i:2], c[1:2 * i:2]))
        counts[code] = len(_extension_edges(adj, prefix, False))
    return list(map(counts.__getitem__, codes))


def verify_path_decomposition(host: Graph, family) -> EntropyReport:
    """Every term of the conditional-entropy decomposition of the uniform
    ordered induced path distribution: the chain identity, each conditional
    against its log-average extension bound, the per-copy edge budget, and
    the closed-form aggregate."""
    kind, k = parse_family(family)
    if kind != "P" or k < 4:
        raise ValueError("decomposition applies to paths on at least 4 vertices")
    copies = CopyDistribution.collect(host, Graph.path(k)).copies
    cols = _PathColumns(host, copies)
    m = host.m
    n = len(copies)
    h_full = kernels.entropy(copies)  # the copies and their edge tuples correspond one to one
    report = EntropyReport()
    report.value("ordered_copies", n)
    report.add("uniform_support", "identity", h_full, math.log(n))
    first_u = cols.unordered(0)
    report.add("first_edge_support", "inequality", kernels.entropy(first_u), math.log(m))
    report.add("orientation_reveal", "inequality",
               kernels.cond_entropy(cols.oriented[0], first_u), math.log(2))
    if k % 2 == 0:
        _even_path_terms(cols, k // 2, m, h_full, report)
    else:
        _odd_path_terms(cols, (k - 1) // 2, m, h_full, report)
    return report


def _odd_edge_chain(cols, report):
    """H(edge 0) plus, for each prefix but the longest, the conditional
    entropy of edge 2i given its i entries, edges 0, 2, ..., 2i-2; each
    conditional is reported against its log-average extension bound."""
    chain = kernels.entropy(cols.oriented[0])
    for i, (prefix, alpha) in enumerate(zip(cols.prefix, cols.alpha), 1):
        cond = kernels.cond_entropy(cols.oriented[2 * i], prefix)
        chain += cond
        report.add(f"conditional_{2 * i + 1}_vs_extensions", "inequality",
                   cond, kernels.mean_log(alpha))
    return chain


def _even_path_terms(cols, l, m, h_full, report):
    n = cols.n
    chain = _odd_edge_chain(cols, report)
    evens = _pack(cols.base, cols.oriented[1::2])
    h_evens = kernels.cond_entropy(evens, cols.prefix[-1])
    report.add("evens_determined", "identity", h_evens, 0.0)
    chain += h_evens
    report.add("chain_rule", "identity", h_full, chain)
    budgets = list(map(sum, zip(*cols.alpha)))
    report.add("per_copy_budget", "inequality", max(budgets), m)
    report.value("budget_equality_copies", budgets.count(m))
    report.add("closed_form", "inequality",
               math.log(n), math.log(m ** l / (l - 1) ** (l - 1)))


def _odd_path_terms(cols, l, m, h_full, report):
    n = cols.n
    chain = _odd_edge_chain(cols, report)
    # The copies sharing an odd-edge prefix are its completions, so the
    # gamma statistics of a prefix and final edge count distinct edges
    # among those copies: gamma0 the final edges per prefix, gamma1 and
    # gamma2 the edges at positions 2l-2 and 2l-1 per (prefix, final edge).
    prefixes = cols.prefix[-1]
    last_u = cols.unordered(2 * l - 1)
    h_last = kernels.cond_entropy(last_u, prefixes)
    g0 = kernels.distinct_counts(last_u, prefixes)
    report.add("conditional_final_vs_gamma0", "inequality", h_last, kernels.mean_log(g0))
    chain += h_last
    if l >= 3:
        middle = _pack(cols.base, cols.oriented[1::2])
        report.add("middle_evens_determined", "identity",
                   kernels.cond_entropy(middle, prefixes), 0.0)
    given = _pack(cols.base, [last_u], prefixes)  # (prefix, final edge)
    g1_u = cols.unordered(2 * l - 3)
    g2_u = cols.unordered(2 * l - 2)
    h_pair = kernels.cond_entropy(_pack(cols.base, (g1_u, g2_u)), given)
    h_g1 = kernels.cond_entropy(g1_u, given)
    h_g2 = kernels.cond_entropy(g2_u, given)
    report.add("pair_equals_first", "identity", h_pair, h_g1)
    report.add("pair_equals_second", "identity", h_pair, h_g2)
    g1 = kernels.distinct_counts(g1_u, given)
    g2 = kernels.distinct_counts(g2_u, given)
    report.add("conditional_secondlast_vs_gamma1", "inequality", h_g1, kernels.mean_log(g1))
    report.add("conditional_nexttolast_vs_gamma2", "inequality", h_g2, kernels.mean_log(g2))
    report.add("split_chain", "identity", h_full, chain + (h_g1 + h_g2) / 2)
    # one row (alpha_1, ..., alpha_{l-2}, gamma0, gamma1, gamma2) per copy
    rows = Counter(zip(*cols.alpha, g0, g1, g2))
    report.add("per_copy_budget", "inequality", max(map(sum, rows)), m)
    report.value("budget_equality_copies", sum(c for row, c in rows.items() if sum(row) == m))
    logs = _Memo(math.log)

    def amgm(row):
        *a, x0, x1, x2 = row
        return 2 * reduce(add, map(logs.__getitem__, a), 0.0) + 2 * logs[x0] + logs[x1] + logs[x2]

    report.add("per_copy_product_bound", "inequality",
               max(map(amgm, rows)), math.log(0.25 * (m / l) ** (2 * l)))
    report.add("closed_form", "inequality",
               math.log(n), math.log(m ** (l + 1) / (2 * l ** l)))


# -- per-cycle extension ledgers -------------------------------------------
#
# The ledgers of one host share their work.  The weights at a cycle
# position depend only on the host and the 2l-2 cycle vertices read from
# that position (its window), and the fields of a row only on the row's
# adjacency mask and its plus and minus vectors, whose length is k; each
# is derived once per distinct window or pattern, in a memo that holds
# the last host only.
# Rows with one pattern share its tuples, and a ledger's JSON gives each
# shared tuple one list.


@dataclass(frozen=True)
class LedgerRow:
    edge: tuple
    adjacent_positions: tuple  # 0-based cycle positions adjacent to the edge
    plus: tuple  # Fractions, one per position
    minus: tuple
    plus_caps: tuple
    minus_caps: tuple
    flags: tuple

    @property
    def plus_total(self):
        return sum(self.plus, Fraction(0))

    @property
    def minus_total(self):
        return sum(self.minus, Fraction(0))


@dataclass(frozen=True)
class ClaimLedger:
    cycle: tuple
    m: int
    s_plus: tuple  # Fractions indexed by cycle position
    s_minus: tuple
    rows: tuple  # LedgerRow per host edge
    flagged: tuple

    @property
    def l(self):
        return len(self.cycle) // 2

    @cached_property
    def total_plus(self):
        return sum(self.s_plus, Fraction(0))

    @cached_property
    def total_minus(self):
        return sum(self.s_minus, Fraction(0))

    @property
    def budget(self):
        return self.m * self.l

    @property
    def fallback_budget(self):
        return self.m * (self.l + 1)

    @property
    def within_budget(self):
        return self.total_plus <= self.budget and self.total_minus <= self.budget

    @property
    def within_fallback(self):
        return (self.total_plus <= self.fallback_budget
                and self.total_minus <= self.fallback_budget)

    def to_json(self):
        """The ledger as a report.  Rows that share a tuple share its list,
        so the result is read, not edited in place."""
        texts = _shared_lists(str)
        plain = _shared_lists(int)
        return {
            "cycle": list(self.cycle),
            "m": self.m,
            "s_plus": texts(self.s_plus),
            "s_minus": texts(self.s_minus),
            "total_plus": str(self.total_plus),
            "total_minus": str(self.total_minus),
            "budget": self.budget,
            "fallback_budget": self.fallback_budget,
            "within_budget": self.within_budget,
            "within_fallback": self.within_fallback,
            "flagged": [[list(edge), list(flags)] for edge, flags in self.flagged],
            "rows": [
                {
                    "edge": list(r.edge),
                    "adjacent_positions": plain(r.adjacent_positions),
                    "plus": texts(r.plus),
                    "minus": texts(r.minus),
                    "flags": texts(r.flags),
                }
                for r in self.rows
            ],
        }

    def write_csv(self, fh):
        k = len(self.cycle)
        writer = csv.writer(fh)
        header = (["edge", "adjacent_positions"]
                  + [f"S{j + 1}+" for j in range(k)]
                  + [f"S{j + 1}-" for j in range(k)]
                  + ["plus_total", "minus_total", "flags"])
        writer.writerow(header)
        for r in self.rows:
            writer.writerow(
                [f"{r.edge[0]}-{r.edge[1]}",
                 " ".join(map(str, r.adjacent_positions))]
                + [str(x) for x in r.plus]
                + [str(x) for x in r.minus]
                + [str(r.plus_total), str(r.minus_total), ";".join(r.flags)]
            )
        writer.writerow(["totals", ""]
                        + [str(x) for x in self.s_plus]
                        + [str(x) for x in self.s_minus]
                        + [str(self.total_plus), str(self.total_minus), ""])


def _shared_lists(convert):
    """Tuple -> list of its converted entries, made once per tuple object."""
    made = {}

    def lists(values):
        key = id(values)
        if key not in made:
            made[key] = list(map(convert, values))
        return made[key]

    return lists


def _validate_induced_cycle(host, seq):
    k = len(seq)
    if k < 6 or k % 2:
        raise ValueError("ledger applies to even cycles on at least 6 vertices")
    if not all(0 <= v < host.n for v in seq):
        raise ValueError(f"cycle vertex outside 0..{host.n - 1}")
    if not _induces(host, seq, "C"):
        raise ValueError("sequence is not an induced cycle")


def _contribution_cap(adjacent, j, k):
    """Per-position contribution cap, in half-units, as a function of the
    bitmask of cycle positions adjacent to the edge.  The caps are recorded
    and checked, not assumed: rows exceeding them are flagged."""
    full = (1 << k) - 1
    # rotate so that bit t stands for position j + t
    rot = (adjacent >> j | adjacent << (k - j)) & full
    if rot & 1:
        if rot & 2:
            return 0
        window = ((1 << (k - 3)) - 1) & ~3  # positions j+2 .. j+k-4
        if not rot & window and rot >> (k - 3) & 1:
            return 3
        return 1
    if rot & 2:
        return 1
    if not rot:
        return 0
    return 2 if ((rot & -rot).bit_length() - 1) % 2 else 0


@lru_cache(maxsize=None)
def _half(h):
    return Fraction(h, 2)


def _half_fractions(values):
    return tuple(map(_half, values))


def _position_masks(host, seq):
    """Bitmask of the cycle positions adjacent to each host vertex."""
    masks = [0] * host.n
    for j, v in enumerate(seq):
        row = host.adj[v]
        while row:
            w = (row & -row).bit_length() - 1
            row &= row - 1
            masks[w] |= 1 << j
    return masks


def _reverse_bits(mask, k):
    return int(format(mask, f"0{k}b")[::-1], 2)


def _row_fields(adjacent, plus, minus):
    """The fields of a ledger row after its edge, from the adjacency mask
    and the half-unit plus and minus vectors (one entry per cycle position):
    the adjacent positions, the contributions and caps as Fractions, and
    the flags of every contribution over its case cap and of a total over
    the per-edge cap."""
    k = len(plus)
    l = k // 2
    # the minus caps come from the reversed sequence, read at position
    # k-2-j, as the minus weights are
    adjacent_rev = _reverse_bits(adjacent, k)
    pcaps = [_contribution_cap(adjacent, j, k) for j in range(k)]
    mcaps = [_contribution_cap(adjacent_rev, (k - 2 - j) % k, k) for j in range(k)]
    flags = []
    for j in range(k):
        if plus[j] > pcaps[j]:
            flags.append(f"plus_{j}_exceeds_case_cap")
        if minus[j] > mcaps[j]:
            flags.append(f"minus_{j}_exceeds_case_cap")
    per_edge_cap = 2 * (l if l >= 4 else l + 1)
    if sum(plus) > per_edge_cap:
        flags.append("plus_total_exceeds_edge_cap")
    if sum(minus) > per_edge_cap:
        flags.append("minus_total_exceeds_edge_cap")
    positions = tuple(j for j in range(k) if adjacent >> j & 1)
    return (positions, _half_fractions(plus), _half_fractions(minus),
            _half_fractions(pcaps), _half_fractions(mcaps), tuple(flags))


@lru_cache(maxsize=1)
def _host_memo(host):
    """The ledger work shared across the cycles of one host, held for the
    last host asked only: its edges, a memo of (weights, their sum) per
    window, and a memo of the row fields per (adjacency mask, plus,
    minus)."""

    def window_weights(window):
        weights = _extension_weights(host.adj, window)
        return weights, sum(weights.values())

    return host.edges(), _Memo(window_weights), _Memo(lambda key: _row_fields(*key))


def cycle_extension_ledger(host: Graph, cycle) -> ClaimLedger:
    """Per-position extension-count sums S_j+/S_j- for one induced even
    cycle, with the per-host-edge contribution rows, the adjacency
    bookkeeping, and the edge-budget verdicts (m*l, with the (l+1)*m
    fallback for 6-cycles).  Sums, contributions and caps are kept in
    half-units: an edge extending the one-entry tuple at a position counts
    1, one extending a longer tuple counts 2."""
    seq = tuple(cycle)
    _validate_induced_cycle(host, seq)
    k = len(seq)
    edges, windows, patterns = _host_memo(host)
    # the window at position j is the k-2 vertices read forwards from j;
    # the minus tuples at position j are the plus tuples of the reversed
    # sequence at position k-2-j
    ring = seq + seq
    rev = ring[::-1]
    plus = [windows[ring[j:j + k - 2]] for j in range(k)]
    minus = [windows[rev[i:i + k - 2]] for i in [(k - 2 - j) % k for j in range(k)]]
    zeros = [0] * len(edges)
    plus_cols = [list(map(w.get, edges, zeros)) for w, _ in plus]
    minus_cols = [list(map(w.get, edges, zeros)) for w, _ in minus]
    s_plus = [total for _, total in plus]
    s_minus = [total for _, total in minus]
    if list(map(sum, plus_cols)) != s_plus or list(map(sum, minus_cols)) != s_minus:
        raise AssertionError("ledger rows do not reconstruct the extension sums")

    position_masks = _position_masks(host, seq)
    rows = []
    flagged = []
    for edge, p, q in zip(edges, zip(*plus_cols), zip(*minus_cols)):
        x, y = edge
        *fields, flags = patterns[position_masks[x] | position_masks[y], p, q]
        rows.append(LedgerRow(edge, *fields, flags))
        if flags:
            flagged.append((edge, flags))
    return ClaimLedger(seq, host.m, _half_fractions(s_plus), _half_fractions(s_minus),
                       tuple(rows), tuple(flagged))


def _extension_weights(adj, window):
    """Half-unit weight of each host edge at the cycle position whose
    window (the 2l-2 cycle vertices read from it) is given: 1 for an
    extension of the one-entry tuple, plus 2 for each longer tuple (up to
    the cycle-closing one) it extends.  The window comes from a validated
    induced 2l-cycle, so each tuple of its alternate edges is
    well-ordered: its entries are alternate cycle edges, its links are
    cycle edges, and the cycle has no chords."""
    entries = len(window) // 2
    weights = {}
    for i in range(1, entries + 1):
        w = 1 if i == 1 else 2
        t = tuple(zip(window[0:2 * i:2], window[1:2 * i:2]))
        for e in _extension_edges(adj, t, i == entries):
            weights[e] = weights.get(e, 0) + w
    return weights


def induced_cycles(host: Graph, k: int):
    """Unordered induced k-cycles, each as one representative vertex
    sequence (lexicographically least ordered copy), sorted.  The copies
    come sorted, so the first of each vertex set is its least and the
    firsts arrive in order."""
    seen = {}
    for c in kernels.enumerate_ordered(host, Graph.cycle(k)):
        seen.setdefault(frozenset(c), c)
    return list(seen.values())


# -- the 6-cycle hypergraph chain ------------------------------------------


@dataclass(frozen=True)
class C6HypergraphReport:
    m: int
    gamma: int
    capable_triples: tuple
    codegrees: tuple  # ((edge_pair, count), ...)
    report: EntropyReport

    @property
    def passed(self):
        return self.report.passed

    def to_json(self):
        return {
            "m": self.m,
            "gamma": self.gamma,
            "capable_triples": [[list(e) for e in t] for t in self.capable_triples],
            "codegrees": [
                {"pair": [list(e) for e in pair], "count": c} for pair, c in self.codegrees
            ],
            **self.report.to_json(),
        }


def c6_hypergraph_check(host: Graph) -> C6HypergraphReport:
    """Build the 3-uniform hypergraph of capable edge triples and verify the
    counting chain that pins the induced 6-cycle count below 3*(m/6)^3."""
    m = host.m
    copies = kernels.enumerate_ordered(host, Graph.cycle(6))
    gamma = len(copies) // 12
    triples = set()
    for c in copies:
        triples.add(frozenset((_norm(c[0], c[1]), _norm(c[2], c[3]), _norm(c[4], c[5]))))
    codegree = Counter(frozenset(pair) for t in triples for pair in combinations(t, 2))
    codegree_sum = sum(codegree[frozenset(pair)] for t in triples for pair in combinations(t, 2))
    sum_d = sum(codegree.values())
    sum_d_sq = sum(c * c for c in codegree.values())
    two_section = len(codegree)
    report = EntropyReport()
    report.add("hyperedges_twice_count", "identity", len(triples), 2 * gamma)
    report.add("codegree_total", "identity", sum_d, 6 * gamma)
    report.add("codegree_sum_square_identity", "identity", codegree_sum, sum_d_sq)
    report.add("codegree_sum_vs_budget", "inequality", codegree_sum, m * gamma)
    cauchy = (sum_d * sum_d / two_section) if two_section else 0.0
    report.add("cauchy_schwarz", "inequality", cauchy, sum_d_sq)
    report.add("two_section_vs_pairs", "inequality", two_section, m * m / 2)
    report.add("count_vs_closed_form", "inequality", gamma, 3 * (m / 6) ** 3)
    ordered_triples = tuple(sorted(tuple(sorted(t)) for t in triples))
    ordered_codegrees = tuple(sorted(
        (tuple(sorted(pair)), c) for pair, c in codegree.items()
    ))
    return C6HypergraphReport(m, gamma, ordered_triples, ordered_codegrees, report)
