"""Fractional independence number with half-integral witnesses.

The vertex-weight LP (maximize total weight, w(u)+w(v) <= 1 on edges,
0 <= w <= 1) always has a half-integral optimum, so its value can be read
off a maximum matching in the bipartite double cover:

    alpha_f(H) = n - matching_number(double_cover(H)) / 2

An exhaustive search over {0, 1/2, 1} assignments is kept alongside as an
independent oracle, and also produces the witness maximizing the number
of weight-1 vertices, together with its A/B/C split and a matching of the
weight-0 vertices into the weight-1 side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph


class WeightingInvariantError(RuntimeError):
    """The computed optimum violates a structural guarantee: solver bug."""


@dataclass(frozen=True)
class HalfIntegralWeighting:
    half_units: tuple  # per-vertex weight in half units: 0, 1 or 2

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.half_units), 2)


@dataclass(frozen=True)
class ABCDecomposition:
    """Split by weight: A carries 1, B carries 0, C carries 1/2, plus a
    matching in H[A, B] saturating B."""

    A: tuple
    B: tuple
    C: tuple
    matching: tuple  # (a, b) pairs, one per B-vertex


def bipartite_matching(adj_left) -> dict:
    """Maximum matching as {left: right}, by augmenting paths tried from
    each left vertex in index order; ``adj_left[u]`` lists right-side
    neighbors in the order they are tried."""
    match_right = {}
    match_left = {}

    def augment(u, seen):
        for w in adj_left[u]:
            if w in seen:
                continue
            seen.add(w)
            if w not in match_right or augment(match_right[w], seen):
                match_right[w] = u
                match_left[u] = w
                return True
        return False

    for u in range(len(adj_left)):
        augment(u, set())
    return match_left


def alpha_f(h: Graph) -> Fraction:
    """n - nu/2, with nu the matching number of the bipartite double cover
    (vertices v0/v1, edges u0-v1 and v0-u1 for every edge uv): left vertex
    v0 is adjacent to the right copies of v's neighbors."""
    matching = bipartite_matching([h.neighbors(v) for v in range(h.n)])
    return Fraction(2 * h.n - len(matching), 2)


def _cap(adj, w, i):
    """Largest weight (half units) vertex i can take next to the weights
    ``w`` already given to its neighbors below i."""
    cap = 2
    r = adj[i] & ((1 << i) - 1)
    while r:
        j = (r & -r).bit_length() - 1
        r &= r - 1
        cap = min(cap, 2 - w[j])
        if cap == 0:
            break
    return cap


def alpha_f_bruteforce(h: Graph, limit=14) -> Fraction:
    """Maximum of the weight sum over all feasible {0, 1/2, 1} assignments,
    by exhaustive search with feasibility and potential pruning.  The
    independent oracle for alpha_f."""
    if h.n > limit:
        raise ValueError(f"brute force limited to {limit} vertices, got {h.n}")
    n = h.n
    adj = h.adj
    best = 0
    w = [0] * n

    def rec(i, total):
        nonlocal best
        if total + 2 * (n - i) <= best:
            return
        if i == n:
            best = total
            return
        for val in range(_cap(adj, w, i), -1, -1):
            w[i] = val
            rec(i + 1, total + val)
        w[i] = 0

    rec(0, 0)
    return Fraction(best, 2)


def optimal_weighting(h: Graph):
    """A half-integral optimum maximizing the number of weight-1 vertices,
    ties broken by lexicographically smallest weight-1 set.

    Returns (HalfIntegralWeighting, ABCDecomposition).  Exhaustive search
    pruned by the matching-based optimum; intended for small patterns.
    """
    n = h.n
    adj = h.adj
    target = 2 * alpha_f(h)  # in half units
    best = None  # (a_count, neg-lex A) comparable; store (a_count, A_tuple, w)
    w = [0] * n

    def rec(i, total, a_count):
        nonlocal best
        if total + 2 * (n - i) < target:
            return
        if i == n:
            if total != target:
                return
            a = tuple(v for v in range(n) if w[v] == 2)
            if best is None or (a_count, [-x for x in a]) > (best[0], [-x for x in best[1]]):
                # larger |A| wins; ties: lexicographically smaller A wins,
                # which is larger on the negated tuple
                best = (a_count, a, tuple(w))
            return
        for val in range(_cap(adj, w, i), -1, -1):
            w[i] = val
            rec(i + 1, total + val, a_count + (val == 2))
        w[i] = 0

    rec(0, 0, 0)
    if best is None:
        raise WeightingInvariantError("no assignment attains the matching-based optimum")
    weighting = HalfIntegralWeighting(best[2])
    decomposition = _decompose(h, weighting)
    return weighting, decomposition


def _decompose(h: Graph, weighting: HalfIntegralWeighting) -> ABCDecomposition:
    hu = weighting.half_units
    A = tuple(v for v in range(h.n) if hu[v] == 2)
    B = tuple(v for v in range(h.n) if hu[v] == 0)
    C = tuple(v for v in range(h.n) if hu[v] == 1)
    a_mask = 0
    for v in A:
        a_mask |= 1 << v
    for u in A:
        if h.adj[u] & a_mask:
            raise WeightingInvariantError("weight-1 set is not independent")
    neighborhood = 0
    for v in A:
        neighborhood |= h.adj[v]
    n_of_a = tuple(v for v in range(h.n) if neighborhood >> v & 1)
    if n_of_a != B:
        raise WeightingInvariantError("weight-0 set differs from N(weight-1 set)")
    # a matching in H[A, B] covering every B-vertex exists for the
    # |A|-maximal optimum by a Hall-condition argument
    a_set = set(A)
    matching = bipartite_matching([[a for a in h.neighbors(b) if a in a_set] for b in B])
    if len(matching) < len(B):
        raise WeightingInvariantError("no matching saturates the weight-0 side")
    pairs = tuple(sorted((a, B[i]) for i, a in matching.items()))
    return ABCDecomposition(A, B, C, pairs)
