"""Fractional independence number with half-integral witnesses.

The vertex-weight LP (maximize total weight, w(u)+w(v) <= 1 on edges,
0 <= w <= 1) always has a half-integral optimum, so its value can be read
off a maximum matching in the bipartite double cover:

    alpha_f(H) = n - matching_number(double_cover(H)) / 2

The witness is the half-integral optimum with the most weight-1 vertices,
ties broken by the lexicographically smallest weight-1 set.  Write N(S)
for the neighbors of S, N[S] for S and its neighbors, d(S) for
|S| - |N(S)|, and | and & for union and intersection.  Three facts reduce
the witness to alpha_f calls:

1. Every half-integral optimum is w_A: 1 on its weight-1 set A, 0 on N(A)
   and 1/2 elsewhere (a vertex at 0 outside N(A) could rise to 1/2).  Its
   total is (n + d(A)) / 2, so d(A) = 2 alpha_f(H) - n for every optimum,
   and no vertex set has a larger d (the left copies of any S have only
   |N(S)| neighbors in the double cover).
2. For an independent S, the best total of a feasible weighting that is 1
   on S is |S| + alpha_f(H - N[S]), since N(S) carries 0 and H - N[S] is
   then unconstrained by S.  So S lies in the weight-1 set of some
   optimum exactly when that sum is alpha_f(H).
3. A weight-1 set that no optimum's weight-1 set strictly contains is a
   largest one.  For optima A and B, d is supermodular, so d(A | B) is
   maximal too; comparing it with the independent sets A | (B - N[A]) and
   B | (A - N[B]) gives |B & N(A)| = |A & N(B)| and makes A | (B - N[A])
   the weight-1 set of an optimum.  If A cannot grow, B lies in N[A], so
   |B| = |A & B| + |A & N(B)| <= |A|.  (The weight-1 sets of optima are
   the critical independent sets of Larson, "The critical independence
   number and an independence decomposition", Eur. J. Combin. 2011.)

The union of the weight-1 sets is no witness: in K2 both {0} and {1} are
optimal, and their union is not independent.  Instead S grows greedily:
walk v = 0..n-1 and keep v when S + {v} still lies in the weight-1 set of
an optimum (fact 2).  The walk ends at a weight-1 set that cannot grow,
which is a largest one (fact 3).  Every set that can still grow reaches a
largest one, so each kept v is the smallest next vertex of a largest set
containing S, and the walk ends at the lexicographically smallest.  That
is at most n + 1 matchings, where an exhaustive search over {0, 1/2, 1}
assignments is exponential in n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import Graph


class WeightingInvariantError(RuntimeError):
    """The computed optimum violates a structural guarantee: solver bug."""


class HalfIntegralWeighting(NamedTuple):
    half_units: tuple  # per-vertex weight in half units: 0, 1 or 2

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.half_units), 2)


class ABCDecomposition(NamedTuple):
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


def _twice_alpha_f(h: Graph, keep) -> int:
    """2 alpha_f of the subgraph induced on the vertex bitmask ``keep``:
    twice its order less the matching number of its double cover (left
    vertex v0 adjacent to the right copies of v's neighbors)."""
    kept = [v for v in range(h.n) if keep >> v & 1]
    cover = [[u for u in h.neighbors(v) if keep >> u & 1] for v in kept]
    return 2 * len(kept) - len(bipartite_matching(cover))


def alpha_f(h: Graph) -> Fraction:
    """n - nu/2, with nu the matching number of the bipartite double cover."""
    return Fraction(_twice_alpha_f(h, (1 << h.n) - 1), 2)


def optimal_weighting(h: Graph):
    """The half-integral optimum with the most weight-1 vertices, ties
    broken by the lexicographically smallest weight-1 set.

    Returns (HalfIntegralWeighting, ABCDecomposition).  Walks the vertices
    in index order and keeps v when the kept set S plus v still lies in
    the weight-1 set of an optimum; ``keep`` is V - N[S] and ``doubled``
    twice its alpha_f.
    """
    keep = (1 << h.n) - 1
    target = doubled = _twice_alpha_f(h, keep)
    chosen = 0
    for v in range(h.n):
        if keep >> v & 1:
            rest = keep & ~(h.adj[v] | 1 << v)
            rest_doubled = _twice_alpha_f(h, rest)
            if rest_doubled + 2 == doubled:
                chosen |= 1 << v
                keep, doubled = rest, rest_doubled
    # w_S in half units: 2 on S, 1 on V - N[S] and 0 on N(S)
    weighting = HalfIntegralWeighting(tuple(
        2 if chosen >> v & 1 else keep >> v & 1 for v in range(h.n)))
    if sum(weighting.half_units) != target:
        raise WeightingInvariantError("the built weighting misses alpha_f")
    return weighting, _decompose(h, weighting)


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
