"""Canonical labels, isomorphism testing and automorphism-group order.

The canonical form is computed by equitable refinement with
individualization and backtracking, in the kernel backend
(``kernels.canonical_search``).  Discovered automorphisms prune branches
that would only revisit certificates already seen; the label is the
graph6 text of the relabeling that minimizes the adjacency certificate
over the (pruned) search tree.  The label, not the traversal,
is the contract: equal labels if and only if isomorphic.  The
automorphisms found on the way generate the whole automorphism group
(every pruned branch is the image of an explored one under them), so
they are returned too, for callers that need orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph
from . import kernels
from ._kernels_py import orbit_closure


@dataclass(frozen=True)
class CanonicalForm:
    label: str
    perm: tuple
    gens: tuple  # sorted generators of Aut(g), as image tuples

    def apply(self, g: Graph) -> Graph:
        return g.relabel(self.perm)


def orbit_representatives(points, maps):
    """The first point of each orbit of ``points`` under the maps, in the
    order given; the maps must send ``points`` into itself."""
    covered = set()
    reps = []
    for x in points:
        if x not in covered:
            reps.append(x)
            covered |= orbit_closure((x,), maps)
    return reps


def canonical_form(g: Graph) -> CanonicalForm:
    return CanonicalForm(*kernels.canonical_search(g))


def canonical_label(g: Graph) -> str:
    return canonical_form(g).label


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_label(g) == canonical_label(h)


@lru_cache(maxsize=None)
def automorphism_order(g: Graph) -> int:
    """Order of the automorphism group, counted as the adjacency- and
    non-adjacency-preserving self-maps.  Exhaustive backtracking, memoised
    per graph; meant for small graphs (say up to 12 vertices)."""
    return kernels.count_ordered(g, g)
