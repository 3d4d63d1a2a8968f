"""Canonical labels and automorphism-group order.

The canonical form is computed by equitable refinement with
individualization and backtracking, in the kernel backend
(``kernels.canonical_search``).  Discovered automorphisms prune branches
that would only revisit certificates already seen; the label is the
graph6 text of the relabeling that minimizes the adjacency certificate
over the (pruned) search tree.  The label, not the traversal,
is the contract: equal labels if and only if isomorphic.  The
automorphisms found on the way generate the whole automorphism group
(every pruned branch is the image of an explored one under them); they
are returned with the label.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graph import Graph
from . import kernels


class CanonicalForm(NamedTuple):
    label: str
    perm: tuple
    gens: tuple  # sorted generators of Aut(g), as image tuples


def canonical_form(g: Graph) -> CanonicalForm:
    return CanonicalForm(*kernels.canonical_search(g))


def canonical_label(g: Graph) -> str:
    return canonical_form(g).label


@lru_cache(maxsize=None)
def automorphism_order(g: Graph) -> int:
    """Order of the automorphism group, counted as the adjacency- and
    non-adjacency-preserving self-maps.  Exhaustive backtracking, memoised
    per graph.  Its cost follows |Aut|, not the vertex count: C27 (54
    automorphisms) takes milliseconds, but a star's is factorial, and
    K_{1,12} takes about 10 s on the compiled kernel."""
    return kernels.count_ordered(g, g)
