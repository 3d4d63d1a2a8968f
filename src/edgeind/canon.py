"""Canonical labels, isomorphism testing and automorphism-group order.

The canonical form is computed by equitable refinement with
individualization and backtracking.  Discovered automorphisms prune
branches that would only revisit certificates already seen; the label is
the graph6 text of the relabeling that minimizes the adjacency
certificate over the (pruned) search tree.  The label, not the traversal,
is the contract: equal labels if and only if isomorphic.  The
automorphisms found on the way generate the whole automorphism group
(every pruned branch is the image of an explored one under them), so
they are returned too, for callers that need orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph, write_graph6
from . import kernels


@dataclass(frozen=True)
class CanonicalForm:
    label: str
    perm: tuple
    gens: tuple  # sorted generators of Aut(g), as image tuples

    def apply(self, g: Graph) -> Graph:
        return g.relabel(self.perm)


def _refine(adj, cells):
    """Equitable refinement: split cells by neighbor counts into every cell
    until stable.  Deterministic: first splittable cell splits first and
    subcells are ordered by their count signature."""
    cells = [list(c) for c in cells]
    while True:
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            keyed = {}
            for v in cell:
                key = tuple((adj[v] & m).bit_count() for m in masks)
                keyed.setdefault(key, []).append(v)
            if len(keyed) > 1:
                cells[ci:ci + 1] = [keyed[k] for k in sorted(keyed)]
                break
        else:
            return cells


def _certificate(adj, seq):
    pos = [0] * len(seq)
    for i, v in enumerate(seq):
        pos[v] = i
    cert = []
    for v in seq:
        row = adj[v]
        new_row = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            new_row |= 1 << pos[u]
        cert.append(new_row)
    return tuple(cert)


def orbit_closure(start, maps):
    """Points reachable from ``start`` under the maps, each indexable by a
    point (a permutation tuple on vertices, or a dict on any points)."""
    orbit = set(start)
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for p in maps:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


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
    n = g.n
    if n == 0:
        return CanonicalForm(write_graph6(g), (), ())
    adj = g.adj
    best_cert = None
    best_perm = None
    first_cert = None
    first_perm = None
    gens = set()

    def leaf(cells):
        nonlocal best_cert, best_perm, first_cert, first_perm
        seq = [c[0] for c in cells]
        perm = [0] * n
        for i, v in enumerate(seq):
            perm[v] = i
        cert = _certificate(adj, seq)
        if first_cert is None:
            first_cert, first_perm = cert, perm
        elif cert == first_cert and perm != first_perm:
            gens.add(_quotient(first_perm, perm))
        if best_cert is None or cert < best_cert:
            best_cert, best_perm = cert, perm
        elif cert == best_cert and perm != best_perm:
            gens.add(_quotient(best_perm, perm))

    def rec(cells, fixed):
        cells = _refine(adj, cells)
        target = None
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target is None:
            leaf(cells)
            return
        cell = cells[target]
        # Siblings inside the orbit of the explored ones, under the
        # generators fixing ``fixed``, would only repeat certificates.  The
        # generators change only inside a subtree, so the orbit is closed
        # once per explored child.
        orbit = set()
        for v in sorted(cell):
            if v in orbit:
                continue
            rest = [u for u in cell if u != v]
            rec(cells[:target] + [[v], rest] + cells[target + 1:], fixed + (v,))
            orbit.add(v)
            orbit = orbit_closure(orbit, [p for p in gens if all(p[f] == f for f in fixed)])

    rec([list(range(n))], ())
    relabeled = g.relabel(best_perm)
    return CanonicalForm(write_graph6(relabeled), tuple(best_perm), tuple(sorted(gens)))


def _quotient(ref_perm, perm):
    """Automorphism mapping x to the vertex that plays x's role under the
    reference labeling: ref_perm^{-1} o perm."""
    n = len(perm)
    inv_ref = [0] * n
    for v, p in enumerate(ref_perm):
        inv_ref[p] = v
    return tuple(inv_ref[perm[x]] for x in range(n))


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
