"""Backend selection and the public kernel interface: ordered induced-copy
search, the induced-copy count c(G, H), canonical labelling, the
automorphism-group order, the one-edge growth of a search level and the
entropy sums (``entropy``, ``cond_entropy``, ``mean_log`` and
``distinct_counts``).  The tuple statistics of the entropy proofs
(well-ordered and characterizing edge tuples, the alpha/beta/gamma counts)
live in ``edgeind.entropy``.

The twin is chosen only from what the process observes.  The compiled C
extension ``edgeind._kernels`` (backend ``"c"``) is used when it imports;
the pure-Python twin ``edgeind._kernels_py`` (backend ``"pure"``) is used
when the extension was not built.  The compiled twin alone says what it
holds: an entry answers NotImplemented for an input its machine word
cannot hold (a graph too large for it, a growth parent whose children it
cannot hold, an entropy key outside its range), and ``_call`` then asks
the pure twin, which is imported only then.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graph import Graph


def _pure():
    from . import _kernels_py

    return _kernels_py


try:
    from . import _kernels as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _pure()

BACKEND = _impl.BACKEND


def _call(name, *args):
    """The twin entry ``name`` on args: the active twin's answer, or the
    pure twin's where the compiled one answers NotImplemented."""
    out = getattr(_impl, name)(*args)
    return getattr(_pure(), name)(*args) if out is NotImplemented else out


class CanonicalForm(NamedTuple):
    label: str
    perm: tuple
    gens: tuple  # sorted generators of Aut(g), as image tuples


def canonical_form(g: Graph) -> CanonicalForm:
    """The canonical graph6 label of g, the relabeling that produces it and
    sorted automorphism generators.  The backend refines equitably, with
    individualization and backtracking; discovered automorphisms prune
    branches that would only revisit certificates already seen: a sibling
    in the orbit of the explored ones is skipped, and a leaf that repeats
    the first or the best leaf's certificate abandons the subtree where the
    two paths part (McKay and Piperno, "Practical graph isomorphism, II",
    2014).  The label is the graph6 text of the relabeling that minimizes
    the adjacency certificate over the search tree, which no pruning
    changes.  The label, not the traversal, is the contract: equal labels
    if and only if isomorphic.  The automorphisms found on the way
    generate the whole automorphism group (every pruned branch is the
    image of an explored one under them), and both backends return the
    same ones: K_{1,61} gets 60 generators, 31K2 61."""
    return CanonicalForm(*_call("canonical_search", g.adj))


def canonical_label(g: Graph) -> str:
    return canonical_form(g).label


@lru_cache(maxsize=None)
def automorphism_order(g: Graph) -> int:
    """Order of the automorphism group, counted as the adjacency- and
    non-adjacency-preserving self-maps.  Exhaustive backtracking, memoised
    per graph.  Its cost follows |Aut|, not the vertex count: C27 (54
    automorphisms) takes milliseconds, but a star's is factorial, and
    K_{1,12} takes about 10 s on the compiled kernel."""
    return count_ordered(g, g)


def children(label: str, seen: set) -> list:
    """The canonical label of each one-edge extension of the graph with
    graph6 ``label`` that is not in ``seen``; each new label joins ``seen``.
    The extensions are each non-edge added, a pendant edge at each vertex
    and a disjoint edge, whatever the parent's size.  The compiled backend
    labels one extension per orbit of the parent's automorphisms, the pure
    twin each extension; both return the same list.  A parent whose
    children the compiled word cannot hold goes to the pure twin, and one
    whose child would pass the largest graph raises ValueError, both with
    ``seen`` untouched."""
    return _call("children", label, seen)


def visit_order(h: Graph, pinned=()) -> tuple:
    """Assignment order for pattern vertices: pins first, then greedily the
    vertex with most already-ordered neighbors (ties to higher degree, then
    lower index).  Memoised per (pattern, pins)."""
    return _visit_order(h, tuple(pinned))


@lru_cache(maxsize=None)
def _visit_order(h: Graph, pinned: tuple) -> tuple:
    order = list(pinned)
    seen = set(order)
    if len(seen) != len(order):
        raise ValueError("repeated pattern vertex in pins")
    while len(order) < h.n:
        placed_mask = 0
        for p in order:
            placed_mask |= 1 << p
        best = None
        for p in range(h.n):
            if p in seen:
                continue
            key = ((h.adj[p] & placed_mask).bit_count(), h.degree(p), -p)
            if best is None or key > best[0]:
                best = (key, p)
        order.append(best[1])
        seen.add(best[1])
    return tuple(order)


def _split_pins(g: Graph, h: Graph, pins):
    """Pattern and host vertices of the (pattern, host) pins, read once so
    that an iterator works.  A pattern or host vertex out of range raises
    IndexError on either backend; a repeated host vertex leaves no copy
    there."""
    pins = tuple(pins)
    for p, v in pins:
        if not (0 <= p < h.n and 0 <= v < g.n):
            raise IndexError(f"pin ({p}, {v}) is outside 0..{h.n - 1} x 0..{g.n - 1}")
    return [p for p, _ in pins], [v for _, v in pins]


def count_ordered(g: Graph, h: Graph, pins=()) -> int:
    """Number of injective maps V(H) -> V(G) preserving both adjacency and
    non-adjacency, with the optional (pattern, host) pins respected."""
    pats, hosts = _split_pins(g, h, pins)
    order = visit_order(h, pats)
    return _call("count_ordered", g.adj, h.adj, order, hosts)


class CountSummary(NamedTuple):
    ordered: int
    unordered: int
    aut: int


def check_pattern(h: Graph) -> None:
    """ValueError for a pattern with no vertex or an isolated vertex, whose
    maximum over hosts would be unbounded in padding vertices."""
    if h.n == 0 or h.isolated_vertices():
        raise ValueError("pattern must have no isolated vertices")


def count_induced(g: Graph, h: Graph) -> CountSummary:
    """Induced copies of the pattern ``h`` in the host ``g``.

    ``unordered`` is the number of vertex subsets inducing a copy of h;
    ``ordered`` counts injective maps preserving adjacency and
    non-adjacency, so ordered = unordered * |Aut(h)|.
    """
    check_pattern(h)
    aut = automorphism_order(h)
    ordered = count_ordered(g, h)
    if ordered % aut:
        raise AssertionError("ordered copy count not divisible by |Aut|")
    return CountSummary(ordered, ordered // aut, aut)


def count_ordered_many(labels, h: Graph) -> list:
    """``count_ordered(g, h)`` for the host g each graph6 label encodes, in
    order, in one backend call; a host too large for the compiled word sends
    the whole call to the pure twin.  Labels are read once: an iterator works."""
    return _call("count_ordered_many", tuple(labels), h.adj, visit_order(h))


def enumerate_ordered(g: Graph, h: Graph, pins=()) -> list:
    """All ordered induced copies as host-vertex tuples indexed by pattern
    vertex, sorted lexicographically."""
    pats, hosts = _split_pins(g, h, pins)
    order = visit_order(h, pats)
    return sorted(_call("enumerate_ordered", g.adj, h.adj, order, hosts))


# -- entropy sums --
#
# Each entry takes columns, one entry per row, and returns the same bytes
# on both twins and every Python version: see ``_kernels_py``.


def _sums(name, *columns):
    """The twin entry ``name`` on the columns, read once each."""
    return _call(name, *[c if isinstance(c, (list, tuple)) else list(c) for c in columns])


def entropy(keys) -> float:
    """Entropy (nats) of the uniform distribution over the rows of a key
    column; a key is an int or a tuple of ints."""
    return _sums("entropy", keys)


def cond_entropy(targets, givens) -> float:
    """Conditional entropy (nats) of the target key given the given key,
    under the uniform distribution over the rows of two columns."""
    return _sums("cond_entropy", targets, givens)


def mean_log(values) -> float:
    """The mean of the logs of positive ints, summed in row order."""
    return _sums("mean_log", values)


def distinct_counts(values, keys) -> list:
    """Per row, the number of distinct values among the rows that share its
    key."""
    return _sums("distinct_counts", values, keys)
