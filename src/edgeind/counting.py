"""Induced-copy counting and the tuple statistics used by the entropy lab.

An *oriented edge tuple* is a sequence of host edges written as ordered
endpoint pairs (u_i, v_i), pairwise vertex-disjoint.  The tuple is
*well-ordered* when the head-to-tail links v_i u_{i+1} are edges and no
other edge joins endpoints of distinct entries; it *characterizes* an
induced even cycle when additionally the wrap link v_t u_1 closes the
cycle.  Tuples arising as the odd-indexed edges of ordered induced paths
or cycles are well-ordered with the orientation inherited from the copy.

Both predicates are one pinned copy count: the tuple is well-ordered
(characterizes the cycle) exactly when pinning its endpoints, in order, to
the vertices of the path (cycle) on 2*len(t) vertices leaves one ordered
induced copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph
from .families import parse_family
from . import kernels
from .kernels import automorphism_order


class InvalidTupleError(ValueError):
    pass


@dataclass(frozen=True)
class CountSummary:
    ordered: int
    unordered: int
    aut: int


def count_induced(g: Graph, h: Graph) -> CountSummary:
    """Induced copies of the pattern ``h`` in the host ``g``.

    ``unordered`` is the number of vertex subsets inducing a copy of h;
    ``ordered`` counts injective maps preserving adjacency and
    non-adjacency, so ordered = unordered * |Aut(h)|.  Patterns with
    isolated vertices are rejected (the maximum over hosts would be
    unbounded in padding vertices).
    """
    if h.n == 0 or h.isolated_vertices():
        raise ValueError("pattern must have no isolated vertices")
    aut = automorphism_order(h)
    ordered = kernels.count_ordered(g, h)
    if ordered % aut:
        raise AssertionError("ordered copy count not divisible by |Aut|")
    return CountSummary(ordered, ordered // aut, aut)


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


def _induces(g, t, kind):
    """Whether t's endpoints, in order, induce the path or cycle on
    2*len(t) vertices."""
    return kernels.count_ordered(g, _shape(kind, 2 * len(t)), _odd_edge_pins(t)) == 1


def is_well_ordered(g: Graph, t) -> bool:
    validate_edge_tuple(g, t)
    return _induces(g, t, "P")


def characterizes_cycle(g: Graph, t) -> bool:
    """True when the oriented tuple's links close a chordless cycle of
    length 2*len(t)."""
    validate_edge_tuple(g, t)
    if len(t) < 2:
        return False
    return _induces(g, t, "C")


def alpha_extension_edges(g: Graph, t, mode="path-extend", k=None):
    """Edges e admitting an orientation such that appending e to the tuple
    is well-ordered ("path-extend") or characterizes an induced C_k
    ("cycle-close").  At most one orientation can work per edge, so these
    are plain edge sets.  Returns sorted (u, v) pairs with u < v."""
    t = tuple(tuple(e) for e in t)
    if not is_well_ordered(g, t):
        raise ValueError("tuple is not well-ordered")
    if mode == "cycle-close":
        if k is None:
            k = 2 * (len(t) + 1)
        if k % 2 or len(t) != k // 2 - 1:
            raise ValueError(f"cycle-close needs {k // 2 - 1} tuple entries for C_{k}")
    elif mode != "path-extend":
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


def alpha_extensions(g: Graph, t, mode="path-extend", k=None) -> int:
    return len(alpha_extension_edges(g, t, mode, k))


def _odd_edge_pins(t):
    pins = []
    for i, (u, v) in enumerate(t):
        pins.append((2 * i, u))
        pins.append((2 * i + 1, v))
    return pins


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
    return kernels.count_ordered(g, _shape(kind, k), _odd_edge_pins(t))


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
    if l < 2:
        raise ValueError("need at least one tuple entry")
    copies = kernels.enumerate_ordered(g, _shape("P", 2 * l + 1), _odd_edge_pins(t))
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
