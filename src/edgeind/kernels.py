"""Backend selection and the public kernel interface: ordered induced-copy
search and canonical labelling.

At import time the compiled C extension ``edgeind._kernels`` (backend
``"c"``) is preferred; the pure-Python twin ``edgeind._kernels_py``
(backend ``"pure"``) is used when the extension was not built or when the
environment variable ``EDGEIND_PURE`` is set.  Graphs above 64 vertices
always take the pure twin, because the C code packs a neighborhood into
one machine word.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .graph import Graph, WORD_VERTICES
from . import _kernels_py

if os.environ.get("EDGEIND_PURE"):
    _impl = _kernels_py
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND


def _backend_for(g: Graph):
    return _kernels_py if g.n > WORD_VERTICES else _impl


def canonical_search(g: Graph) -> tuple:
    """``(label, perm, gens)``: the canonical graph6 label of g, the
    relabeling that produces it and sorted automorphism generators."""
    return _backend_for(g).canonical_search(g.adj)


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


def _split_pins(pins):
    pats = [p for p, _ in pins]
    hosts = [v for _, v in pins]
    if len(set(hosts)) != len(hosts):
        return None, None
    return pats, hosts


def count_ordered(g: Graph, h: Graph, pins=()) -> int:
    """Number of injective maps V(H) -> V(G) preserving both adjacency and
    non-adjacency, with the optional (pattern, host) pins respected."""
    pats, hosts = _split_pins(pins)
    if pats is None:
        return 0
    order = visit_order(h, pats)
    return _backend_for(g).count_ordered(g.adj, h.adj, order, hosts)


def enumerate_ordered(g: Graph, h: Graph, pins=()) -> list:
    """All ordered induced copies as host-vertex tuples indexed by pattern
    vertex, sorted lexicographically."""
    pats, hosts = _split_pins(pins)
    if pats is None:
        return []
    order = visit_order(h, pats)
    return sorted(_backend_for(g).enumerate_ordered(g.adj, h.adj, order, hosts))
