"""Exact edge-inducibility by isomorph-free exhaustive generation.

Graphs with m edges and no isolated vertices are generated one per
isomorphism class, level by level: the one-edge extensions of every
(m-1)-edge class, one per orbit of its automorphism group (McKay,
"Isomorph-free exhaustive generation", 1998), are labelled once with
``canonical_form`` and kept if their label is new to the level.  A
level-wide seen-set of labels is sound because labels are canonical (equal
exactly for isomorphic graphs), and the representative of a class is
``parse_graph6(label)``, so it does not depend on which parent or which
worker found the class first.

The maximum induced-copy count over a level, with all maximizers kept as
canonical certificates, is the exact value the closed-form bounds are
sandwiched against.
"""

from __future__ import annotations

import json
import os
import sys
import urllib.parse
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .graph import Graph, parse_graph6
from .canon import canonical_form, orbit_representatives
from .counting import count_induced
from .families import family_graph, family_name
from .blowups import blow_up, bound_eval, effective_upper, optimize_part_sizes

DEFAULT_CEILING = 12
GENERATOR_VERSION = "1"
FLOAT_SLACK = 1e-9


class CeilingError(RuntimeError):
    def __init__(self, m, ceiling, estimate):
        super().__init__(
            f"{m} edges exceeds the search ceiling {ceiling}; "
            f"roughly {estimate} isomorphism classes would be scanned"
        )
        self.estimate = estimate


class SandwichError(RuntimeError):
    def __init__(self, report, violated):
        super().__init__(f"bound {violated} violated: {report}")
        self.report = report
        self.violated = violated


# Isomorphism classes of graphs with m edges and no isolated vertices, for
# m = 0, 1, ... (OEIS A000664).
CLASS_COUNTS = (1, 1, 2, 5, 11, 26, 68, 177, 497, 1476, 4613, 15216, 52944,
                193367, 740226, 2960520, 12334829)


def estimated_class_count(m):
    """Exact class count within the table; beyond it, the last ratio of
    consecutive counts extrapolated."""
    if m < len(CLASS_COUNTS):
        return CLASS_COUNTS[m]
    ratio = CLASS_COUNTS[-1] / CLASS_COUNTS[-2]
    return int(CLASS_COUNTS[-1] * ratio ** (m - len(CLASS_COUNTS) + 1))


def _children(parent: Graph, seen: set):
    """Labels of the one-edge extensions of ``parent`` that are not yet in
    ``seen``; new labels join ``seen``.  Extensions in one orbit of
    Aut(parent) are isomorphic, so only the first non-edge of each orbit of
    non-edges, the first vertex of each vertex orbit (for a pendant edge)
    and the disjoint edge are labelled."""
    n = parent.n
    gens = canonical_form(parent).gens
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not parent.has_edge(u, v)]
    pair_maps = [{(u, v): (min(p[u], p[v]), max(p[u], p[v])) for u, v in non_edges} for p in gens]
    candidates = [parent.add_edge(u, v) for u, v in orbit_representatives(non_edges, pair_maps)]
    candidates += [parent.add_vertex(1 << u) for u in orbit_representatives(range(n), gens)]
    if n + 2 <= 64:
        candidates.append(parent.add_vertex(0).add_vertex(1 << n))
    new = []
    for child in candidates:
        label = canonical_form(child).label
        if label not in seen:
            seen.add(label)
            new.append(label)
    return new


def _grow(parents):
    """Labels of all one-edge extensions of the given graphs, each class once."""
    seen = set()
    for parent in parents:
        _children(parent, seen)
    return seen


def _shard_worker(parent_labels):
    """Pool task.  Parents arrive as graph6 labels, so the result does not
    depend on what the worker inherited from the parent process."""
    return _grow(parse_graph6(label) for label in parent_labels)


_LEVELS = {}


def _level(m, shards=1):
    """All m-edge classes without isolated vertices, as (label, graph)
    pairs sorted by label.  A level is grown once per process from level
    m-1; with shards > 1, pool workers grow disjoint slices of its parents."""
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    if m not in _LEVELS:
        if m <= 1:
            labels = {canonical_form(Graph.complete(2) if m else Graph.empty(0)).label}
        elif shards <= 1:
            labels = _grow(g for _, g in _level(m - 1))
        else:
            parent_labels = [label for label, _ in _level(m - 1)]
            slices = [parent_labels[i::shards] for i in range(shards)]
            with ProcessPoolExecutor(max_workers=min(shards, os.cpu_count() or 1)) as pool:
                labels = set().union(*pool.map(_shard_worker, slices))
        _LEVELS[m] = tuple((label, parse_graph6(label)) for label in sorted(labels))
    return _LEVELS[m]


def enumerate_m_edge_graphs(m, ceiling=DEFAULT_CEILING):
    """An iterator over one canonical representative per isomorphism class
    of graphs with m edges and no isolated vertices.  A bad budget raises
    here, not on first iteration."""
    if m > ceiling:
        raise CeilingError(m, ceiling, estimated_class_count(m))
    level = _level(m)
    return (g for _, g in level)


@dataclass(frozen=True)
class SearchResult:
    pattern: str  # canonical graph6 of the pattern
    m: int
    rho: int
    extremal: tuple
    truncated: bool
    classes_scanned: int
    version: str = GENERATOR_VERSION

    def to_record(self):
        return {
            "h": self.pattern,
            "m": self.m,
            "rho": self.rho,
            "extremal": list(self.extremal),
            "truncated": self.truncated,
            "classes": self.classes_scanned,
            "version": self.version,
        }

    @classmethod
    def from_record(cls, rec):
        return cls(rec["h"], rec["m"], rec["rho"], tuple(rec["extremal"]),
                   rec["truncated"], rec["classes"], rec["version"])


def _scan(pairs, pattern: Graph):
    rho = 0
    maximizers = []
    scanned = 0
    for label, g in pairs:
        scanned += 1
        c = count_induced(g, pattern).unordered if g.n >= pattern.n else 0
        if c > rho:
            rho = c
            maximizers = [label]
        elif c == rho:
            maximizers.append(label)
    return rho, maximizers, scanned


class ResultCache:
    """JSON-lines result store, one file per pattern canonical label.
    Records from other generator versions are ignored; unreadable (torn)
    lines are skipped with one note on stderr.  A record is only appended
    when the cached one holds too few certificates, so the last matching
    record is the most complete."""

    def __init__(self, directory):
        self.directory = directory

    def _path(self, pattern_label):
        name = urllib.parse.quote(pattern_label, safe="") + ".jsonl"
        return os.path.join(self.directory, name)

    def get(self, pattern_label, m):
        path = self._path(pattern_label)
        if not os.path.exists(path):
            return None
        hit, skipped = None, 0
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    if (rec["h"], rec["m"], rec["version"]) == (pattern_label, m, GENERATOR_VERSION):
                        hit = SearchResult.from_record(rec)
                except (ValueError, KeyError, TypeError):
                    skipped += 1  # torn or foreign line
        if skipped:
            print(f"warning: skipped {skipped} unreadable line(s) in {path}", file=sys.stderr)
        return hit

    def put(self, result: SearchResult):
        os.makedirs(self.directory, exist_ok=True)
        record = (json.dumps(result.to_record(), sort_keys=True) + "\n").encode()
        with open(self._path(result.pattern), "ab+") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    record = b"\n" + record  # the last record is torn; start a fresh line
            fh.write(record)


def rho_exact(pattern: Graph, m: int, *, ceiling=DEFAULT_CEILING, shards=1,
              max_certificates=1000, cache: ResultCache | None = None) -> SearchResult:
    """Exact maximum induced-copy count of the pattern over all hosts with
    exactly m edges, with every maximizer retained as a certificate
    (capped, sorted by canonical label).  Deterministic: the result is
    identical for any shard count."""
    if pattern.n == 0 or pattern.isolated_vertices():
        raise ValueError("pattern must have no isolated vertices")
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    if max_certificates < 0:
        raise ValueError("certificate cap must be nonnegative")
    if m > ceiling:
        raise CeilingError(m, ceiling, estimated_class_count(m))
    pattern_label = canonical_form(pattern).label
    if cache is not None:
        hit = cache.get(pattern_label, m)
        if hit is not None and hit.truncated and len(hit.extremal) < max_certificates:
            hit = None  # cached under a smaller cap; recompute
        if hit is not None and len(hit.extremal) > max_certificates:
            hit = SearchResult(hit.pattern, hit.m, hit.rho, hit.extremal[:max_certificates],
                               True, hit.classes_scanned)
        if hit is not None:
            return hit
    rho, maximizers, scanned = _scan(_level(m, shards), parse_graph6(pattern_label))
    truncated = len(maximizers) > max_certificates
    result = SearchResult(pattern_label, m, rho, tuple(maximizers[:max_certificates]),
                          truncated, scanned)
    if cache is not None:
        cache.put(result)
    return result


def verify_sandwich(family, m: int, *, ceiling=DEFAULT_CEILING, shards=1,
                    max_certificates=1000, cache: ResultCache | None = None) -> dict:
    """Check construction lower bound <= exact value <= tightest closed-form
    upper bound.  A violation raises SandwichError naming the bound: this
    is the regression alarm for the whole package."""
    pattern = family_graph(family)
    name = family_name(family)
    rows = bound_eval(family, m, include_construction=False)
    spec = optimize_part_sizes(family, m)
    lower = count_induced(blow_up(spec), pattern).unordered
    exact = rho_exact(pattern, m, ceiling=ceiling, shards=shards,
                      max_certificates=max_certificates, cache=cache)
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
