"""Exact edge-inducibility by isomorph-free exhaustive generation.

Graphs with m edges and no isolated vertices are generated one per
isomorphism class, level by level: the m-edge classes are the canonical
labels of the one-edge extensions of the (m-1)-edge classes, each kept
the first time it is seen.  A level is the sorted tuple of these graph6
labels and nothing else.  A level-wide seen-set of labels is sound
because labels are canonical (equal exactly for isomorphic graphs), and
the graph a label encodes is the class's canonical relabeling, so it does
not depend on which parent or forked shard worker found the class first.
One kernel call per parent (``kernels.children``) decodes its label,
labels its extensions and returns the new labels.  The compiled kernel
labels the parent first and then only one extension per orbit of its
automorphism group (McKay, "Isomorph-free exhaustive generation", 1998);
the pure twin labels every extension.  Both return the same classes.

The maximum induced-copy count over a level, with all maximizers kept as
canonical certificates, is the exact value the closed-form bounds are
sandwiched against.  A scan is one kernel call over the level's labels.
"""

from __future__ import annotations

import io
import json
import marshal
import os
import sys
from dataclasses import dataclass, replace
from itertools import compress

from .graph import Graph, parse_graph6, write_graph6
from .canon import automorphism_order, canonical_form
from .counting import count_induced
from .families import family_graph, family_name
from .blowups import blow_up, bound_eval, effective_upper, optimize_part_sizes
from . import kernels

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


def _children(parent: str, seen: set):
    """The labels of the classes among the one-edge extensions of the graph
    with label ``parent`` that are not yet in ``seen``; new labels join
    ``seen`` (``kernels.children``)."""
    return kernels.children(parent, seen)


def _grow(parents):
    """The labels of all one-edge extensions of the graphs with the given
    labels, each class once, as a set."""
    seen = set()
    for parent in parents:
        _children(parent, seen)
    return seen


def _shard_worker(parents):
    """Grow one slice of a level's parent labels in a forked child, which
    inherited them from the process that forked it."""
    return _grow(parents)


def _fork_shard(parents):
    """Fork a child that runs ``_shard_worker(parents)``, sends the set back
    through a pipe with marshal and leaves with ``os._exit``, 0 on success.
    Returns its pid and the read end of the pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            # looked up on the module at call time, so a wrapper set there
            # sees the call
            data = marshal.dumps(_shard_worker(parents))
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        except Exception:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _grow_sharded(slices):
    """``_grow`` over the union of the slices: this process grows the first
    and one forked child each of the others (edgeind starts no threads, so
    the children inherit a consistent process).  Every child is reaped,
    also when this process's own slice raises; a child that failed raises
    RuntimeError."""
    workers, parts, statuses = [], [], []
    try:
        for part in slices[1:]:
            workers.append(_fork_shard(part))
        found = _grow(slices[0])
        for _, r in workers:
            with open(r, "rb", closefd=False) as fh:
                parts.append(fh.read())
    finally:
        for pid, r in workers:
            os.close(r)  # a child still writing gets EPIPE instead of blocking
            statuses.append(os.waitpid(pid, 0)[1])
    failed = sum(status != 0 for status in statuses)
    if failed:
        raise RuntimeError(f"{failed} of {len(workers)} shard workers failed")
    for data in parts:
        found |= marshal.loads(data)
    return found


_LEVELS = {}


def _level(m, shards=1):
    """All m-edge classes without isolated vertices, as the sorted tuple of
    their canonical labels.  A level is grown once per process from level
    m-1; level 0 holds the empty graph.  With shards > 1 its parents are
    cut into k = min(shards, CPUs, parents) interleaved slices; this process
    grows the first and a forked child each of the others, so sharding
    needs ``os.fork`` (ValueError without it).  A level within
    CLASS_COUNTS that does not have exactly that many classes raises
    RuntimeError."""
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    if shards > 1 and not hasattr(os, "fork"):
        raise ValueError("sharded growth needs os.fork, which this platform lacks")
    if m not in _LEVELS:
        if m == 0:
            found = {write_graph6(Graph.empty(0))}
        else:
            parents = _level(m - 1)
            k = min(shards, os.cpu_count() or 1, len(parents))
            if k <= 1:
                found = _grow(parents)
            else:
                found = _grow_sharded([parents[i::k] for i in range(k)])
        if m < len(CLASS_COUNTS) and len(found) != CLASS_COUNTS[m]:
            raise RuntimeError(f"level {m} has {len(found)} classes, expected "
                               f"{CLASS_COUNTS[m]} (OEIS A000664)")
        _LEVELS[m] = tuple(sorted(found))
    return _LEVELS[m]


def enumerate_m_edge_graphs(m, ceiling=DEFAULT_CEILING):
    """An iterator over one canonical representative per isomorphism class
    of graphs with m edges and no isolated vertices, each decoded from its
    label as it is reached.  A bad budget raises here, not on first
    iteration."""
    if m > ceiling:
        raise CeilingError(m, ceiling, estimated_class_count(m))
    return map(parse_graph6, _level(m))


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


def _scan(level, pattern: Graph):
    """Maximum induced-copy count over the level's labels and its
    maximizers: one kernel call over the labels, |Aut(pattern)| taken
    once."""
    counts = kernels.count_ordered_many(level, pattern)
    aut = automorphism_order(pattern)
    if any(c % aut for c in set(counts)):  # each distinct count once
        raise AssertionError("ordered copy count not divisible by |Aut|")
    top = max(counts)
    return top // aut, list(compress(level, map(top.__eq__, counts))), len(counts)


@dataclass
class _CacheFile:
    """What one read of a cache file found, with the file's (inode, size,
    mtime) stamp at that read."""

    stamp: tuple
    hits: dict  # (h, m, version) -> the last record with that key that parsed
    broken: dict  # (h, m, version) -> records with that key that did not parse
    unreadable: int  # lines without a JSON h, m and version
    newline_end: bool  # empty, or ending in a newline


# Cache files read in this process, by path.  The CLI makes a new
# ResultCache for each command, so the memo lives on the module; an entry
# serves while the file's stamp is unchanged.
_CACHE_FILES = {}


def _stamp(st):
    return st.st_ino, st.st_size, st.st_mtime_ns


def _read_cache_file(path):
    """The memo entry for the file at path, read again if the file changed
    since; None if there is no file."""
    try:
        stamp = _stamp(os.stat(path))
    except OSError:  # as os.path.exists: no readable file
        return None
    entry = _CACHE_FILES.get(path)
    if entry is not None and entry.stamp == stamp:
        return entry
    with open(path, "rb") as fh:
        stamp = _stamp(os.fstat(fh.fileno()))
        data = fh.read()
    entry = _CACHE_FILES[path] = _CacheFile(stamp, {}, {}, 0, data[-1:] in (b"", b"\n"))
    for line in io.TextIOWrapper(io.BytesIO(data)):  # the lines open(path) would give
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            key = (rec["h"], rec["m"], rec["version"])
        except (ValueError, KeyError, TypeError):
            entry.unreadable += 1  # torn or foreign line
            continue
        try:
            hash(key)
        except TypeError:
            continue  # no lookup can match it
        try:
            entry.hits[key] = SearchResult.from_record(rec)
        except (ValueError, KeyError, TypeError):
            entry.broken[key] = entry.broken.get(key, 0) + 1
    return entry


class ResultCache:
    """JSON-lines result store: every record of a directory is one line of
    its ``results.jsonl``, so a new pattern appends a line, not a file.
    Records from other generator versions are ignored; unreadable (torn)
    lines are skipped with one note on stderr.  A record is only appended
    when the cached one holds too few certificates, so the last matching
    record is the most complete.  A process parses the whole file on its
    first get and again only when its size, mtime or inode changed: appends
    change the size, a same-size rewrite within one clock tick goes unseen.
    Per-pattern files of the older layout are not read; ``put`` reports them
    on stderr when it starts the file."""

    def __init__(self, directory):
        self.directory = directory
        self.path = os.path.join(directory, "results.jsonl")

    def get(self, pattern_label, m):
        entry = _read_cache_file(self.path)
        if entry is None:
            return None
        key = (pattern_label, m, GENERATOR_VERSION)
        skipped = entry.unreadable + entry.broken.get(key, 0)
        if skipped:
            print(f"warning: skipped {skipped} unreadable line(s) in {self.path}", file=sys.stderr)
        return entry.hits.get(key)

    def put(self, result: SearchResult):
        rec = result.to_record()
        record = (json.dumps(rec, sort_keys=True) + "\n").encode()
        try:
            fh = open(self.path, "ab+")
        except FileNotFoundError:
            os.makedirs(self.directory, exist_ok=True)
            fh = open(self.path, "ab+")
        with fh:
            before = _stamp(os.fstat(fh.fileno()))
            entry = _CACHE_FILES.get(self.path)
            if before[1] == 0:
                entry = _CacheFile(before, {}, {}, 0, True)
                if sum(name.endswith(".jsonl") for name in os.listdir(self.directory)) > 1:
                    print(f"warning: {self.directory} holds per-pattern cache files of an "
                          "older layout; they are not read", file=sys.stderr)
            elif entry is not None and entry.stamp != before:
                entry = None
            if entry is not None:
                torn = not entry.newline_end
            else:
                fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
                torn = fh.read(1) not in (b"", b"\n")
            if torn:
                record = b"\n" + record  # the last record is torn; start a fresh line
            fh.write(record)
            fh.flush()
            after = _stamp(os.fstat(fh.fileno()))
        if entry is None or after[1] != before[1] + len(record):
            _CACHE_FILES.pop(self.path, None)  # unknown or changed by another writer: read it again
            return
        entry.stamp = after
        entry.hits[rec["h"], rec["m"], rec["version"]] = SearchResult.from_record(rec)
        entry.newline_end = True
        _CACHE_FILES[self.path] = entry


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
        os.makedirs(cache.directory, exist_ok=True)  # an unusable path fails before the search
        hit = cache.get(pattern_label, m)
        # a hit truncated under a smaller cap is recomputed
        if hit is not None and not (hit.truncated and len(hit.extremal) < max_certificates):
            if len(hit.extremal) > max_certificates:
                hit = replace(hit, extremal=hit.extremal[:max_certificates], truncated=True)
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
