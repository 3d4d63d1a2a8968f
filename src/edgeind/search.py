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
Labelling is nearly all of a cold search.  The labeller abandons a
subtree as soon as an automorphism maps it onto an explored one, so its
generating set stays small, and the C refinement counts only into the
cells that changed (``kernels.canonical_form``).

The maximum induced-copy count over a level, with all maximizers kept as
canonical certificates, is the exact value that ``blowups.verify_sandwich``
holds between the construction and the closed-form bounds.  A scan is one
kernel call over the level's labels.

A store directory (the CLI's ``--cache-dir``) keeps levels, not results:
level m is the file ``level-<m>-v<GENERATOR_VERSION>.g6``, its sorted
labels one per line and then ``sha256 <hex digest of those lines>``.  A
level is read from the store before it is grown, and every level grown
with a store is saved there, so a new pattern at a stored budget costs a
file read and a scan.  A file whose digest or class count is wrong is
reported on stderr, grown again and rewritten; files of other generator
versions are never read.
"""

from __future__ import annotations

import marshal
import os
import sys
from itertools import compress
from typing import NamedTuple

from .graph import Graph, parse_graph6, write_graph6
from .kernels import automorphism_order, canonical_form
from . import kernels

DEFAULT_CEILING = 14  # the largest search budget, read at each call
GENERATOR_VERSION = "1"


class CeilingError(RuntimeError):
    """An edge budget m above DEFAULT_CEILING, with its class count estimate."""

    def __init__(self, m):
        self.estimate = estimated_class_count(m)
        super().__init__(
            f"{m} edges exceeds the search ceiling {DEFAULT_CEILING}; "
            f"roughly {self.estimate} isomorphism classes would be scanned"
        )


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
    ChildProcessError, an OSError."""
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
        raise ChildProcessError(f"{failed} of {len(workers)} shard workers failed")
    for data in parts:
        found |= marshal.loads(data)
    return found


_LEVELS = {}


def _digest_line(body):
    """The last line of a level file: ``sha256 <hex digest of body>``."""
    import hashlib

    return b"sha256 %s\n" % hashlib.sha256(body).hexdigest().encode()


def _load_level(path, m):
    """The level stored at path, or None if there is no file there.  A file
    whose sha256 line does not match the labels above it, or whose label
    count differs from CLASS_COUNTS[m], gives one warning on stderr and
    None."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    cut = data.rfind(b"\n", 0, -1) + 1  # where the last line starts
    body = data[:cut]
    if data[cut:] == _digest_line(body):
        level = tuple(body.decode().split("\n")[:-1])
        if m >= len(CLASS_COUNTS) or len(level) == CLASS_COUNTS[m]:
            return level
    print(f"warning: {path} is damaged; the level is grown again", file=sys.stderr)
    return None


def _save_level(path, level):
    """Write the level's labels, one per line, and a last line ``sha256
    <hex digest of the lines above>``.  The file is written whole under a
    per-process temporary name and renamed into place, so a reader never
    sees it half written and concurrent writers never mix."""
    body = ("\n".join(level) + "\n").encode()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body + _digest_line(body))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _level(m, shards=1, store=None):
    """All m-edge classes without isolated vertices, as the sorted tuple of
    their canonical labels.  A level is taken once per process: from the
    store directory, if one is given and holds it as
    ``level-<m>-v<GENERATOR_VERSION>.g6``, or else grown from level m-1
    (level 0 holds the empty graph) and then saved there.  The parents of
    a grown level are cut into k = min(shards, CPUs, parents) interleaved
    slices, at least one; this process grows the first and a forked child
    each of the others, so shards > 1 needs ``os.fork`` (ValueError
    without it).  A grown level within CLASS_COUNTS that does not have
    exactly that many classes raises RuntimeError and is not saved."""
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    if shards > 1 and not hasattr(os, "fork"):
        raise ValueError("sharded growth needs os.fork, which this platform lacks")
    if m in _LEVELS:
        return _LEVELS[m]
    path = os.path.join(store, f"level-{m}-v{GENERATOR_VERSION}.g6") if store else None
    level = _load_level(path, m) if path else None
    if level is None:
        if m == 0:
            found = {write_graph6(Graph.empty(0))}
        else:
            parents = _level(m - 1, store=store)
            k = min(max(shards, 1), os.cpu_count() or 1, len(parents))
            found = _grow_sharded([parents[i::k] for i in range(k)])
        if m < len(CLASS_COUNTS) and len(found) != CLASS_COUNTS[m]:
            raise RuntimeError(f"level {m} has {len(found)} classes, expected "
                               f"{CLASS_COUNTS[m]} (OEIS A000664)")
        level = tuple(sorted(found))
        if path:
            _save_level(path, level)
    _LEVELS[m] = level
    return level


def enumerate_m_edge_graphs(m):
    """An iterator over one canonical representative per isomorphism class
    of graphs with m edges and no isolated vertices, each decoded from its
    label as it is reached.  A bad budget raises here, not on first
    iteration."""
    if m > DEFAULT_CEILING:
        raise CeilingError(m)
    return map(parse_graph6, _level(m))


class SearchResult(NamedTuple):
    pattern: str  # canonical graph6 of the pattern
    m: int
    rho: int
    extremal: tuple
    truncated: bool
    classes_scanned: int


def _scan(level, pattern: Graph):
    """Maximum induced-copy count over the level's labels and its
    maximizers: one kernel call over the labels, |Aut(pattern)| taken
    once, and only when some host holds a copy (its cost is factorial on
    stars)."""
    counts = kernels.count_ordered_many(level, pattern)
    top = max(counts)
    aut = automorphism_order(pattern) if top else 1
    if any(c % aut for c in set(counts)):  # each distinct count once
        raise AssertionError("ordered copy count not divisible by |Aut|")
    return top // aut, list(compress(level, map(top.__eq__, counts))), len(counts)


def rho_exact(pattern: Graph, m: int, *, shards=1, max_certificates=1000,
              cache_dir=None) -> SearchResult:
    """Exact maximum induced-copy count of the pattern over all hosts with
    exactly m edges, with every maximizer retained as a certificate
    (capped, sorted by canonical label).  Deterministic: the result is
    identical for any shard count.  With a cache_dir the levels are taken
    from and saved to that store directory (``_level``)."""
    kernels.check_pattern(pattern)
    if m < 0:
        raise ValueError("edge budget must be nonnegative")
    if max_certificates < 0:
        raise ValueError("certificate cap must be nonnegative")
    if m > DEFAULT_CEILING:
        raise CeilingError(m)
    pattern_label = canonical_form(pattern).label
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)  # an unusable path fails before the search
    rho, maximizers, scanned = _scan(_level(m, shards, cache_dir), parse_graph6(pattern_label))
    return SearchResult(pattern_label, m, rho, tuple(maximizers[:max_certificates]),
                        len(maximizers) > max_certificates, scanned)
