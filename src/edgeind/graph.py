"""Simple undirected graphs with bitmask adjacency and graph6 text I/O.

Adjacency is stored as one bitmask per vertex so that neighborhood
intersection is a single integer AND.  Graphs up to 64 vertices ride the
compiled kernels; the type itself allows up to 128 so that large
two-sided hosts (complete bipartite checks) stay countable through the
pure path.  All graphs are immutable.
"""

from __future__ import annotations

MAX_VERTICES = 128
WORD_VERTICES = 64


class Graph6Error(ValueError):
    """Malformed graph6 input; the message names the offending byte offset."""


class Graph:
    """Immutable simple graph: ``n`` vertices 0..n-1, ``adj[v]`` a bitmask."""

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n, adj):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if (adj[u] >> v & 1) != (adj[v] >> u & 1):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        _fill(self, n, adj)

    @classmethod
    def _unchecked(cls, n, adj: tuple):
        """A graph from rows that are valid by construction, such as a valid
        graph's rows with one checked edge or vertex added."""
        g = object.__new__(cls)
        _fill(g, n, adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, g6={write_graph6(self)!r})"

    # -- basic queries -------------------------------------------------

    @property
    def m(self):
        """Edge count."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v):
        return self.adj[v].bit_count()

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        """Sorted list of edges as (u, v) with u < v."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                out.append((u, v))
        return out

    def neighbors(self, v):
        row = self.adj[v]
        out = []
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            out.append(u)
        return out

    def isolated_vertices(self):
        return [v for v in range(self.n) if not self.adj[v]]

    # -- constructors --------------------------------------------------

    @classmethod
    def from_edges(cls, n, edges):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def empty(cls, n):
        return cls(n, [0] * n)

    @classmethod
    def path(cls, k):
        return cls.from_edges(k, [(i, i + 1) for i in range(k - 1)])

    @classmethod
    def cycle(cls, k):
        if k < 3:
            raise ValueError("cycles need at least 3 vertices")
        return cls.from_edges(k, [(i, (i + 1) % k) for i in range(k)])

    @classmethod
    def complete(cls, k):
        full = (1 << k) - 1
        return cls(k, [full ^ (1 << v) for v in range(k)])

    @classmethod
    def complete_bipartite(cls, a, b):
        left = (1 << a) - 1
        right = ((1 << (a + b)) - 1) ^ left
        return cls(a + b, [right] * a + [left] * b)

    # -- derived graphs ------------------------------------------------

    def relabel(self, perm):
        """New graph where old vertex v becomes perm[v]."""
        n = self.n
        adj = [0] * n
        for v in range(n):
            row = self.adj[v]
            new_row = 0
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                new_row |= 1 << perm[u]
            adj[perm[v]] = new_row
        return Graph(n, adj)

    def induced_subgraph(self, vertices):
        """Subgraph induced by the given vertices, reindexed in their order."""
        vertices = list(vertices)
        pos = {v: i for i, v in enumerate(vertices)}
        if len(pos) != len(vertices):
            raise ValueError("repeated vertex")
        adj = [0] * len(vertices)
        for i, v in enumerate(vertices):
            row = self.adj[v]
            for j, u in enumerate(vertices):
                if row >> u & 1:
                    adj[i] |= 1 << j
        return Graph(len(vertices), adj)

    def without_isolated(self):
        """Drop degree-0 vertices, keeping the relative order of the rest."""
        keep = [v for v in range(self.n) if self.adj[v]]
        if len(keep) == self.n:
            return self
        return self.induced_subgraph(keep)

    def add_edge(self, u, v):
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an end outside 0..{n - 1}")
        if u == v or self.adj[u] >> v & 1:
            raise ValueError("edge already present or loop")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._unchecked(n, tuple(adj))

    def remove_edge(self, u, v):
        if not self.has_edge(u, v):
            raise ValueError("no such edge")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, adj)

    def add_vertex(self, neighbors=0):
        """Append vertex n, adjacent to the given bitmask of old vertices."""
        n = self.n
        if not 0 <= neighbors < 1 << n:
            raise ValueError(f"neighbor mask {neighbors} mentions vertices outside 0..{n - 1}")
        if n == MAX_VERTICES:
            raise ValueError(f"vertex count {n + 1} outside 0..{MAX_VERTICES}")
        adj = [row | (neighbors >> v & 1) << n for v, row in enumerate(self.adj)]
        adj.append(neighbors)
        return Graph._unchecked(n + 1, tuple(adj))


def _fill(g, n, adj):
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    object.__setattr__(g, "_hash", hash((n, adj)))


# -- graph6 ------------------------------------------------------------
#
# Header-less one-line format: N(n) followed by the upper triangle of the
# adjacency matrix read column by column ((0,1),(0,2),(1,2),(0,3),...),
# packed big-endian into 6-bit groups, each group + 63.

_HEADER = ">>graph6<<"


def write_graph6(g: Graph) -> str:
    return encode_graph6(g.adj)


def encode_graph6(adj) -> str:
    """graph6 text of the graph with the given adjacency rows."""
    n = len(adj)
    if n > MAX_VERTICES:
        raise ValueError(f"graphs beyond {MAX_VERTICES} vertices are unsupported")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = [chr(126), chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    bits = 0
    nbits = 0
    for v in range(1, n):
        col = adj[v]
        for u in range(v):
            bits = bits << 1 | (col >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text
    offset = 0
    if s.startswith(">>"):
        if not s.startswith(_HEADER):
            raise Graph6Error("byte 0: malformed graph6 header")
        s = s[len(_HEADER):]
        offset = len(_HEADER)
    s = s.rstrip("\n")
    if not s:
        raise Graph6Error(f"byte {offset}: empty graph6 string")

    def val(i):
        c = ord(s[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {offset + i}: character {s[i]!r} outside graph6 range")
        return c - 63

    if val(0) == 63:  # chr(126): long form
        if len(s) < 4:
            raise Graph6Error(f"byte {offset + len(s)}: truncated vertex count")
        if val(1) == 63:
            raise Graph6Error(f"byte {offset + 1}: vertex counts beyond 258047 unsupported")
        n = val(1) << 12 | val(2) << 6 | val(3)
        body = 4
    else:
        n = val(0)
        body = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"byte {offset}: {n} vertices exceeds the {MAX_VERTICES}-vertex limit")

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - body < need:
        raise Graph6Error(f"byte {offset + len(s)}: truncated edge data")
    if len(s) - body > need:
        raise Graph6Error(f"byte {offset + body + need}: trailing garbage after edge data")

    adj = [0] * n
    bit = 0
    for i in range(need):
        group = val(body + i)
        for k in range(5, -1, -1):
            if bit >= nbits:
                if group >> k & 1:
                    raise Graph6Error(f"byte {offset + body + i}: nonzero padding bits")
                continue
            if group >> k & 1:
                u, v = _bit_to_pair(bit)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            bit += 1
    return Graph(n, adj)


def _bit_to_pair(bit):
    # Column-major upper triangle: column v holds v bits for rows 0..v-1.
    v = 1
    while bit >= v:
        bit -= v
        v += 1
    return bit, v


def parse_graph6_file(lines):
    """Parse an iterable of graph6 lines, skipping blank ones."""
    return [parse_graph6(line) for line in lines if line.strip()]
