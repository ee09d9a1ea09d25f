"""Immutable bitset-backed simple graphs, exact density, and graph6 I/O.

Vertices are 0..n-1. Adjacency is stored as one Python int per vertex,
bit u of ``adj[v]`` set iff uv is an edge. Graphs are immutable after
construction and safe to share across workers; every operation here is a
pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence

GRAPH6_HEADER = ">>graph6<<"


class GraphError(ValueError):
    """Malformed graph construction or codec input."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _turned_is_transposed(adj: Sequence[int], n: int) -> bool:
    """Whether the adjacency matrix turned by 180 degrees (rows[i][j] is bit
    n-1-j of adj[n-1-i]) equals its transpose, that is, whether the matrix
    is symmetric; 2 n^2 characters compared in C."""
    rows = [format(row, f"0{n}b") for row in reversed(adj)]
    return rows == ["".join(column) for column in zip(*rows)]


class Graph:
    """Immutable simple graph. The constructor enforces symmetry and
    irreflexivity; internal builders whose rows hold both by construction
    skip the check through ``Graph._trusted``."""

    __slots__ = ("n", "adj", "_edge_count", "_hash")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        if len(adj) != n:
            raise GraphError(f"adjacency has {len(adj)} rows for {n} vertices")
        full = (1 << n) - 1
        count = 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"adjacency row {v} mentions vertices >= {n}")
            if (row >> v) & 1:
                raise GraphError(f"loop at vertex {v}")
            count += row.bit_count()
        # The string compare beats a big-int test per set bit once
        # count * 16 >= n * (n + 48) (measured: from about 40% of the cells
        # at n = 9 down to 1/16 for large n), and from there on costs at most
        # 32 bytes per set bit. The test per set bit also names the pair.
        if not (count * 16 >= n * (n + 48) and _turned_is_transposed(adj, n)):
            stray = [
                (min(v, u), max(v, u))
                for v, row in enumerate(adj)
                for u in bits(row)
                if not (adj[u] >> v) & 1
            ]
            if stray:
                raise GraphError(f"asymmetric pair {min(stray)}")
        self._fill(n, adj, count // 2)

    @classmethod
    def _trusted(cls, n: int, adj: Sequence[int], edge_count: int) -> "Graph":
        """A graph from rows that the caller built in range, loop-free and
        symmetric, with ``edge_count`` edges: nothing is checked. Only for
        builders whose rows are right by construction."""
        g = object.__new__(cls)
        g._fill(n, adj, edge_count)
        return g

    def _fill(self, n: int, adj: Sequence[int], edge_count: int) -> None:
        adj = tuple(adj)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_edge_count", edge_count)
        object.__setattr__(self, "_hash", hash((n,) + adj))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbours(self, v: int) -> frozenset[int]:
        return frozenset(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, lexicographic."""
        out = []
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1)):
                out.append((v, v + 1 + u))
        return out

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph._trusted(
            self.n,
            [~row & full & ~(1 << v) for v, row in enumerate(self.adj)],
            comb(self.n, 2) - self.edge_count,
        )


@dataclass(frozen=True)
class DensityStats:
    """Edge count, exact edge density alpha, and missing-pair count."""

    edge_count: int
    alpha: Fraction
    missing_count: int


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph plus the relabelling back to the parent.

    ``vertices[i]`` is the parent label of local vertex ``i``, so any
    certificate found in ``graph`` can be lifted to the parent.
    """

    graph: Graph
    vertices: tuple[int, ...]

    def to_parent(self, local: int) -> int:
        return self.vertices[local]


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate pairs collapse.

    Raises GraphError for out-of-range endpoints or loops.
    """
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def density(g: Graph) -> DensityStats:
    """Exact density stats; alpha = edge_count / C(n,2). Requires n >= 2."""
    if g.n < 2:
        raise GraphError(f"alpha undefined for n={g.n} (need n >= 2)")
    pairs = comb(g.n, 2)
    return DensityStats(
        edge_count=g.edge_count,
        alpha=Fraction(g.edge_count, pairs),
        missing_count=pairs - g.edge_count,
    )


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> InducedSubgraph:
    """Induced subgraph on the given vertices (sorted), with relabelling."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise GraphError(f"vertices out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    count = 0
    for i, v in enumerate(vs):
        row = g.adj[v]
        for u in vs[i + 1 :]:
            if (row >> u) & 1:
                j = index[u]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
                count += 1
    return InducedSubgraph(Graph._trusted(len(vs), adj, count), tuple(vs))


def neighbourhood_subgraph(g: Graph, v: int) -> InducedSubgraph:
    """G_v: the subgraph induced on the neighbourhood of v."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    return induced_subgraph(g, bits(g.adj[v]))


def missing_edges(g: Graph) -> list[tuple[int, int]]:
    """All non-adjacent unordered pairs, lexicographically sorted."""
    out = []
    for v in range(g.n):
        non = ~g.adj[v] & g.full_mask & ~((1 << (v + 1)) - 1)
        for u in bits(non):
            out.append((v, u))
    return out


def common_neighbourhood(g: Graph, u: int, v: int) -> frozenset[int]:
    """Vertices adjacent to both u and v (never contains u or v)."""
    if u == v:
        raise GraphError("common neighbourhood needs two distinct vertices")
    return frozenset(bits(g.adj[u] & g.adj[v]))


def triangle_count(g: Graph) -> int:
    total = 0
    for v in range(g.n):
        row = g.adj[v]
        for u in bits(row >> (v + 1)):
            u += v + 1
            total += (g.adj[u] & row & ~((1 << u) - 1)).bit_count()
    return total


# ---------------------------------------------------------------------------
# graph6 codec (McKay's format: 6-bit groups of the upper triangle,
# column-major, padded with zero bits, each group offset by 63). Both
# directions go through one '0'/'1' string per graph, in which column c of
# the upper triangle is the low c bits of row c, lowest row first.
# ---------------------------------------------------------------------------

_GROUP_BITS = {o: format(o - 63, "06b") for o in range(63, 127)}
_BITS_GROUP = {bits: chr(o) for o, bits in _GROUP_BITS.items()}


def _group_bits(text: str) -> str:
    """The 6-bit groups of graph6 characters as one '0'/'1' string."""
    out = text.translate(_GROUP_BITS)
    if len(out) != 6 * len(text):
        bad = next(ch for ch in text if ord(ch) not in _GROUP_BITS)
        raise GraphError(f"byte {ord(bad)} outside graph6 range 63..126")
    return out


def _encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0)
        )
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0)
        )
    raise GraphError(f"n={n} exceeds the graph6 limit of 2^36 - 1")


def _decode_n(text: str) -> tuple[int, int]:
    """Return (n, chars consumed) from the front of a graph6 body."""
    if not text:
        raise GraphError("empty graph6 string")
    head = _group_bits(text[:8])
    if head[:6] != "111111":
        return int(head[:6], 2), 1
    if head[6:12] == "111111":
        if len(text) < 8:
            raise GraphError("truncated graph6 vertex count")
        return int(head[12:48], 2), 8
    if len(text) < 4:
        raise GraphError("truncated graph6 vertex count")
    return int(head[6:24], 2), 4


def graph6_encode(g: Graph) -> str:
    """Encode a graph as a canonical graph6 string."""
    stream = "".join(
        format(g.adj[c] & ((1 << c) - 1), f"0{c}b")[::-1] for c in range(1, g.n)
    )
    stream += "0" * (-len(stream) % 6)
    return _encode_n(g.n) + "".join(
        [_BITS_GROUP[stream[i : i + 6]] for i in range(0, len(stream), 6)]
    )


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string (optional '>>graph6<<' header allowed)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER) :].strip()
    n, used = _decode_n(s)
    body = s[used:]
    stream = _group_bits(body)
    nbits = comb(n, 2)
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise GraphError(
            f"graph6 body has {len(body)} groups, expected {expected} for n={n}"
        )
    if "1" in stream[nbits:]:
        raise GraphError("nonzero padding bits in graph6 string")
    # Column c, padded to n, is column c of the upper triangle. Row v is
    # column v (bits below v) followed by row v of the padded columns'
    # transpose (bits above v).
    columns = []
    start = 0
    for c in range(n):
        columns.append(stream[start : start + c])
        start += c
    upper = ["".join(row) for row in zip(*(col.ljust(n, "0") for col in columns))]
    adj = [int((columns[v] + upper[v][v:])[::-1], 2) for v in range(n)]
    return Graph._trusted(n, adj, stream.count("1"))


# ---------------------------------------------------------------------------
# Secondary plain-text format: one "u v" pair per line, 0-indexed. An
# optional first line holding a single integer fixes the vertex count
# (otherwise n = max endpoint + 1).
# ---------------------------------------------------------------------------

MAX_EDGE_TEXT_VERTICES = 1 << 16
"""Largest vertex count edge text may declare or imply, far above the
graphs the exact searches handle (ER_13 has 183 vertices). It is checked
before anything of that size is allocated, so one short line cannot
exhaust memory."""

MAX_VERTEX_PAIRS = 1 << 22
"""Largest vertex-pair count C(n, 2) a generator in ``constructions``
builds, about 2,900 vertices: far above the largest graph the tests, the
README and the benchmark build (ER_13, 183 vertices), and low enough that
one command-line number cannot exhaust memory or print Theta(n^2) graph6."""


def check_vertex_pairs(n: int) -> None:
    """Raise GraphError, before anything is built, when n is negative or an
    n-vertex graph would have more than MAX_VERTEX_PAIRS vertex pairs."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    if n * (n - 1) // 2 > MAX_VERTEX_PAIRS:
        raise GraphError(
            f"{n} vertices make more than {MAX_VERTEX_PAIRS} vertex pairs, "
            "the cap for generated graphs"
        )


def parse_edge_text(text: str) -> Graph:
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and n is None and not edges:
            n = int(parts[0])
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    if n > MAX_EDGE_TEXT_VERTICES:
        raise GraphError(
            f"edge text has {n} vertices; the cap is {MAX_EDGE_TEXT_VERTICES}"
        )
    return build(n, edges)
