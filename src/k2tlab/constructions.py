"""Generators: the prime-order polarity graph, standard fixtures, seeded
random graphs, and exhaustive labelled-graph streams.

The labelled enumeration is deliberately not isomorphism-reduced: the
exhaustive claims in the verification suites stay trivial to argue, and
the redundancy is affordable at n <= 7. Random graphs use a fixed,
versioned xorshift64* generator so every randomised report can name its
seed and reproduce bit-identically on any platform.
"""

from __future__ import annotations

import inspect
import math
from typing import Iterator, Optional

from . import detect
from .graphs import Graph, GraphError, check_vertex_pairs

ENUMERATION_CAP = 7
PRNG_NAME = "xorshift64star-v1"


# ---------------------------------------------------------------------------
# Polarity graph of the projective plane over a prime field
# ---------------------------------------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            return False
    return True


def polarity_graph(q: int) -> Graph:
    """Orthogonality graph on the points of the projective plane of prime
    order q: x ~ y iff x . y = 0 (mod q) and x != y.

    q^2 + q + 1 vertices and q (q+1)^2 / 2 edges; the q + 1 self-conjugate
    points keep degree q, the rest degree q + 1. Two points share exactly
    one polar line, so the graph has no K_{2,2} subgraph at all.
    """
    check_vertex_pairs(q * q + q + 1)
    if not _is_prime(q):
        raise GraphError(f"q must be prime, got {q} (prime powers unsupported)")
    points = []
    # Canonical projective representatives: first nonzero coordinate is 1.
    for y in range(q):
        for z in range(q):
            points.append((1, y, z))
    for z in range(q):
        points.append((0, 1, z))
    points.append((0, 0, 1))
    n = len(points)
    adj = [0] * n
    for i in range(n):
        xi, yi, zi = points[i]
        for j in range(i + 1, n):
            xj, yj, zj = points[j]
            if (xi * xj + yi * yj + zi * zj) % q == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    detect.require(
        n == q * q + q + 1 and sum(row.bit_count() for row in adj) == q * (q + 1) ** 2,
        "polarity_graph: q^2 + q + 1 points and q (q + 1)^2 / 2 edges",
    )
    return Graph._trusted(n, adj, q * (q + 1) ** 2 // 2)


# ---------------------------------------------------------------------------
# Standard fixtures
# ---------------------------------------------------------------------------


def complete(n: int) -> Graph:
    check_vertex_pairs(n)
    full = (1 << n) - 1
    return Graph._trusted(n, [full ^ (1 << v) for v in range(n)], math.comb(n, 2))


def empty(n: int) -> Graph:
    check_vertex_pairs(n)
    return Graph._trusted(n, [0] * n, 0)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a cycle needs n >= 3, got {n}")
    check_vertex_pairs(n)
    return Graph._trusted(
        n, [(1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n)], n
    )


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"a path needs n >= 1, got {n}")
    check_vertex_pairs(n)
    full = (1 << n) - 1
    # Bits v + 1 and v - 1; the mask drops bit n, and 1 >> 1 is 0.
    rows = [((2 << v) | (1 << v >> 1)) & full for v in range(n)]
    return Graph._trusted(n, rows, n - 1)


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise GraphError("part sizes must be non-negative")
    check_vertex_pairs(a + b)
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    return Graph._trusted(a + b, [right] * a + [left] * b, a * b)


def turan(n: int, r: int) -> Graph:
    """Turan graph T(n, r): complete r-partite with balanced parts."""
    if r < 1 or n < 0:
        raise GraphError(f"need r >= 1 and n >= 0, got n={n}, r={r}")
    check_vertex_pairs(n)
    full = (1 << n) - 1
    adj = []
    inside = 0  # pairs within a part
    base, extra = divmod(n, r)
    for i in range(min(r, n)):  # parts past the n-th are empty
        size = base + (1 if i < extra else 0)
        part = ((1 << size) - 1) << len(adj)
        adj.extend([full ^ part] * size)
        inside += math.comb(size, 2)
    return Graph._trusted(n, adj, math.comb(n, 2) - inside)


_STANDARD: dict = {
    "complete": complete,
    "empty": empty,
    "cycle": cycle,
    "path": path,
    "complete-bipartite": complete_bipartite,
    "turan": turan,
    "polarity": polarity_graph,
}


def standard(kind: str, *params: int) -> Graph:
    """Named fixture dispatcher: complete, empty, cycle, path,
    complete-bipartite, turan, polarity."""
    try:
        builder = _STANDARD[kind]
    except KeyError:
        raise GraphError(
            f"unknown graph kind {kind!r}; choose from {sorted(_STANDARD)}"
        ) from None
    arity = len(inspect.signature(builder).parameters)
    if len(params) != arity:
        raise GraphError(f"{kind} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


# ---------------------------------------------------------------------------
# Seeded random graphs
# ---------------------------------------------------------------------------


class XorShift64Star:
    """xorshift64* with the canonical multiplier; 64-bit outputs."""

    MULT = 0x2545F4914F6CDD1D
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed & self.MASK) or 0x9E3779B97F4A7C15

    def next64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & self.MASK
        x ^= (x >> 27)
        self.state = x
        return (x * self.MULT) & self.MASK


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one xorshift64* draw per vertex pair in lexicographic
    order; identical (n, p, seed) always yields the identical graph."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must lie in [0, 1], got {p}")
    check_vertex_pairs(n)
    rng = XorShift64Star(seed)
    threshold = int(p * (1 << 64))
    adj = [0] * n
    count = 0
    for u in range(n):
        bit_u = 1 << u
        for v in range(u + 1, n):
            if rng.next64() < threshold:
                adj[u] |= 1 << v
                adj[v] |= bit_u
                count += 1
    return Graph._trusted(n, adj, count)


# ---------------------------------------------------------------------------
# Exhaustive labelled enumeration
# ---------------------------------------------------------------------------


def pair_order(n: int) -> list[tuple[int, int]]:
    """The fixed edge-bit order: (0,1), (0,2), ..., (0,n-1), (1,2), ..."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def enumerate_labelled(n: int) -> Iterator[Graph]:
    """Every labelled graph on n vertices exactly once (0 <= n <= 7), in
    the order of ``iter_masks``."""
    if not 0 <= n <= ENUMERATION_CAP:
        raise GraphError(
            f"labelled enumeration needs 0 <= n <= {ENUMERATION_CAP}, got {n}"
        )
    return (Graph._trusted(n, adj, e) for _, e, adj in iter_masks(n))


def iter_masks(n: int, lo: int = 0, hi: Optional[int] = None):
    """Fast cursor over the labelled graphs on n vertices.

    Yields (mask, edge_count, adj) for the indices i in [lo, hi), in
    increasing order: the graph at position i is the one whose edge mask
    is the Gray code i ^ (i >> 1), bit k standing for the pair
    ``pair_order(n)[k]``, so each step toggles a single edge.
    ``bitslice`` relies on this position-to-mask rule. ``adj`` is a list
    reused in place -- consume, never store.
    """
    pairs = pair_order(n)
    npairs = len(pairs)
    total = 1 << npairs
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise GraphError(f"bad mask interval [{lo}, {hi}) for n={n}")
    if lo == hi:
        return
    uidx = [u for u, _ in pairs]
    vidx = [v for _, v in pairs]
    ubit = [1 << u for u, _ in pairs]
    vbit = [1 << v for _, v in pairs]
    adj = [0] * n
    mask = lo ^ (lo >> 1)
    edge_count = 0
    for k in range(npairs):
        if (mask >> k) & 1:
            adj[uidx[k]] |= vbit[k]
            adj[vidx[k]] |= ubit[k]
            edge_count += 1
    yield mask, edge_count, adj
    prev = mask
    for i in range(lo + 1, hi):
        mask = i ^ (i >> 1)
        k = (mask ^ prev).bit_length() - 1
        prev = mask
        if (mask >> k) & 1:
            adj[uidx[k]] |= vbit[k]
            adj[vidx[k]] |= ubit[k]
            edge_count += 1
        else:
            adj[uidx[k]] &= ~vbit[k]
            adj[vidx[k]] &= ~ubit[k]
            edge_count -= 1
        yield mask, edge_count, adj
