"""Shared fixtures and naive reference oracles for the test suite.

Oracles here deliberately avoid the package's own search kernels: they
enumerate with itertools so detector results can be checked against an
independent path.
"""

from __future__ import annotations

import itertools

import pytest

from k2tlab.graphs import Graph, bits, build


def petersen() -> Graph:
    """Kneser graph KG(5,2): 2-subsets of {0..4}, adjacent iff disjoint."""
    vs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
        if not set(vs[i]) & set(vs[j])
    ]
    return build(10, edges)


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    return build(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])


def all_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])


def naive_triangles(g: Graph) -> int:
    return sum(
        1
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def triangle_count(g: Graph) -> int:
    """Triangles of g, each counted once from its least vertex v and middle
    vertex u: the common neighbours of v and u above u."""
    total = 0
    for v in range(g.n):
        row = g.adj[v]
        for u in bits(row >> (v + 1)):
            u += v + 1
            total += (g.adj[u] & row & ~((1 << u) - 1)).bit_count()
    return total


def naive_max_clique_size(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return size
    return 0


def naive_has_independent_set(g: Graph, t: int) -> bool:
    return any(
        all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2))
        for sub in itertools.combinations(range(g.n), t)
    )


def naive_has_induced_k2t(g: Graph, t: int) -> bool:
    """Scan all (2+t)-subsets for an induced complete bipartite K_{2,t}."""
    for sub in itertools.combinations(range(g.n), 2 + t):
        for side2 in itertools.combinations(sub, 2):
            a, b = side2
            rest = [v for v in sub if v not in side2]
            if g.has_edge(a, b):
                continue
            if any(g.has_edge(u, v) for u, v in itertools.combinations(rest, 2)):
                continue
            if all(g.has_edge(a, v) and g.has_edge(b, v) for v in rest):
                return True
    return False


def naive_has_subgraph(g: Graph, h: Graph) -> bool:
    if h.n > g.n:
        return False
    for sub in itertools.permutations(range(g.n), h.n):
        if all(g.has_edge(sub[u], sub[v]) for u, v in h.edges()):
            return True
    return False


@pytest.fixture(scope="session")
def petersen_graph() -> Graph:
    return petersen()


@pytest.fixture(autouse=True)
def checked_trusted_rows(monkeypatch):
    """Every ``Graph._trusted`` build is re-checked by the public
    constructor, so a builder that makes asymmetric rows or miscounts its
    edges fails the tests. Explicit raises keep this under ``python -O``."""
    trusted = Graph._trusted

    def checked(cls, n, adj, edge_count):
        rows = list(adj)
        count = Graph(n, rows).edge_count  # raises GraphError on bad rows
        if edge_count != count:
            raise AssertionError(
                f"Graph._trusted was told {edge_count} edges, the rows have {count}"
            )
        return trusted(n, rows, edge_count)

    monkeypatch.setattr(Graph, "_trusted", classmethod(checked))
