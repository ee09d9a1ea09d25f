"""Deletion families {H - x} and {H - ebar}, exact graph isomorphism at
desk scale, and exhaustive computation of small family Ramsey numbers
with machine-checkable witnesses.

R(K_t, F) is the least n such that every graph on n vertices contains an
independent t-set or some member of F as a (not necessarily induced)
subgraph. The search grows good graphs one vertex at a time -- both
defining properties are inherited by induced prefixes, so a level with
no survivors pins the exact value. Levels are deduplicated by exact
isomorphism tests inside cheap-invariant buckets, which keeps the n = 9
refutations (e.g. for R(3,4)) at interactive speed.

All three family constructors go through one builder, which checks sizes
before it builds a deletion or hashes an invariant: a member above the
subgraph-pattern cap ``detect.MAX_PATTERN_VERTICES`` (10 vertices), and so
any H above 11 vertices, raises GraphError at once rather than after a
search. Members are deduplicated up to isomorphism in construction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .detect import (
    MAX_PATTERN_VERTICES,
    contains_family_member,
    contains_subgraph,
    find_independent_set,
    require,
)
from .graphs import (
    Graph,
    GraphError,
    bits,
    build,
    graph6_encode,
    induced_subgraph,
    missing_edges,
)

MAX_RAMSEY_CAP = 10
DEFAULT_RAMSEY_CAP = 9

ORIGIN_MINUS_VERTEX = "minus-vertex"
ORIGIN_MINUS_EBAR = "minus-vertex-or-nonedge"
ORIGIN_EXPLICIT = "explicit"


@dataclass(frozen=True)
class FamilyProvenance:
    """How one family member arose from H: the deleted vertices and, for
    each member vertex i, the original H vertex kept[i]."""

    removed: tuple[int, ...]
    kept: tuple[int, ...]


@dataclass(frozen=True)
class GraphFamily:
    members: tuple[Graph, ...]
    origin: str
    provenance: tuple[FamilyProvenance, ...] = ()


@dataclass(frozen=True)
class RamseyQuery:
    t: int
    family: GraphFamily


@dataclass(frozen=True)
class RamseyResult:
    """Exact value when lower = upper, else a bracket. The witness (when
    present) has lower - 1 vertices, no independent t-set, and no family
    member as subgraph; it is re-validated on construction."""

    lower: int
    upper: int
    exact: Optional[int]
    lower_witness: Optional[Graph]


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _refined_colours(g: Graph, rounds: int = 3) -> list:
    """Iterated (colour, sorted neighbour colours) refinement. The final
    colour values are nested tuples, identical across isomorphic graphs."""
    colours: list = [g.degree(v) for v in range(g.n)]
    for _ in range(rounds):
        colours = [
            (colours[v], tuple(sorted(colours[u] for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
    return colours


def invariant_key(g: Graph) -> tuple:
    """A cheap isomorphism invariant used to bucket candidates."""
    return (g.n, g.edge_count, tuple(sorted(_refined_colours(g))))


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact backtracking isomorphism test for desk-scale graphs."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    ca = _refined_colours(a)
    cb = _refined_colours(b)
    if sorted(ca) != sorted(cb):
        return False
    n = a.n
    # Map rare colours first: most-constrained-first ordering.
    freq: dict = {}
    for c in ca:
        freq[c] = freq.get(c, 0) + 1
    order = sorted(range(n), key=lambda v: (freq[ca[v]], ca[v], v))
    image = [-1] * n
    used = 0

    def rec(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if (used >> w) & 1 or cb[w] != ca[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if ((a.adj[v] >> u) & 1) != ((b.adj[w] >> image[u]) & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used |= 1 << w
                if rec(i + 1):
                    return True
                used ^= 1 << w
        return False

    return rec(0)


def _dedupe(items, graph=lambda item: item) -> list:
    """The items, in order, whose ``graph(item)`` is the first of its
    isomorphism class: exact tests inside cheap-invariant buckets."""
    buckets: dict = {}
    out = []
    for item in items:
        g = graph(item)
        bucket = buckets.setdefault(invariant_key(g), [])
        if not any(is_isomorphic(g, seen) for seen in bucket):
            bucket.append(g)
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# Deletion families
# ---------------------------------------------------------------------------


def _family(origin: str, h: Optional[Graph], members: tuple = ()) -> GraphFamily:
    """The family of ``origin``: the explicit ``members``, or H minus each
    vertex and, for {H - ebar}, minus each non-adjacent pair, deduplicated
    up to isomorphism in that order. Sizes are checked first."""
    if h is not None and h.n < 2:
        raise GraphError(f"need at least 2 vertices to delete one, got n={h.n}")
    if h is None and not members:
        raise GraphError("explicit family must be non-empty")
    largest = max(g.n for g in members) if h is None else h.n - 1
    if largest > MAX_PATTERN_VERTICES:
        raise GraphError(
            f"a family member would have {largest} vertices; family members "
            f"cap at {MAX_PATTERN_VERTICES}"
        )
    items = [(g, FamilyProvenance(removed=(), kept=())) for g in members]
    if h is not None:
        removals = [(v,) for v in range(h.n)]
        if origin == ORIGIN_MINUS_EBAR:
            removals += missing_edges(h)
        for removed in removals:
            sub = induced_subgraph(h, (u for u in range(h.n) if u not in removed))
            items.append((sub.graph, FamilyProvenance(removed, sub.vertices)))
    items = _dedupe(items, itemgetter(0))
    return GraphFamily(
        members=tuple(g for g, _ in items),
        origin=origin,
        provenance=tuple(p for _, p in items),
    )


def family_minus_vertex(h: Graph) -> GraphFamily:
    """{H - x}: H with one vertex removed, deduplicated up to isomorphism."""
    return _family(ORIGIN_MINUS_VERTEX, h)


def family_minus_ebar(h: Graph) -> GraphFamily:
    """{H - ebar}: H minus one vertex or minus two non-adjacent vertices."""
    return _family(ORIGIN_MINUS_EBAR, h)


def explicit_family(members) -> GraphFamily:
    return _family(ORIGIN_EXPLICIT, None, tuple(members))


# ---------------------------------------------------------------------------
# Exact Ramsey search
# ---------------------------------------------------------------------------


def _is_good(g: Graph, t: int, members: tuple[Graph, ...]) -> bool:
    """Good = no independent t-set and no family member as subgraph."""
    if find_independent_set(g, t) is not None:
        return False
    for member in members:
        if member.n <= g.n and contains_subgraph(g, member) is not None:
            return False
    return True


def _extensions(parent: Graph):
    """All one-vertex extensions of ``parent``, new vertex last."""
    k = parent.n
    bit_k = 1 << k
    for mask in range(1 << k):
        adj = list(parent.adj)
        adj.append(mask)
        for u in bits(mask):
            adj[u] |= bit_k
        yield Graph(k + 1, adj)


def ramsey_exact(query: RamseyQuery, n_cap: int = DEFAULT_RAMSEY_CAP) -> RamseyResult:
    """Exact R(K_t, family) by exhaustive search up to ``n_cap`` vertices.

    Every good graph on n vertices restricts to a good graph on its first
    n - 1 vertices, so level n is built by extending level n - 1 and the
    first empty level equals the Ramsey number. If level ``n_cap`` still
    has survivors the result is a bracket (never a guess), with the
    Erdos-Szekeres value R(t, min member order) as the upper end.
    """
    if query.t < 2:
        raise GraphError(f"need t >= 2, got t={query.t}")
    members = query.family.members
    if not members:
        raise GraphError("family must be non-empty")
    if any(m.n < 1 for m in members):
        raise GraphError("family members must have at least one vertex")
    if not 1 <= n_cap <= MAX_RAMSEY_CAP:
        raise GraphError(f"n_cap must be in 1..{MAX_RAMSEY_CAP}, got {n_cap}")
    t = query.t

    survivors = [build(0, [])]
    for n in range(1, n_cap + 1):
        level = _dedupe(
            cand
            for parent in survivors
            for cand in _extensions(parent)
            if _is_good(cand, t, members)
        )
        if not level:
            witness = min(survivors, key=graph6_encode)
            _check_witness(witness, t, members)
            return RamseyResult(lower=n, upper=n, exact=n, lower_witness=witness)
        survivors = level

    lower = n_cap + 1
    vmin = min(m.n for m in members)
    upper = math.comb(vmin + t - 2, t - 1)
    require(
        upper >= lower,
        f"Erdos-Szekeres bound {upper} below the certified lower bound {lower}",
    )
    witness = min(survivors, key=graph6_encode)
    _check_witness(witness, t, members)
    return RamseyResult(
        lower=lower,
        upper=upper,
        exact=lower if lower == upper else None,
        lower_witness=witness,
    )


def _check_witness(w: Graph, t: int, members: tuple[Graph, ...]) -> None:
    require(
        find_independent_set(w, t) is None,
        "the Ramsey witness has an independent t-set",
    )
    require(
        w.n == 0 or contains_family_member(w, members) is None,
        "the Ramsey witness contains a family member",
    )


_VERIFIED_CLASSICAL = {(3, 3): 6, (3, 4): 9}


def known_ramsey(t: int, r: int) -> Optional[int]:
    """Classical R(t, r) values, limited to entries this repository can
    re-verify by exhaustive search (see the ramsey-small suite)."""
    if t < 2 or r < 1:
        return None
    if r == 1:
        return 1
    if t == 2:
        return r
    if r == 2:
        return t
    return _VERIFIED_CLASSICAL.get((t, r))
