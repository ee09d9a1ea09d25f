"""Deletion families {H - x} and {H - ebar}, exact graph isomorphism at
desk scale, and exhaustive computation of small family Ramsey numbers
with machine-checkable witnesses.

R(K_t, F) is the least n such that every graph on n vertices contains an
independent t-set or some member of F as a (not necessarily induced)
subgraph. The search grows good graphs one vertex at a time -- both
defining properties are inherited by induced prefixes, so a level with
no survivors pins the exact value (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998). Since the parent is good, a step tests
only what the new vertex adds: a neighbour mask is skipped when the
vertices outside it hold an independent (t-1)-set, and members are
searched only for copies through the new vertex, from one start per
orbit of the member's automorphism group. Inside each class of twin
vertices of the parent (one open neighbourhood N(v), or one closed
neighbourhood N[v]) the mask takes only the lowest-indexed vertices:
swapping twins is an automorphism of the parent that fixes the new
vertex, so a skipped mask always has a smaller mask of the same parent
whose child is isomorphic and just as good. A skipped candidate is thus
never first in its isomorphism class, and the survivors of each level,
their order and the witness bytes are those of the unpruned step. When
the family has a complete member K_r (the least r if several), a mask
that holds a K_{r-1} of the parent is skipped as well, before its
candidate is built: that candidate has a K_r through the new vertex.
The member search then covers only the other members. A candidate's rows
are symmetric by construction, so it is built through ``Graph._trusted``
without re-validation; the vertices of a row of a graph on at most 10
vertices are read from one table. Levels are deduplicated by exact
isomorphism tests inside cheap-invariant buckets: each graph's colours
are refined once, to small ints through one table per level, until a
round splits no colour class, and the test backtracks over bitmasks of
colour classes. This keeps the n = 9 refutations (e.g. for R(3,4)) at
interactive speed.

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
    _lex_set,
    contains_family_member,
    embeds_at,
    find_independent_set,
    plan_embedding,
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

# _ROW_VERTICES[row]: the vertices of ``row`` in increasing order, for every
# row of a graph on at most _TABLE_N vertices (a fixed size, not a cap).
_TABLE_N = 10
_ROW_VERTICES: tuple = ((),)
for _v in range(_TABLE_N):
    _ROW_VERTICES += tuple(vs + (_v,) for vs in _ROW_VERTICES)


def _vertices(n: int):
    """Row -> its vertices in increasing order, for rows of n-vertex graphs."""
    return _ROW_VERTICES.__getitem__ if n <= _TABLE_N else lambda r: tuple(bits(r))


def _refined_colours(g: Graph, table: Optional[dict] = None) -> list:
    """Iterated colour refinement from the degrees: each round renames
    every vertex's (round, colour, sorted neighbour colours) signature to a
    small int, and the refinement stops after the first round that splits
    no colour class, or after three rounds. Graphs refined through one
    shared ``table`` get equal colours exactly for equal signatures, so
    their colours compare with each other; the round in each signature
    keeps graphs that stop at different rounds apart. Without a table a
    signature becomes its rank among g's own signatures of the round,
    offset by round * n, which is an isomorphism invariant of g alone."""
    nbrs = list(map(_vertices(g.n), g.adj))
    colours = [len(vs) for vs in nbrs]
    classes = len(set(colours))
    for r in range(3):
        sigs = [
            (r, colours[v], tuple(sorted([colours[u] for u in vs])))
            for v, vs in enumerate(nbrs)
        ]
        if table is None:
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)), r * g.n)}
            colours = [rank[sig] for sig in sigs]
        else:
            colours = [table.setdefault(sig, len(table)) for sig in sigs]
        split = len(set(colours))
        if split == classes:
            break
        classes = split
    return colours


def invariant_key(g: Graph, colours: Optional[list] = None) -> tuple:
    """A cheap isomorphism invariant used to bucket candidates; ``colours``
    are g's refined colours when the caller already has them (keys compare
    only if their colours came through one table)."""
    if colours is None:
        colours = _refined_colours(g)
    return (g.n, g.edge_count, tuple(sorted(colours)))


def is_isomorphic(a: Graph, b: Graph, colours: Optional[tuple] = None) -> bool:
    """Exact backtracking isomorphism test for desk-scale graphs.

    ``colours`` is the pair of refined colours of a and b, through one
    table, when the caller already has them. Comparing their sorted values
    is only a quick reject (the backtracking alone decides), so it is
    skipped then: the dedupe passes colours whose invariant keys are equal."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if colours is None:
        table: dict = {}
        colours = (_refined_colours(a, table), _refined_colours(b, table))
        if sorted(colours[0]) != sorted(colours[1]):
            return False
    return _colour_preserving_map(a, b, *colours)


def _colour_preserving_map(a: Graph, b: Graph, ca: list, cb: list) -> bool:
    """True iff some isomorphism a -> b maps every vertex to one of the
    same colour: backtracking over vertices of a, rare colours first. The
    candidates for a vertex are the unused vertices of b in its colour
    class, and one (b-row & used) compare checks all edges back to the
    vertices already mapped."""
    n = a.n
    classes: dict = {}
    for w, c in enumerate(cb):
        classes[c] = classes.get(c, 0) | 1 << w
    freq: dict = {}
    for c in ca:
        freq[c] = freq.get(c, 0) + 1
    order = sorted(range(n), key=lambda v: (freq[ca[v]], ca[v], v))
    cands = [classes.get(ca[v], 0) for v in order]
    # back[i]: the steps before i whose vertices are a-neighbours of step i's.
    aadj = a.adj
    back = [
        [j for j in range(i) if aadj[v] >> order[j] & 1] for i, v in enumerate(order)
    ]
    image = [0] * n  # image[i]: the bit of the b-vertex that step i maps to
    badj = b.adj

    def rec(i: int, used: int) -> bool:
        if i == n:
            return True
        want = 0
        for j in back[i]:
            want |= image[j]
        free = cands[i] & ~used
        while free:
            low = free & -free
            free ^= low
            if badj[low.bit_length() - 1] & used == want:
                image[i] = low
                if rec(i + 1, used | low):
                    return True
        return False

    return rec(0, 0)


def _orbit_representatives(g: Graph) -> list[int]:
    """The least vertex of each orbit of Aut(g). Vertices x and v share an
    orbit iff some automorphism maps x to v: a colour-preserving map once
    x and v are pinned with a colour of their own (-1; refined colours are
    ranks, so never negative)."""
    colours = _refined_colours(g)

    def pinned(x: int) -> list:
        return [-1 if v == x else c for v, c in enumerate(colours)]

    reps: list[int] = []
    for v in range(g.n):
        if not any(
            colours[x] == colours[v] and _colour_preserving_map(g, g, pinned(x), pinned(v))
            for x in reps
        ):
            reps.append(v)
    return reps


def _dedupe(items, graph=lambda item: item) -> list:
    """The items, in order, whose ``graph(item)`` is the first of its
    isomorphism class: exact tests inside cheap-invariant buckets. Each
    graph's colours are refined once, through one table for the whole call;
    the buckets keep the representatives' colours for the tests."""
    table: dict = {}
    buckets: dict = {}
    out = []
    for item in items:
        g = graph(item)
        colours = _refined_colours(g, table)
        bucket = buckets.setdefault(invariant_key(g, colours), [])
        if not any(is_isomorphic(g, rep, (colours, seen)) for rep, seen in bucket):
            bucket.append((g, colours))
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


def _anchored_plans(members: tuple[Graph, ...]) -> tuple:
    """Per member and orbit of Aut(member): (vertex count, edge count,
    embedding plan that starts at the orbit's least vertex). A copy through
    a host vertex maps some vertex there, and an automorphism moves that
    vertex to its orbit's representative, so one start per orbit finds
    every copy."""
    return tuple(
        (m.n, m.edge_count, plan_embedding(m, x))
        for m in members
        for x in _orbit_representatives(m)
    )


def _is_good(g: Graph, plans: tuple) -> bool:
    """Good = no independent t-set and no family member as subgraph, for an
    extension of a good graph from ``_extensions``. Those have no
    independent t-set (nor a K_r, under its clique rule), and a member copy
    must use the new (last) vertex, so only copies anchored there of the
    members in ``plans`` are searched."""
    v = g.n - 1
    return not any(
        n <= g.n and e <= g.edge_count and embeds_at(g, plan, v)
        for n, e, plan in plans
    )


def _extensions(parent: Graph, t: int, clique: Optional[int] = None):
    """The one-vertex extensions of ``parent`` (which has no independent
    t-set) that have none either, new vertex last, in increasing order of
    the new vertex's neighbour mask, less those the twin rule of the module
    docstring skips. The parent vertices outside the mask must hold no
    independent (t-1)-set, so these complements S are grown one vertex at
    a time: u joins S when S minus N(u) holds no independent (t-2)-set.
    With ``clique`` = r, masks that hold a K_{r-1} are skipped too, so no
    extension has a K_r."""
    k = parent.n
    adj = parent.adj
    # twin_prev[v]: the bit of the previous vertex in v's twin class, or 0.
    # An open neighbourhood never equals a closed one: N(v) = N[w] would
    # put w in N(v), so v in N(w), inside N[w] = N(v). So one dict holds
    # both kinds.
    twin_prev = [0] * k
    last: dict = {}
    for v, row in enumerate(adj):
        for key in (row, row | 1 << v):
            twin_prev[v] |= last.get(key, 0)
            last[key] = 1 << v
    sets = [0]
    for u in range(k):
        bit = 1 << u
        grown = [s | bit for s in sets if _lex_set(adj, s & ~adj[u], t - 2, -1) is None]
        # On the complement the twin rule reads: once u's twin predecessor
        # is left out of the mask, so is u.
        sets = [s for s in sets if not s & twin_prev[u]] + grown
    full = parent.full_mask
    bit_k = 1 << k
    edges = parent.edge_count
    vertices = _vertices(k)
    for mask in sorted(full ^ s for s in sets):
        if clique is not None and _lex_set(adj, mask, clique - 1, 0) is not None:
            continue
        rows = list(adj)
        rows.append(mask)
        for u in vertices(mask):
            rows[u] |= bit_k
        yield Graph._trusted(k + 1, rows, edges + mask.bit_count())


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
    # K_r members are left to _extensions' clique rule: the least r covers all.
    cliques = [m for m in members if 2 * m.edge_count == m.n * (m.n - 1)]
    clique = min((m.n for m in cliques), default=None)
    plans = _anchored_plans(tuple(m for m in members if m not in cliques))

    survivors = [build(0, [])]
    for n in range(1, n_cap + 1):
        level = _dedupe(
            cand
            for parent in survivors
            for cand in _extensions(parent, t, clique)
            if _is_good(cand, plans)
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
