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
whose child is isomorphic and just as good. A mask is also skipped
unless the new vertex gets the largest degree of the child (canonical
deletion by degree): with D the parent's largest degree (0 for the empty
parent) and P its vertices of degree D, a mask M is kept iff |M| > D, or
|M| = D and M misses P. No class is lost. A good child class C has a
vertex x of largest degree, C - x is good, so its class has a
representative at the previous level, and the mask that N(x) gives on it
passes the degree rule. If the twin rule skips that mask, the twin swap
gives a smaller mask whose child is isomorphic, with a new vertex of the
same degree. So each level holds exactly the classes of the unpruned
step, each as its first kept candidate, and the witness is the least
graph6 among those representatives; it can differ from the unpruned
step's (R(K_3, {H - x}) at cap 9 for H = E]~o is one such query). When
the family has a complete member K_r (the least r if several), a mask
that holds a K_{r-1} of the parent is skipped as well, before its
candidate is built: that candidate has a K_r through the new vertex.
The member search then covers only the other members. A candidate's rows
are symmetric by construction, so it is built through ``Graph._trusted``
without re-validation; the vertices of a row of a graph on at most 10
vertices are read from ``detect``'s table. Levels are deduplicated by exact
isomorphism tests inside cheap-invariant buckets: each graph is coloured
by one refinement round (degree, sorted neighbour degrees), read straight
from its rows as one int per vertex (the degree plus a packed histogram of
the neighbour degrees, in fields too wide to carry). This colouring,
``_signatures``, is the only one: the public ``is_isomorphic`` and
``invariant_key`` and the orbit test use it too. Most bucket mates are
duplicates whose proof is nearly linear, so further rounds would cost more
than the few non-isomorphic bucket mates they split off, and the cost of a
proof is mostly its set-up. So each bucket representative keeps a proof
plan, built the first time it is compared: its vertices, rare colours
first, each keyed by its colour (``detect.search_plan``). A proof maps
the representative onto the candidate by ``detect.place`` in induced
mode, each step drawn from the candidate's class of its colour, and
builds only those classes; the anchored member test runs the same kernel
in copy mode. This keeps the n = 9 refutations (e.g. for R(3,4)) at
interactive speed.

Of the other members, only the minimal ones are searched, those that hold
no other member as a subgraph (``_minimal``). A copy of any member holds a
copy of a minimal one, so a graph holds some member exactly when it holds
a minimal one: every level, bound and witness is that of the whole family.
Most members of {H - x} and {H - ebar} hold another, so few are left; on
{H - ebar} of an 11-vertex H, families of tens of members keep 1 to 15.
The clique rule still takes its r from the whole family, so the candidates
are the same, and the witness check, like the family a caller sees, keeps
every member.

All three family constructors go through one builder, which checks sizes
before it builds a deletion or hashes an invariant: a member above the
subgraph-pattern cap ``detect.MAX_PATTERN_VERTICES`` (10 vertices), and so
any H above 11 vertices, raises GraphError at once rather than after a
search. Members are deduplicated up to isomorphism in construction order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .bounds import _es_ramsey
from .detect import (
    MAX_PATTERN_VERTICES,
    _lex_set,
    _vertices,
    contains_family_member,
    embeds_at,
    find_independent_set,
    place,
    plan_embedding,
    require,
    search_plan,
)
from .graphs import (
    Graph,
    GraphError,
    build,
    graph6_encode,
    induced_subgraph,
    missing_edges,
)

MAX_RAMSEY_CAP = 10
DEFAULT_RAMSEY_CAP = 9
MAX_ISOMORPHISM_VERTICES = 500  # detect.place recurses once per vertex

ORIGIN_MINUS_VERTEX = "minus-vertex"
ORIGIN_MINUS_EBAR = "minus-vertex-or-nonedge"
ORIGIN_EXPLICIT = "explicit"


@dataclass(frozen=True)
class GraphFamily:
    """``provenance[k][i]`` is the H vertex kept as vertex i of
    ``members[k]``; ``provenance[k]`` is empty for an explicit member."""

    members: tuple[Graph, ...]
    origin: str
    provenance: tuple[tuple[int, ...], ...] = ()


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

def _signatures(g: Graph) -> list:
    """One refinement round as one int per vertex: its degree, plus in
    field d (bits d * w and up) the number of its neighbours of degree d.
    No count or degree exceeds n - 1 < 2^w, with w = (n - 1).bit_length(),
    so no field carries into the next: two vertices of graphs on n vertices
    get one int exactly when they have one degree and one multiset of
    neighbour degrees, the partition of the (degree, sorted neighbour
    degrees) signature, with no table. Each neighbour u adds
    1 + 2^(w * deg u), so the degree field counts the neighbours."""
    adj = g.adj
    width = (g.n - 1).bit_length()
    field = [1 + (1 << width * row.bit_count()) for row in adj].__getitem__
    vertices = _vertices(g.n)
    return [sum(map(field, vertices(row))) for row in adj]


def invariant_key(g: Graph, colours: Optional[list] = None) -> tuple:
    """A cheap isomorphism invariant used to bucket candidates: the order,
    the size and the sorted ``_signatures`` of g, the only colouring this
    module uses. ``colours`` are g's signatures when the caller already has
    them. Keys of graphs of one order compare, since their signatures do."""
    if colours is None:
        colours = _signatures(g)
    return (g.n, g.edge_count, tuple(sorted(colours)))


def is_isomorphic(
    a: Graph, b: Graph, colours: Optional[tuple] = None, plan: Optional[tuple] = None
) -> bool:
    """Exact backtracking isomorphism test for desk-scale graphs.

    ``colours`` is the pair of ``_signatures`` of a and b when the caller
    already has them; the dedupe passes them for two graphs with equal
    invariant keys, and b's ``plan`` from ``_proof_plan(b, colours[1])``,
    which it keeps for the next test against b. Without colours a and b
    get their ``_signatures``, the only colouring this module uses, which
    compare since a and b have one order, and unequal sorted signatures
    reject at once. Either way only the colour-preserving map decides a
    True. Graphs of one order and size above ``MAX_ISOMORPHISM_VERTICES``
    vertices raise GraphError."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if a.n > MAX_ISOMORPHISM_VERTICES:
        raise GraphError(f"is_isomorphic caps at {MAX_ISOMORPHISM_VERTICES} vertices")
    if colours is None:
        colours = (_signatures(a), _signatures(b))
        if sorted(colours[0]) != sorted(colours[1]):
            return False
    if plan is None:
        plan = _proof_plan(b, colours[1])
    return _maps(plan, a, colours[0])


def _proof_plan(b: Graph, cb: list) -> tuple:
    """The plan of a colour-preserving map from b: b's vertices, rare
    colours first, each keyed by its colour. A step with no placed
    neighbour would branch over its whole colour class, so such a vertex
    swaps places with the first later one that has a placed neighbour, if
    any. It depends on b alone, so one plan serves every test against b."""
    sizes: dict = {}
    for c in cb:
        sizes[c] = sizes.get(c, 0) + 1
    order = sorted(range(b.n), key=lambda v: (sizes[cb[v]], cb[v], v))
    placed = 0
    for i, v in enumerate(order):
        if placed and not b.adj[v] & placed:
            j = next((j for j in range(i + 1, b.n) if b.adj[order[j]] & placed), i)
            order[i], order[j] = order[j], v
        placed |= 1 << order[i]
    return search_plan(b, order, cb)


def _maps(plan: tuple, a: Graph, ca: list) -> bool:
    """True iff the plan's graph has an isomorphism onto a that maps every
    vertex to one of the same colour: the induced search with each step's
    candidates drawn from a's class of the step's colour."""
    classes: dict = {}
    for w, c in enumerate(ca):
        classes[c] = classes.get(c, 0) | 1 << w
    cands = [classes.get(c, 0) for _, c, _ in plan]
    return place(a.adj, plan, cands, True, [0] * len(plan))


def _orbit_representatives(g: Graph) -> list[int]:
    """The least vertex of each orbit of Aut(g). Vertices x and v share an
    orbit iff some automorphism maps x to v. Twins (one open or one closed
    neighbourhood) do, by the swap of the two; otherwise a colour-preserving
    map decides, once x and v are pinned with a colour of their own (-1;
    signatures are never negative). Only vertices with one signature are
    compared, and each representative's pinned plan is built once."""
    colours = _signatures(g)
    adj = g.adj

    def pinned(x: int) -> list:
        out = colours.copy()
        out[x] = -1
        return out

    reps: list[int] = []
    plans: dict = {}
    for v, c in enumerate(colours):
        for x in reps:
            if colours[x] != c:
                continue
            if adj[x] & ~(1 << v) == adj[v] & ~(1 << x):
                break
            if x not in plans:
                plans[x] = _proof_plan(g, pinned(x))
            if _maps(plans[x], g, pinned(v)):
                break
        else:
            reps.append(v)
    return reps


def _dedupe(items, graph=lambda item: item) -> list:
    """The items, in order, whose ``graph(item)`` is the first of its
    isomorphism class: exact tests inside cheap-invariant buckets. Each
    graph's ``_signatures`` (one refinement round) key its bucket and
    steer the tests. A bucket keeps each representative with its
    signatures, and with its proof plan once a test has needed one; a
    test then builds only the candidate's colour classes. A bucket may
    hold several classes, since one round does not split every pair, so a
    test can fail; each dropped duplicate still costs exactly one True
    test, against its class's representative."""
    buckets: dict = {}
    out = []
    for item in items:
        g = graph(item)
        colours = _signatures(g)
        bucket = buckets.setdefault(invariant_key(g, colours), [])
        for entry in bucket:
            rep, seen, plan = entry
            if plan is None:
                entry[2] = plan = _proof_plan(rep, seen)
            if is_isomorphic(g, rep, (colours, seen), plan):
                break
        else:
            bucket.append([g, colours, None])
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
    items = [(g, ()) for g in members]
    if h is not None:
        removals = [(v,) for v in range(h.n)]
        if origin == ORIGIN_MINUS_EBAR:
            removals += missing_edges(h)
        for removed in removals:
            sub = induced_subgraph(h, (u for u in range(h.n) if u not in removed))
            items.append((sub.graph, sub.vertices))
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


def _minimal(members: tuple[Graph, ...]) -> tuple[Graph, ...]:
    """The members that hold no other member as a subgraph, by increasing
    (order, size). A member holds only members of at most its order and
    size, which sort before it, so each is tested against those kept
    before it, by ``detect.place`` in copy mode on each kept member's plan,
    made once (never ``is_isomorphic``, whose True calls the traced
    benchmark counts as level duplicates). A copy of a member holds a copy
    of a minimal one, so a graph holds some member exactly when it holds a
    minimal one."""
    kept: list[tuple[Graph, tuple]] = []
    for m in sorted(members, key=lambda g: (g.n, g.edge_count)):
        if not any(
            k.edge_count <= m.edge_count and place(m.adj, plan, (), False, [0] * k.n)
            for k, plan in kept
        ):
            kept.append((m, plan_embedding(m)))
    return tuple(m for m, _ in kept)


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
    the new vertex's neighbour mask, less those the twin rule and the degree
    rule of the module docstring skip: a mask is kept only if the new vertex
    gets the child's largest degree, which is O(1) per mask and keeps a
    child of every good class of the next level. The parent vertices
    outside the mask must hold no independent (t-1)-set, so these
    complements S are grown one vertex at a time: u joins S when S minus
    N(u) holds no independent (t-2)-set. With ``clique`` = r, masks that
    hold a K_{r-1} are skipped too, so no extension has a K_r."""
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
    # The degree rule: the new vertex takes the child's largest degree.
    # top is the parent's largest degree and tops its vertices of that degree.
    degrees = [row.bit_count() for row in adj]
    top = max(degrees, default=0)
    tops = sum(1 << v for v, d in enumerate(degrees) if d == top)
    for mask in sorted(full ^ s for s in sets):
        size = mask.bit_count()
        if size < top or size == top and mask & tops:
            continue
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
    # K_r members are left to _extensions' clique rule: the least r of the
    # whole family covers all. Of the rest, only minimal members are searched.
    cliques = [m for m in members if 2 * m.edge_count == m.n * (m.n - 1)]
    clique = min((m.n for m in cliques), default=None)
    plans = _anchored_plans(tuple(m for m in _minimal(members) if m not in cliques))

    survivors = [build(0, [])]
    for n in range(1, n_cap + 1):
        level = _dedupe(
            cand
            for parent in survivors
            for cand in _extensions(parent, t, clique)
            if _is_good(cand, plans)
        )
        if not level:
            lower = upper = n
            break
        survivors = level
    else:
        lower = n_cap + 1
        upper = _es_ramsey(t, min(m.n for m in members))
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
