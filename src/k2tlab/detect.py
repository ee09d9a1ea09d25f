"""Exact detectors: induced K_{2,t}, independent t-sets, subgraph copies
of a fixed pattern (anywhere, or through a given host vertex), and
maximum clique.

All searches are deterministic: candidates are explored in increasing
vertex order, so returned certificates are reproducible across runs and
platforms. Every certificate is checked against the host graph before it
is returned; a failed check raises ``SelfCheckError``.

Clique and independent-set searches share one kernel, ``_lex_set``. A
search for 3 or more vertices whose first branch fails stops as soon as a
greedy cover of the remaining candidates by pairwise incompatible classes
has fewer classes than the size asked for, so a search that must fail,
such as an independent 3-set among two cliques, can end after one linear
pass instead of trying every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, GraphError, bits

MAX_PATTERN_VERTICES = 10


class SelfCheckError(RuntimeError):
    """A certificate failed its own re-check against the host graph: a
    defect in k2tlab, never in the input. The checks are explicit, so they
    also run under ``python -O``."""


def require(ok: bool, what: str) -> None:
    """Raise ``SelfCheckError`` naming ``what`` unless ``ok``."""
    if not ok:
        raise SelfCheckError(f"self-check failed: {what}")


@dataclass(frozen=True)
class InducedK2tCertificate:
    """An induced K_{2,t}: non-adjacent a, b plus an independent t-side,
    every t-side vertex adjacent to both a and b."""

    a: int
    b: int
    t_side: frozenset[int]

    def check(self, g: Graph) -> bool:
        if not (0 <= self.a < g.n and 0 <= self.b < g.n) or self.a == self.b:
            return False
        if g.has_edge(self.a, self.b):
            return False
        if self.a in self.t_side or self.b in self.t_side:
            return False
        side = sorted(self.t_side)
        for i, u in enumerate(side):
            if not (0 <= u < g.n):
                return False
            if not (g.has_edge(self.a, u) and g.has_edge(self.b, u)):
                return False
            for v in side[i + 1 :]:
                if g.has_edge(u, v):
                    return False
        return True


@dataclass(frozen=True)
class Embedding:
    """A (not necessarily induced) copy of ``pattern`` in a host graph;
    ``mapping[i]`` is the host vertex carrying pattern vertex i."""

    pattern: Graph
    mapping: tuple[int, ...]

    def check(self, host: Graph) -> bool:
        if len(self.mapping) != self.pattern.n:
            return False
        if len(set(self.mapping)) != self.pattern.n:
            return False
        if any(not 0 <= w < host.n for w in self.mapping):
            return False
        for u, v in self.pattern.edges():
            if not host.has_edge(self.mapping[u], self.mapping[v]):
                return False
        return True


def _lex_set(adj: Sequence[int], universe: int, size: int, flip: int) -> Optional[int]:
    """The search kernel: the lexicographically least set of exactly
    ``size`` vertices inside ``universe`` that is a clique (``flip`` = 0) or
    an independent set (``flip`` = -1) of ``adj``, as a bitmask, or None.

    XOR with -1 complements a row, so both searches recurse on the same
    candidate masks without building complement rows. Sizes 1 and 2 are
    leaves: the least vertex, or the first ``low`` whose compatible later
    vertices ``rest`` are not empty together with the least of them, which
    saves one call per candidate at the deepest level.

    From size 3 up, once the branch on the least candidate has failed, the
    remaining candidates are split greedily into classes of pairwise
    incompatible vertices (cliques when ``flip`` = -1, independent sets
    when ``flip`` = 0), one AND per vertex. A compatible set meets each
    class at most once, so fewer than ``size`` classes means no set is
    left and the search stops. Searches that succeed on their first
    branch never build the cover, which would slow them.
    """
    if size <= 0:
        return 0
    cand = universe
    if size == 1:
        return (cand & -cand) or None
    if size == 2:
        while cand:
            low = cand & -cand
            cand ^= low
            rest = cand & (adj[low.bit_length() - 1] ^ flip)
            if rest:
                return low | (rest & -rest)
        return None
    covered = False
    while cand:
        if cand.bit_count() < size:
            return None
        low = cand & -cand
        cand ^= low
        sub = _lex_set(adj, cand & (adj[low.bit_length() - 1] ^ flip), size - 1, flip)
        if sub is not None:
            return low | sub
        if not covered:
            covered = True
            if _fewer_classes(adj, cand, size, ~flip):
                return None
    return None


def _fewer_classes(adj: Sequence[int], cand: int, size: int, clash: int) -> bool:
    """True iff the greedy split of ``cand`` into classes of pairwise
    incompatible vertices, where v clashes with the vertices of
    ``adj[v] ^ clash``, ends with fewer than ``size`` classes. Each class
    starts at the least vertex left and keeps only what clashes with every
    vertex taken into it so far."""
    classes = 0
    while cand:
        classes += 1
        if classes >= size:
            return False
        avail = cand
        while avail:
            low = avail & -avail
            cand ^= low
            avail = (avail ^ low) & (adj[low.bit_length() - 1] ^ clash)
    return True


def _independent_set_mask(g: Graph, universe: int, t: int) -> Optional[int]:
    """Lex-least independent t-set of ``g`` inside ``universe``, as a mask."""
    return _lex_set(g.adj, universe, t, -1)


def find_independent_set(g: Graph, t: int) -> Optional[frozenset[int]]:
    """Lexicographically least independent set of exactly t vertices.

    Returns None when no independent t-set exists (in particular when
    t > n). Requires t >= 1.
    """
    if t < 1:
        raise GraphError(f"independent-set size must be >= 1, got {t}")
    if t > g.n:
        return None
    mask = _independent_set_mask(g, g.full_mask, t)
    if mask is None:
        return None
    result = frozenset(bits(mask))
    require(
        len(result) == t
        and all(not g.has_edge(u, v) for u in result for v in result if u < v),
        "find_independent_set: not an independent t-set",
    )
    return result


def find_induced_k2t(g: Graph, t: int) -> Optional[InducedK2tCertificate]:
    """Search for an induced K_{2,t}: a non-adjacent pair whose common
    neighbourhood contains an independent t-set.

    Returns the first one in lexicographic order of the pair (a, b), a < b,
    with the lex-least t-side of that pair (see ``mask_has_induced_k2t``).
    Requires t >= 2.
    """
    if t < 2:
        raise GraphError(f"induced K_(2,t) needs t >= 2, got {t}")
    found = mask_has_induced_k2t(g.adj, g.n, t)
    if found is None:
        return None
    a, b, side = found
    cert = InducedK2tCertificate(a=a, b=b, t_side=frozenset(bits(side)))
    require(cert.check(g), "find_induced_k2t: invalid certificate")
    return cert


def max_clique(g: Graph) -> frozenset[int]:
    """A maximum clique, lexicographically least among those of maximum
    size. Branch and bound with a greedy-colouring upper bound."""
    if g.n == 0:
        raise GraphError("max_clique undefined on the empty graph")
    best = _max_clique_size(g.adj, g.full_mask)
    mask = _lex_set(g.adj, g.full_mask, best, 0)
    clique = frozenset(bits(mask or 0))
    require(
        len(clique) == best
        and all(g.has_edge(u, v) for u in clique for v in clique if u < v),
        "max_clique: not a clique of the maximum size",
    )
    return clique


def _max_clique_size(masks: Sequence[int], universe: int) -> int:
    """Exact clique number of the subgraph induced on ``universe``."""
    best = 0

    def colour_order(cand: int) -> list[tuple[int, int]]:
        # Greedy colouring into independent classes; a clique meets each
        # class at most once, so the class index bounds the clique size.
        order = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append((v, colour))
                avail &= ~masks[v]
                avail ^= low
                rest ^= low
        return order

    def expand(cand: int, size: int):
        nonlocal best
        order = colour_order(cand)
        for v, colour in reversed(order):
            if size + colour <= best:
                return
            if size + 1 > best:
                best = size + 1
            nxt = cand & masks[v]
            if nxt:
                expand(nxt, size + 1)
            cand ^= 1 << v

    if universe:
        expand(universe, 0)
    return best


def plan_embedding(h: Graph, first: Optional[int] = None) -> tuple:
    """The search plan for embedding ``h``: one step per pattern vertex,
    ``first`` (when given) and then the rest by descending degree, each step
    holding (vertex, degree, neighbours placed by earlier steps)."""
    order = sorted(range(h.n), key=lambda v: (v != first, -h.degree(v), v))
    position = {v: i for i, v in enumerate(order)}
    return tuple(
        (v, h.degree(v), tuple(u for u in bits(h.adj[v]) if position[u] < position[v]))
        for v in order
    )


def _embed(
    adj: Sequence[int],
    full: int,
    plan: tuple,
    i: int,
    image: list,
    used: int,
    first: Optional[int] = None,
) -> bool:
    """The embedding kernel: place steps i.. of ``plan`` on unused host
    vertices (``first``, when given, bounds the choices for step i), each
    adjacent to the images of its placed neighbours and of at least its
    pattern degree. True with the copy left in ``image``, else False."""
    if i == len(plan):
        return True
    v, dv, placed = plan[i]
    cand = ~used & full if first is None else first
    for u in placed:
        cand &= adj[image[u]]
    while cand:
        low = cand & -cand
        cand ^= low
        w = low.bit_length() - 1
        if adj[w].bit_count() < dv:
            continue
        image[v] = w
        if _embed(adj, full, plan, i + 1, image, used | low):
            return True
    return False


def embeds_at(g: Graph, plan: tuple, w: int) -> bool:
    """True iff ``g`` holds a copy of the planned pattern that maps the
    plan's first vertex to host vertex ``w``."""
    return _embed(g.adj, g.full_mask, plan, 0, [-1] * len(plan), 0, 1 << w)


def contains_subgraph(g: Graph, h: Graph) -> Optional[Embedding]:
    """First embedding of ``h`` into ``g`` as a (not necessarily induced)
    subgraph, or None. Backtracking ordered by descending pattern degree.

    Patterns are capped at 10 vertices (hard error beyond).
    """
    if h.n > MAX_PATTERN_VERTICES:
        raise GraphError(
            f"pattern has {h.n} vertices; contains_subgraph caps at "
            f"{MAX_PATTERN_VERTICES}"
        )
    if h.n > g.n or h.edge_count > g.edge_count:
        return None
    image = [-1] * h.n
    if _embed(g.adj, g.full_mask, plan_embedding(h), 0, image, 0):
        emb = Embedding(pattern=h, mapping=tuple(image))
        require(emb.check(g), "contains_subgraph: invalid embedding")
        return emb
    return None


def contains_family_member(
    g: Graph, family: Sequence[Graph]
) -> Optional[Embedding]:
    """First embedding over the family, members tried in the given order."""
    if not family:
        raise GraphError("family must be non-empty")
    for member in family:
        emb = contains_subgraph(g, member)
        if emb is not None:
            return emb
    return None


# ---------------------------------------------------------------------------
# Mask-level fast paths for the exhaustive verification suites. These
# operate on raw adjacency lists (possibly mutated in place by streaming
# enumerators) and avoid Graph-object overhead.
# ---------------------------------------------------------------------------


def mask_has_induced_k2t(
    adj: Sequence[int], n: int, t: int
) -> Optional[tuple[int, int, int]]:
    """The only induced-K_{2,t} scan, on a raw adjacency list: the first
    non-adjacent pair (a, b), a < b in lexicographic order, whose common
    neighbourhood holds an independent t-set, as (a, b, lex-least t-side
    mask); None when the graph has no induced K_{2,t}.

    For t >= 2 a partner b needs at least two common neighbours with a, so
    the partners of a are cut by ``later_partners``; the pairs dropped
    could never qualify, so the first hit is unchanged."""
    full = (1 << n) - 1
    for a in range(n - 1):
        na = adj[a]
        non = later_partners(adj, full, a, t >= 2)
        while non:
            low = non & -non
            non ^= low
            b = low.bit_length() - 1
            common = na & adj[b]
            if common.bit_count() >= t:
                side = _lex_set(adj, common, t, -1)
                if side is not None:
                    return a, b, side
    return None


def later_partners(adj: Sequence[int], full: int, u: int, cut: bool) -> int:
    """The non-neighbours of u above u, the partners of u in a pair scan;
    with ``cut``, where only partners with two or more common neighbours
    can count, cut to ``two_common_neighbours`` of N(u). That mask costs
    one row visit per neighbour of u and saves one per dropped partner, so
    it is built only when u has more partners than neighbours: sparse
    hosts such as the polarity graphs skip most pairs, while dense hosts
    and K_n pay nothing."""
    row = adj[u]
    non = ~row & full & ~((1 << (u + 1)) - 1)
    if cut and non.bit_count() > row.bit_count():
        non &= two_common_neighbours(adj, row)
    return non


def two_common_neighbours(adj: Sequence[int], row: int) -> int:
    """The vertices adjacent to at least two vertices of ``row``: with
    ``row`` the neighbourhood of a, those with two or more common
    neighbours with a (a itself included when it has two neighbours).
    Two ORs per vertex of ``row``: ``once`` collects the vertices seen in
    some neighbour's row, ``twice`` those seen again."""
    once = twice = 0
    while row:
        low = row & -row
        row ^= low
        nbrs = adj[low.bit_length() - 1]
        twice |= once & nbrs
        once |= nbrs
    return twice


def _mask_lex_independent_tset(
    adj: Sequence[int], universe: int, t: int
) -> Optional[int]:
    """Lex-least independent t-set inside ``universe`` as a mask, on a raw
    adjacency list; None when no such set exists."""
    return _lex_set(adj, universe, t, -1)


def mask_has_clique(adj: Sequence[int], universe: int, size: int) -> bool:
    """True iff a clique of ``size`` vertices exists inside ``universe``."""
    return _lex_set(adj, universe, size, 0) is not None
