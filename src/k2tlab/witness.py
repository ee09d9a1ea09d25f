"""Constructive tracer for the missing-edge averaging argument.

For a host graph G and target subgraph H, the engine computes per-vertex
packings of disjoint independent t-sets inside each neighbourhood, the
missing-edge ledgers they force, the averaging (pigeonhole) choice of a
missing edge with a large common neighbourhood S, and finally either

  * an embedding of H (a member of {H - x} inside S, extended by an
    endpoint of the missing edge),
  * an induced K_{2,t} certificate (an independent t-set inside S plus
    the two endpoints), or
  * a quantitative hypothesis-not-met report (|S|, the Ramsey threshold
    it would need, and beta^2 n).

Every certificate can be re-validated from scratch with verify_trace.

``ledger`` builds all per-vertex entries in one pass. m_v is
C(d_v, 2) - e(N(v)). Under one cost rule, ``_stacked_pays`` (all but
the sparsest hosts up to about a hundred vertices, and dense ones up to
n = 336), e(N(v)) comes from the
*stacked adjacency*, the rows of G packed into one int, row w in bits
[n w, n w + n): the *neighbourhood cells* of v, the cells (w, u) of that
grid with w and u in N(v), take a few big-int operations, and the edges
inside N(v) are half the set bits of the stack among them. On larger
sparse hosts (ER_11, ER_13) it comes from one sweep over the edges (each
edge uw adds |N(u) & N(w)| at both ends, which sums to twice the edges
inside each neighbourhood). gamma_v comes from one increasing scan of
N(v): each vertex either starts the next part, with the lex-least
independent (t - 1)-set among its later non-neighbours still free, or is
passed over for good, since no t-set can start at it any more; when G
itself holds no independent t-set, no neighbourhood does, so one search on
the whole vertex set sets every gamma_v to 0 and no scan runs. Both give
exactly what ``missing_pairs`` and ``greedy_packing`` give vertex by
vertex; those stay as the plain per-vertex oracles. The entries are
slotted and built by a trusted constructor.

``pigeonhole_edge`` takes, under the same rule, the sum of the same cells:
cell (u, w) of it is |N(u) & N(w)|, added up by ``bitslice.count_digits``
and maximised over the non-adjacent cells by ``bitslice.count_top``.
Otherwise it scans the pairs and skips the partners with fewer than two
common neighbours once a pair with one is known, as they can no longer
win. ``extract`` builds the cells once for both.

``verify_trace`` compares the ledger column by column with a direct
recount of every m_v as the non-adjacent pairs of N(v): under the same
rule from the stacked complement (every cell, less the stack and the
diagonal), otherwise with ``missing_pairs``, so its count never goes
through C(d_v, 2) - e(N(v)).

``extract`` builds one trace. A complete host returns early as
boundary-degenerate; otherwise one if/elif chain picks the outcome and
its certificate (an independent t-set in S first; the family {H - x} is
needed only when that search fails), one self-check covers whichever
certificate was found, and one ``ProofTrace`` is returned. S is searched
in place on the host rows, with every step cut to S, so no copy of G[S]
is made. {H - x} is built at most once per H: ``extract``,
``verify_trace`` and the cached Ramsey threshold R(K_t, {H - x}) share it
through ``_family``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Sequence, Union

from . import bitslice, detect
from .bounds import beta
from .detect import Embedding, InducedK2tCertificate
from .graphs import Graph, GraphError, bits, density
from .ramsey import GraphFamily, RamseyQuery, family_minus_vertex, ramsey_exact

OUTCOME_H_EMBEDDED = "h-embedded"
OUTCOME_INDUCED_K2T = "induced-k2t-found"
OUTCOME_HYPOTHESIS_NOT_MET = "hypothesis-not-met"
OUTCOME_BOUNDARY_DEGENERATE = "boundary-degenerate"


class BoundaryDegenerateError(ValueError):
    """The graph is complete: there is no missing edge to average over."""


@dataclass(frozen=True)
class Packing:
    """Pairwise disjoint independent t-sets inside the neighbourhood of v;
    maximal, so the residual neighbourhood holds no further t-set."""

    v: int
    parts: tuple[frozenset[int], ...]

    @property
    def gamma(self) -> int:
        return len(self.parts)


@dataclass(frozen=True, slots=True)
class VertexLedger:
    v: int
    degree: int
    m_v: int
    gamma_v: int
    q_of_gamma: int


_SET_V, _SET_DEGREE, _SET_M, _SET_GAMMA, _SET_Q = (
    getattr(VertexLedger, f.name).__set__ for f in fields(VertexLedger)
)


def _trusted_entry(v: int, degree: int, m_v: int, gamma_v: int, q_of_gamma: int) -> VertexLedger:
    """A ledger entry with its slots set directly, as ``Graph._trusted``
    does, past the frozen ``__init__``: only for ``ledger``, whose values
    are right by construction."""
    entry = object.__new__(VertexLedger)
    _SET_V(entry, v)
    _SET_DEGREE(entry, degree)
    _SET_M(entry, m_v)
    _SET_GAMMA(entry, gamma_v)
    _SET_Q(entry, q_of_gamma)
    return entry


@dataclass(frozen=True)
class SlackInfo:
    """How far the run sat from the applicability frontier. On
    hypothesis-not-met, ``ramsey_threshold`` is R(K_t, {H - x}), of
    ``threshold_kind`` "exact" or, when the search only brackets it,
    "upper-bound"."""

    s_size: int
    beta_sq_n: float
    ramsey_threshold: Optional[int] = None
    threshold_kind: Optional[str] = None


@dataclass(frozen=True)
class ProofTrace:
    t: int
    ledgers: tuple[VertexLedger, ...]
    selected_edge: Optional[tuple[int, int]]
    s_vertices: Optional[frozenset[int]]
    outcome: str
    certificate: Optional[Union[Embedding, InducedK2tCertificate]]
    slack: Optional[SlackInfo]


def forced_missing_edges(gamma: int, t: int) -> int:
    """q(gamma) = (t-1)/2 * gamma * (gamma + t - 1): the missing edges a
    gamma-packing forces inside a neighbourhood when no induced K_{2,t}
    is present (always an integer)."""
    return (t - 1) * gamma * (gamma + t - 1) // 2


def greedy_packing(g: Graph, v: int, t: int) -> Packing:
    """Maximal packing built by repeatedly extracting the lexicographically
    least independent t-set from what remains of the neighbourhood."""
    if t < 2:
        raise GraphError(f"need t >= 2, got t={t}")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range for n={g.n}")
    residual = g.adj[v]
    parts = []
    while True:
        mask = detect._independent_set_mask(g, residual, t)
        if mask is None:
            break
        parts.append(frozenset(bits(mask)))
        residual &= ~mask
    return Packing(v=v, parts=tuple(parts))


def missing_pairs(adj: Sequence[int], subset: int) -> int:
    """Non-adjacent pairs among the vertices of ``subset``: m_v of the
    ledger when ``subset`` is the neighbourhood of v, in deg(v) steps of one
    popcount each. ``verify_trace`` recounts m_v with it on the hosts where
    the stacked adjacency does not pay (``_stacked_pays``), and it is the
    per-vertex oracle of the tests."""
    missing = 0
    rest = subset
    while rest:
        low = rest & -rest
        rest ^= low
        missing += (rest & ~adj[low.bit_length() - 1]).bit_count()
    return missing


def _stacked_pays(g: Graph) -> bool:
    """The cost rule for the pairs of every neighbourhood: the counts that
    ``ledger`` and ``verify_trace`` take and the averaging edge of
    ``pigeonhole_edge``, all from the stacked adjacency or all by loops.
    Stacked, a host costs a small fixed part and the products c * N(v) of
    ``_neighbourhood_cells``, about n^3 / 900 digit multiplications a
    vertex; by loops it costs a step per edge in the sweep of
    ``_edges_inside`` and in ``missing_pairs`` and a step per pair in the
    averaging scan. Fitted to G(n, p) at n = 10..640 (BENCH_29.json), the
    stacked way is taken when n^4 + 10^6 <= 180,000 E + 70 n^3: on every
    host with 30 <= n <= 66, on all but the sparsest below, on dense hosts
    above, and not on large sparse ones such as ER_11 and ER_13. As
    E <= n (n - 1) / 2, it never holds past n = 336, so the cells, n^3
    bits in all, stay under 5 MB. The product's cost is a step function in
    ceil(n / 30) that the smooth n^4 only approximates, so the rule misses
    where it sits low: G(200, 0.2) and G(280, 0.5) take the loops at about
    1.2x and 1.1x the stacked time."""
    n = g.n
    return n**4 + 10**6 <= 180_000 * g.edge_count + 70 * n**3


def _stack(g: Graph) -> int:
    """The stacked adjacency: row w of g in bits [n w, n w + n) of one int,
    shifted in row by row (below n = 100 several times faster than
    formatting the rows as one binary string)."""
    stack = 0
    for row in reversed(g.adj):
        stack = stack << g.n | row
    return stack


def _spaced(n: int, gap: int) -> int:
    """Bit gap w set for every w < n: the n-digit repunit 11...1 in base
    2^gap, (2^(gap n) - 1) / (2^gap - 1)."""
    return ((1 << gap * n) - 1) // ((1 << gap) - 1) if n else 0


def _neighbourhood_cells(g: Graph) -> tuple[int, list[int]]:
    """The stack and, for each vertex v, the cells (w, u) of the stacked
    grid (bit n w + u) with w and u both in N(v); each pair of N(v) owns
    two of them. Column v of the stack puts bit v of row w at bit n w, so c
    has bit n w set for each w in N(v), and c * N(v) copies N(v) into those
    blocks: the set bits of c are n apart and N(v) < 2^n, so nothing
    carries. The product takes ceil(n / 30) passes over c (30-bit digits),
    at most 12 where ``_stacked_pays`` holds; below n = 100 it beats a
    shift-OR doubling of N(v) masked by c's blocks, which takes about
    log2(n) more big-int operations a vertex. On those hosts the cells of
    every vertex together take at most n^3 bits, under 5 MB."""
    n = g.n
    stack = _stack(g)
    ones = _spaced(n, n)
    return stack, [((stack >> v) & ones) * row for v, row in enumerate(g.adj)]


# The stack and the neighbourhood cells, or None where the loops run.
_Stacked = Optional[tuple[int, list[int]]]


def _stacked(g: Graph) -> _Stacked:
    """``_neighbourhood_cells`` where ``_stacked_pays``, else None."""
    return _neighbourhood_cells(g) if _stacked_pays(g) else None


def _non_edge_cells(n: int, stack: int) -> int:
    """The cells (u, w) of the stacked grid with u != w not adjacent: every
    cell, less the stack and the diagonal."""
    return ((1 << n * n) - 1) ^ stack ^ _spaced(n, n + 1)


def _edges_inside(g: Graph, stacked: _Stacked) -> list[int]:
    """e(N(v)) for every v. From the ``stacked`` cells, the edges inside
    N(v) are the set cells of the stack among v's cells, each counted from
    both ends. Without them (None) each edge wv inside N(v) is counted once
    from each end by |N(v) & N(w)| summed over the neighbours w of v, so
    one sweep over the edges uw, u < w, adding |N(u) & N(w)| to both ends,
    leaves 2 e(N(v)) at every v: E popcounts instead of 2E."""
    if stacked is not None:
        stack, cells = stacked
        return [(stack & c).bit_count() // 2 for c in cells]
    adj = g.adj
    inside = [0] * g.n
    for v, row in enumerate(adj):
        total = 0
        later = row >> (v + 1)  # bit i is vertex v + 1 + i
        while later:
            low = later & -later
            later ^= low
            w = low.bit_length() + v
            common = (row & adj[w]).bit_count()
            total += common
            inside[w] += common
        inside[v] += total
    return [twice // 2 for twice in inside]


def _missing_inside(g: Graph) -> list[int]:
    """m_v for every v, counted directly: when ``_stacked_pays``, the
    non-adjacent pairs of N(v) are the ``_non_edge_cells`` among v's cells,
    each met twice; otherwise ``missing_pairs`` on each neighbourhood."""
    stacked = _stacked(g)
    if stacked is None:
        return [missing_pairs(g.adj, row) for row in g.adj]
    stack, cells = stacked
    non_edges = _non_edge_cells(g.n, stack)
    return [(non_edges & c).bit_count() // 2 for c in cells]


def ledger(g: Graph, t: int) -> list[VertexLedger]:
    """Per-vertex degree, missing-edge count inside the neighbourhood,
    greedy packing size, and its q lower bound; the same entries as
    ``greedy_packing`` and ``missing_pairs`` give vertex by vertex.

    m_v is C(d_v, 2) - e(N(v)), with e(N(v)) from ``_edges_inside``: the
    stacked adjacency on dense hosts, one sweep over the edges on sparse or
    large ones (``_stacked_pays``).

    gamma_v is the size of the greedy packing, built in one increasing scan
    of the residual of N(v). Each vertex u of it either starts the next
    part, with the lex-least independent (t - 1)-set among its later
    non-neighbours in the residual (for t = 2 the least such vertex), or
    leaves the residual for good. The lex-least independent t-set of the
    residual starts at the least vertex that starts any, and a vertex that
    starts none never will, since the residual only shrinks, so each part
    is the one a fresh search would take. One search on the whole vertex
    set comes first: an independent t-set inside N(v) is one of G, so when
    G has none every gamma_v is 0 without a scan (the co-bipartite hosts
    at t = 3, two cliques with alpha(G) = 2).
    """
    return _ledger(g, t, _stacked(g))


def _ledger(g: Graph, t: int, stacked: _Stacked) -> list[VertexLedger]:
    """``ledger`` with the ``_stacked`` cells given."""
    if t < 2:
        raise GraphError(f"need t >= 2, got t={t}")
    adj = g.adj
    inside = _edges_inside(g, stacked)
    lex_set = detect._lex_set
    packs = lex_set(adj, g.full_mask, t, -1) is not None
    out = []
    for v, row in enumerate(adj):
        gamma = 0
        rest = row if packs else 0
        # Fewer than t vertices left hold no part; the count pays from t = 3.
        while rest and (t == 2 or rest.bit_count() >= t):
            low = rest & -rest
            rest ^= low
            free = rest & ~adj[low.bit_length() - 1]
            part = free & -free if t == 2 else lex_set(adj, free, t - 1, -1)
            if part:
                gamma += 1
                rest ^= part
        degree = row.bit_count()
        out.append(
            _trusted_entry(
                v,
                degree,
                degree * (degree - 1) // 2 - inside[v],
                gamma,
                forced_missing_edges(gamma, t),
            )
        )
    return out


def pigeonhole_edge(
    g: Graph, ledgers: list[VertexLedger]
) -> tuple[tuple[int, int], frozenset[int]]:
    """The missing edge whose common neighbourhood S is largest (ties:
    lexicographically least edge). Averaging guarantees
    |S| * |M| >= sum m_v, which is checked exactly; |M| = C(n, 2) - e(G).

    Where ``_stacked_pays``, cell (u, w) of the sum of the neighbourhood
    cells of every vertex holds |N(u) & N(w)|: ``bitslice.count_digits``
    adds them up, ``bitslice.count_top`` finds the largest count over the
    non-adjacent cells and the cells that hold it, and the lowest of those,
    n u + w, is the least such pair, with u < w since the grid is
    symmetric. Elsewhere the pairs are scanned in order; once the best pair
    has |S| >= 1, only a pair with a strictly larger S, so at least two
    common neighbours, can replace it, and the partners of u are cut by
    ``detect.later_partners``, as in the induced K_{2,t} scan."""
    edge, common = _averaging_edge(g, ledgers, _stacked(g))
    return edge, frozenset(bits(common))


def _averaging_edge(
    g: Graph, ledgers: Sequence[VertexLedger], stacked: _Stacked
) -> tuple[tuple[int, int], int]:
    """``pigeonhole_edge`` with the ``_stacked`` cells given, S as a mask."""
    adj = g.adj
    n = g.n
    if stacked is not None:
        stack, cells = stacked
        among = _non_edge_cells(n, stack)
        best_size, at = bitslice.count_top(bitslice.count_digits(cells), among)
        best_edge = divmod((at & -at).bit_length() - 1, n) if at else None
    else:
        full = g.full_mask
        best_edge = None
        best_size = -1
        for u in range(n):
            row = adj[u]
            partners = detect.later_partners(adj, full, u, best_size >= 1)
            while partners:
                low = partners & -partners
                partners ^= low
                w = low.bit_length() - 1
                size = (row & adj[w]).bit_count()
                if size > best_size:
                    best_edge = (u, w)
                    best_size = size
    if best_edge is None:
        raise BoundaryDegenerateError(
            "complete graph: the averaging step needs a missing edge"
        )
    missing_total = n * (n - 1) // 2 - g.edge_count
    detect.require(
        best_size * missing_total >= sum(entry.m_v for entry in ledgers),
        "averaging: |S| * |M| < sum m_v",
    )
    u, w = best_edge
    return best_edge, adj[u] & adj[w]


@lru_cache(maxsize=None)
def _family(h: Graph) -> GraphFamily:
    """{H - x}, built at most once per H for ``extract``, ``verify_trace``
    and ``_family_threshold``."""
    return family_minus_vertex(h)


@lru_cache(maxsize=None)
def _family_threshold(t: int, h: Graph) -> tuple[int, str]:
    """R(K_t, {H - x}) as an exact repo value when the search resolves,
    else the certified upper end of its bracket."""
    result = ramsey_exact(RamseyQuery(t=t, family=_family(h)))
    if result.exact is not None:
        return result.exact, "exact"
    return result.upper, "upper-bound"


def extract(g: Graph, h: Graph, t: int) -> ProofTrace:
    """Run the full constructive argument on (g, h, t).

    All failure modes are outcome tags, never exceptions: a complete host
    is boundary-degenerate, and a common neighbourhood too small to force
    anything yields hypothesis-not-met with the quantitative slack. {H - x}
    comes from the per-H cache ``_family``, which ``verify_trace`` shares,
    so a run over many hosts with one H builds it once. The ``_stacked``
    cells are built once for the ledger and the averaging edge, and S is
    searched in place on the host rows, never copied out.
    """
    if t < 2:
        raise GraphError(f"need t >= 2, got t={t}")
    if not 2 <= h.n <= detect.MAX_PATTERN_VERTICES:
        raise GraphError(
            f"h must have 2..{detect.MAX_PATTERN_VERTICES} vertices, got {h.n}"
        )
    stacked = _stacked(g)
    ledgers = tuple(_ledger(g, t, stacked))
    try:
        edge, s = _averaging_edge(g, ledgers, stacked)
    except BoundaryDegenerateError:
        return ProofTrace(t, ledgers, None, None, OUTCOME_BOUNDARY_DEGENERATE, None, None)
    a, b = edge
    side = detect._lex_set(g.adj, s, t, -1)
    threshold = kind = None
    if side is not None:
        outcome = OUTCOME_INDUCED_K2T
        cert = InducedK2tCertificate(a=a, b=b, t_side=frozenset(bits(side)))
    elif (cert := _lift_member(g, s, h, a)) is not None:
        outcome = OUTCOME_H_EMBEDDED
    else:
        outcome = OUTCOME_HYPOTHESIS_NOT_MET
        threshold, kind = _family_threshold(t, h)
    detect.require(cert is None or cert.check(g), f"extract: invalid {outcome} certificate")
    beta_sq_n = beta(density(g).alpha, t).beta ** 2 * g.n
    s_vertices = frozenset(bits(s))
    slack = SlackInfo(len(s_vertices), beta_sq_n, threshold, kind)
    return ProofTrace(t, ledgers, edge, s_vertices, outcome, cert, slack)


def _lift_member(g: Graph, s: int, h: Graph, a: int) -> Optional[Embedding]:
    """H in the host: the first member of {H - x} found in S (the mask
    ``s``, searched in place), with x mapped to ``a``, the lesser endpoint
    of the missing edge (both endpoints see all of S); None when S holds no
    member. The family is first needed here, after the independent t-set
    search has failed."""
    family = _family(h)
    emb = detect.contains_family_member(g, family.members, s)
    if emb is None:
        return None
    prov = family.provenance[family.members.index(emb.pattern)]
    mapping = [a] * h.n
    for j, original in enumerate(prov.kept):
        mapping[original] = emb.mapping[j]
    return Embedding(pattern=h, mapping=tuple(mapping))


def verify_trace(g: Graph, trace: ProofTrace, h: Graph, t: int) -> bool:
    """Re-validate a trace from scratch against g using only detector
    primitives and direct recounts. True iff everything checks out. The
    ledger is compared column by column with the degrees, the direct
    recount of m_v (``_missing_inside``) and q(gamma_v). The slack must be
    the one ``extract`` reports: |S| and beta^2 n recomputed from g, with
    R(K_t, {H - x}) and its kind on hypothesis-not-met only, and no slack
    at all on boundary-degenerate."""
    entries = trace.ledgers
    if trace.t != t or [entry.v for entry in entries] != list(range(g.n)):
        return False
    degrees = [row.bit_count() for row in g.adj]
    gammas = [entry.gamma_v for entry in entries]
    if (
        [entry.degree for entry in entries] != degrees
        or [entry.m_v for entry in entries] != _missing_inside(g)
        or [entry.q_of_gamma for entry in entries]
        != [forced_missing_edges(gamma, t) for gamma in gammas]
        # gamma_v disjoint independent t-sets must fit in the neighbourhood.
        or any(gamma < 0 or gamma * t > degree for gamma, degree in zip(gammas, degrees))
    ):
        return False

    if trace.outcome == OUTCOME_BOUNDARY_DEGENERATE:
        return (
            trace.selected_edge is None
            and trace.slack is None
            and g.edge_count == g.n * (g.n - 1) // 2
        )

    if trace.selected_edge is None or trace.s_vertices is None:
        return False
    a, b = trace.selected_edge
    if not (0 <= a < g.n and 0 <= b < g.n) or a == b or g.has_edge(a, b):
        return False
    s = g.adj[a] & g.adj[b]
    if trace.s_vertices != frozenset(bits(s)):
        return False

    cert = trace.certificate
    threshold = (None, None)
    if trace.outcome == OUTCOME_H_EMBEDDED:
        if not (isinstance(cert, Embedding) and cert.pattern == h and cert.check(g)):
            return False
    elif trace.outcome == OUTCOME_INDUCED_K2T:
        if not (
            isinstance(cert, InducedK2tCertificate)
            and len(cert.t_side) == t
            and {cert.a, cert.b} == {a, b}
            and cert.t_side <= trace.s_vertices
            and cert.check(g)
        ):
            return False
    elif trace.outcome == OUTCOME_HYPOTHESIS_NOT_MET:
        if detect._lex_set(g.adj, s, t, -1) is not None:
            return False
        if detect.contains_family_member(g, _family(h).members, s) is not None:
            return False
        threshold = _family_threshold(t, h)
    else:
        return False
    beta_sq_n = beta(density(g).alpha, t).beta ** 2 * g.n
    return trace.slack == SlackInfo(len(trace.s_vertices), beta_sq_n, *threshold)
