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
C(d_v, 2) - e(N(v)). On dense hosts of up to a few hundred vertices
(n (n^3 + 10^6) <= 240,000 E, the one cost rule ``_stacked_pays``)
e(N(v)) comes from the *stacked adjacency*, the
rows of G packed into one int, row w in bits [n w, n w + n): the edges
inside N(v) are half the set bits of the stack in the blocks of the
neighbours of v, masked to the columns of N(v), a few big-int operations
per vertex. On large sparse hosts (the polarity graphs ER_q) it comes from
one sweep over the edges (each edge uw adds |N(u) & N(w)| at both ends,
which sums to twice the edges inside each neighbourhood). gamma_v comes
from one increasing scan of N(v): each vertex either starts the next part,
with the lex-least independent (t - 1)-set among its later non-neighbours
still free, or is passed over for good, since no t-set can start at it any
more; when G itself holds no independent t-set, no neighbourhood does, so
one search on the whole vertex set sets every gamma_v to 0 and no scan
runs. Both give exactly what ``missing_pairs`` and ``greedy_packing`` give
vertex by vertex; those stay as the plain per-vertex oracles.
``verify_trace`` recounts every m_v directly as the non-adjacent pairs of
N(v): under the same rule from the stacked complement (every cell, less
the stack and the diagonal), otherwise with ``missing_pairs``, so its
count never goes through C(d_v, 2) - e(N(v)).
``pigeonhole_edge`` skips the partners with fewer than two common
neighbours once a pair with one is known, as they can no longer win.

``extract`` builds one trace. A complete host returns early as
boundary-degenerate; otherwise one if/elif chain picks the outcome and
its certificate (an independent t-set in S first; the family {H - x} is
needed only when that search fails), one self-check covers whichever
certificate was found, and one ``ProofTrace`` is returned. {H - x} is
built at most once per H: ``extract``, ``verify_trace`` and the cached
Ramsey threshold R(K_t, {H - x}) share it through ``_family``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from . import detect
from .bounds import beta
from .detect import Embedding, InducedK2tCertificate
from .graphs import Graph, GraphError, InducedSubgraph, bits, density, induced_subgraph
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


@dataclass(frozen=True)
class VertexLedger:
    v: int
    degree: int
    m_v: int
    gamma_v: int
    q_of_gamma: int


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
    """The cost rule for counting the pairs inside every neighbourhood.
    From the stacked adjacency (``_neighbourhood_cells``) a vertex costs
    about 1 us of interpreter work plus the product c * N(v), about
    n^3 / 900 digit multiplications of about 1 ns each; vertex by vertex a
    host costs about 0.3 us a step, one step per edge in the sweep of
    ``_edges_inside`` and two in ``missing_pairs``. ``ledger`` and
    ``verify_trace`` run on the same hosts, so both take the stacked count
    when, fitted to G(n, p) at n = 10..640 (BENCH_24.json),
    n (n^3 + 10^6) <= 240,000 E: on dense hosts of up to a few hundred
    vertices, and not on sparse ones such as the polarity graphs ER_q, nor
    on G(20, 0.3). As E <= n (n - 1) / 2, it never holds past n = 341,
    where the product, n^3 a vertex, has outgrown the loops."""
    return g.n * (g.n**3 + 10**6) <= 240_000 * g.edge_count


def _stack(g: Graph) -> int:
    """The stacked adjacency: row w of g in bits [n w, n w + n) of one int."""
    n = g.n
    return int("".join(format(row, f"0{n}b") for row in reversed(g.adj)) or "0", 2)


def _spaced(n: int, gap: int) -> int:
    """Bit gap w set for every w < n."""
    return int("1".rjust(gap, "0") * n or "0", 2)


def _neighbourhood_cells(g: Graph, stack: int) -> Iterator[int]:
    """For each vertex v in turn, the cells (w, u) of the stacked grid
    (bit n w + u) with w and u both in N(v); each pair of N(v) owns two of
    them. Column v of the stack puts bit v of row w at bit n w, so c has
    bit n w set for each w in N(v), and c * N(v) copies N(v) into those
    blocks: the set bits of c are n apart and N(v) < 2^n, so nothing
    carries. The product takes ceil(n / 30) passes over c (30-bit digits),
    at most 12 where ``_stacked_pays`` holds; below n = 100 it beats a
    shift-OR doubling of N(v) masked by c's blocks, which takes about
    log2(n) more big-int operations a vertex."""
    n = g.n
    ones = _spaced(n, n)
    for v, row in enumerate(g.adj):
        yield ((stack >> v) & ones) * row


def _edges_inside(g: Graph) -> list[int]:
    """e(N(v)) for every v. When ``_stacked_pays``, the edges inside N(v)
    are the set cells of the stack among v's cells, each counted from both
    ends. Otherwise each edge wv inside N(v) is counted once from each end
    by |N(v) & N(w)| summed over the neighbours w of v, so one sweep over
    the edges uw, u < w, adding |N(u) & N(w)| to both ends, leaves
    2 e(N(v)) at every v: E popcounts instead of 2E."""
    if _stacked_pays(g):
        stack = _stack(g)
        return [(stack & cells).bit_count() // 2 for cells in _neighbourhood_cells(g, stack)]
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
    non-adjacent pairs of N(v) are the set cells of the stacked complement
    (every cell, less the stack and the diagonal) among v's cells, each met
    twice; otherwise ``missing_pairs`` on each neighbourhood."""
    if not _stacked_pays(g):
        return [missing_pairs(g.adj, row) for row in g.adj]
    n = g.n
    stack = _stack(g)
    complement = ((1 << n * n) - 1) ^ stack ^ _spaced(n, n + 1)
    return [(complement & cells).bit_count() // 2 for cells in _neighbourhood_cells(g, stack)]


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
    if t < 2:
        raise GraphError(f"need t >= 2, got t={t}")
    adj = g.adj
    inside = _edges_inside(g)
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
            VertexLedger(
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

    Once the best pair has |S| >= 1, only a pair with a strictly larger S,
    so at least two common neighbours, can replace it: the partners of u
    are then cut by ``detect.later_partners``, as in the induced K_{2,t}
    scan."""
    adj = g.adj
    full = g.full_mask
    best_edge = None
    best_common = 0
    best_size = -1
    missing_total = g.n * (g.n - 1) // 2 - g.edge_count
    for u in range(g.n):
        row = adj[u]
        partners = detect.later_partners(adj, full, u, best_size >= 1)
        while partners:
            low = partners & -partners
            partners ^= low
            w = low.bit_length() - 1
            common = row & adj[w]
            size = common.bit_count()
            if size > best_size:
                best_edge = (u, w)
                best_common = common
                best_size = size
    if best_edge is None:
        raise BoundaryDegenerateError(
            "complete graph: the averaging step needs a missing edge"
        )
    detect.require(
        best_size * missing_total >= sum(entry.m_v for entry in ledgers),
        "averaging: |S| * |M| < sum m_v",
    )
    return best_edge, frozenset(bits(best_common))


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
    so a run over many hosts with one H builds it once.
    """
    if t < 2:
        raise GraphError(f"need t >= 2, got t={t}")
    if not 2 <= h.n <= detect.MAX_PATTERN_VERTICES:
        raise GraphError(
            f"h must have 2..{detect.MAX_PATTERN_VERTICES} vertices, got {h.n}"
        )
    ledgers = tuple(ledger(g, t))
    try:
        edge, s_vertices = pigeonhole_edge(g, list(ledgers))
    except BoundaryDegenerateError:
        return ProofTrace(t, ledgers, None, None, OUTCOME_BOUNDARY_DEGENERATE, None, None)
    a, b = edge
    sub = induced_subgraph(g, s_vertices)
    t_set = detect.find_independent_set(sub.graph, t)
    threshold = kind = None
    if t_set is not None:
        outcome = OUTCOME_INDUCED_K2T
        cert = InducedK2tCertificate(
            a=a, b=b, t_side=frozenset(sub.to_parent(i) for i in t_set)
        )
    elif (cert := _lift_member(sub, h, a)) is not None:
        outcome = OUTCOME_H_EMBEDDED
    else:
        outcome = OUTCOME_HYPOTHESIS_NOT_MET
        threshold, kind = _family_threshold(t, h)
    detect.require(cert is None or cert.check(g), f"extract: invalid {outcome} certificate")
    beta_sq_n = beta(density(g).alpha, t).beta ** 2 * g.n
    slack = SlackInfo(len(s_vertices), beta_sq_n, threshold, kind)
    return ProofTrace(t, ledgers, edge, s_vertices, outcome, cert, slack)


def _lift_member(sub: InducedSubgraph, h: Graph, a: int) -> Optional[Embedding]:
    """H in the host: the first member of {H - x} found in S = ``sub``,
    with x mapped to ``a``, the lesser endpoint of the missing edge (both
    endpoints see all of S); None when S holds no member. The family is
    first needed here, after the independent t-set search has failed."""
    family = _family(h)
    emb = detect.contains_family_member(sub.graph, family.members)
    if emb is None:
        return None
    prov = family.provenance[family.members.index(emb.pattern)]
    mapping = [a] * h.n
    for j, original in enumerate(prov.kept):
        mapping[original] = sub.to_parent(emb.mapping[j])
    return Embedding(pattern=h, mapping=tuple(mapping))


def verify_trace(g: Graph, trace: ProofTrace, h: Graph, t: int) -> bool:
    """Re-validate a trace from scratch against g using only detector
    primitives and direct recounts. True iff everything checks out. The
    slack must be the one ``extract`` reports: |S| and beta^2 n recomputed
    from g, with R(K_t, {H - x}) and its kind on hypothesis-not-met only,
    and no slack at all on boundary-degenerate."""
    if trace.t != t or [entry.v for entry in trace.ledgers] != list(range(g.n)):
        return False
    missing = _missing_inside(g)
    for entry in trace.ledgers:
        if entry.degree != g.adj[entry.v].bit_count():
            return False
        if entry.m_v != missing[entry.v]:
            return False
        # gamma_v disjoint independent t-sets must fit in the neighbourhood.
        if entry.gamma_v < 0 or entry.gamma_v * t > entry.degree:
            return False
        if entry.q_of_gamma != forced_missing_edges(entry.gamma_v, t):
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
    if trace.s_vertices != frozenset(bits(g.adj[a] & g.adj[b])):
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
        sub = induced_subgraph(g, trace.s_vertices)
        if detect.find_independent_set(sub.graph, t) is not None:
            return False
        if detect.contains_family_member(sub.graph, _family(h).members) is not None:
            return False
        threshold = _family_threshold(t, h)
    else:
        return False
    beta_sq_n = beta(density(g).alpha, t).beta ** 2 * g.n
    return trace.slack == SlackInfo(len(trace.s_vertices), beta_sq_n, *threshold)
