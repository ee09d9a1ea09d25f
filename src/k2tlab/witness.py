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

``ledger`` builds all per-vertex entries in one pass. m_v comes from a
single sweep over the edges (each edge uw adds |N(u) & N(w)| at both ends,
which sums to twice the edges inside each neighbourhood), and gamma_v from
a greedy packing that resumes each search after the least vertex of the
part it just took, since no t-set can start below it any more; when G
itself holds no independent t-set, no neighbourhood does, so one search
on the whole vertex set sets every gamma_v to 0 and no per-vertex search
runs. Both give exactly what ``missing_pairs`` and ``greedy_packing``
give vertex by vertex; those stay as the plain per-vertex oracles, and
``verify_trace`` recounts every m_v with ``missing_pairs``. ``pigeonhole_edge`` skips the
partners with fewer than two common neighbours once a pair with one is
known, as they can no longer win.

``extract`` builds one trace. A complete host returns early as
boundary-degenerate; otherwise one if/elif chain picks the outcome and
its certificate (an independent t-set in S first; the family {H - x} is
built only when that search fails), one self-check covers whichever
certificate was found, and one ``ProofTrace`` is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from . import detect
from .bounds import beta
from .detect import Embedding, InducedK2tCertificate
from .graphs import Graph, GraphError, InducedSubgraph, bits, density, induced_subgraph
from .ramsey import RamseyQuery, family_minus_vertex, ramsey_exact

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
    ledger when ``subset`` is the neighbourhood of v."""
    missing = 0
    rest = subset
    while rest:
        low = rest & -rest
        rest ^= low
        missing += (rest & ~adj[low.bit_length() - 1]).bit_count()
    return missing


def ledger(g: Graph, t: int) -> list[VertexLedger]:
    """Per-vertex degree, missing-edge count inside the neighbourhood,
    greedy packing size, and its q lower bound; the same entries as
    ``greedy_packing`` and ``missing_pairs`` give vertex by vertex.

    m_v is C(d_v, 2) - e(N(v)). Each edge vw inside N(v) is counted once
    from each end by |N(v) & N(w)| summed over the neighbours w of v, so
    one sweep over the edges uw, u < w, adding |N(u) & N(w)| to both ends,
    leaves 2 e(N(v)) at every v: E popcounts instead of 2E.

    gamma_v is the size of the greedy packing, taken on masks. After each
    part the residual is cut to the vertices above the part's least
    vertex: no independent t-set of the residual starts at a vertex below
    it, and the residual only shrinks, so none ever will, and the next
    lex-least t-set, found without rescanning them, is the same. One search
    on the whole vertex set comes first: an independent t-set inside N(v)
    is one of G, so when G has none every gamma_v is 0 without a search
    (the co-bipartite hosts at t = 3, two cliques with alpha(G) = 2).
    """
    if t < 2:
        raise GraphError(f"need t >= 2, got t={t}")
    adj = g.adj
    n = g.n
    inside = [0] * n
    for u in range(n):
        row = adj[u]
        later = row & ~((1 << (u + 1)) - 1)
        while later:
            low = later & -later
            later ^= low
            w = low.bit_length() - 1
            common = (row & adj[w]).bit_count()
            inside[u] += common
            inside[w] += common
    packs = detect._lex_set(adj, g.full_mask, t, -1) is not None
    out = []
    for v in range(n):
        row = adj[v]
        degree = row.bit_count()
        gamma = 0
        residual = row if packs else 0
        while residual:
            part = detect._lex_set(adj, residual, t, -1)
            if part is None:
                break
            gamma += 1
            residual &= ~part & -(part & -part)
        out.append(
            VertexLedger(
                v=v,
                degree=degree,
                m_v=degree * (degree - 1) // 2 - inside[v] // 2,
                gamma_v=gamma,
                q_of_gamma=forced_missing_edges(gamma, t),
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
        for w in bits(detect.later_partners(adj, full, u, best_size >= 1)):
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
def _family_threshold(t: int, h: Graph) -> tuple[int, str]:
    """R(K_t, {H - x}) as an exact repo value when the search resolves,
    else the certified upper end of its bracket."""
    result = ramsey_exact(RamseyQuery(t=t, family=family_minus_vertex(h)))
    if result.exact is not None:
        return result.exact, "exact"
    return result.upper, "upper-bound"


def extract(g: Graph, h: Graph, t: int) -> ProofTrace:
    """Run the full constructive argument on (g, h, t).

    All failure modes are outcome tags, never exceptions: a complete host
    is boundary-degenerate, and a common neighbourhood too small to force
    anything yields hypothesis-not-met with the quantitative slack.
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
    built only here, after the independent t-set search has failed."""
    family = family_minus_vertex(h)
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
    primitives and direct recounts. True iff everything checks out."""
    if trace.t != t or [entry.v for entry in trace.ledgers] != list(range(g.n)):
        return False
    for entry in trace.ledgers:
        row = g.adj[entry.v]
        if entry.degree != row.bit_count():
            return False
        if entry.m_v != missing_pairs(g.adj, row):
            return False
        if entry.gamma_v < 0 or entry.q_of_gamma != forced_missing_edges(
            entry.gamma_v, t
        ):
            return False

    if trace.outcome == OUTCOME_BOUNDARY_DEGENERATE:
        return trace.selected_edge is None and g.edge_count == g.n * (g.n - 1) // 2

    if trace.selected_edge is None or trace.s_vertices is None:
        return False
    a, b = trace.selected_edge
    if not (0 <= a < g.n and 0 <= b < g.n) or a == b or g.has_edge(a, b):
        return False
    if trace.s_vertices != frozenset(bits(g.adj[a] & g.adj[b])):
        return False

    cert = trace.certificate
    if trace.outcome == OUTCOME_H_EMBEDDED:
        return isinstance(cert, Embedding) and cert.pattern == h and cert.check(g)

    if trace.outcome == OUTCOME_INDUCED_K2T:
        return (
            isinstance(cert, InducedK2tCertificate)
            and len(cert.t_side) == t
            and {cert.a, cert.b} == {a, b}
            and cert.t_side <= trace.s_vertices
            and cert.check(g)
        )

    if trace.outcome == OUTCOME_HYPOTHESIS_NOT_MET:
        sub = induced_subgraph(g, trace.s_vertices)
        if detect.find_independent_set(sub.graph, t) is not None:
            return False
        family = family_minus_vertex(h)
        if detect.contains_family_member(sub.graph, family.members) is not None:
            return False
        return trace.slack is not None and trace.slack.s_size == len(trace.s_vertices)

    return False
