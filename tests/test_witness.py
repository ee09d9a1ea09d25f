import dataclasses
import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_mask
from k2tlab.constructions import complete, cycle, empty, polarity_graph, random_gnp
from k2tlab.detect import (
    Embedding,
    InducedK2tCertificate,
    find_independent_set,
    find_induced_k2t,
)
from k2tlab.graphs import GraphError, build, induced_subgraph
from k2tlab.witness import (
    OUTCOME_BOUNDARY_DEGENERATE,
    OUTCOME_H_EMBEDDED,
    OUTCOME_HYPOTHESIS_NOT_MET,
    OUTCOME_INDUCED_K2T,
    BoundaryDegenerateError,
    VertexLedger,
    extract,
    forced_missing_edges,
    greedy_packing,
    ledger,
    missing_pairs,
    pigeonhole_edge,
    verify_trace,
)


def k5_minus_edge():
    return build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                     if (u, v) != (0, 1)])


def co_partite(k, part, seed):
    """k cliques of ``part`` vertices joined by a random half of the cross
    pairs: no independent (k + 1)-set, so no induced K_{2,k+1}."""
    rng = random.Random(seed)
    n = k * part
    cross = {(u, v) for u, v in itertools.combinations(range(n), 2)
             if u // part != v // part and rng.random() < 0.5}
    return build(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if (u, v) not in cross])


def threshold_hosts():
    """Seeded (host, t) cases for the ledger's whole-graph shortcut: k = t - 1
    cliques as in ``co_partite`` (alpha = t - 1, so no neighbourhood holds
    an independent t-set), and the same host plus a vertex x adjacent to a
    random half of it but to none of its lex-least independent
    (t - 1)-set, so alpha = t."""
    cases = []
    for t in (2, 3, 4):
        for seed in (1, 2, 3):
            g = co_partite(t - 1, 8, seed)
            cases.append(pytest.param(g, t, t - 1, id=f"co-{t - 1}-partite({g.n}) #{seed} t={t}"))
            rng = random.Random(seed)
            apart = find_independent_set(g, t - 1)
            x_nbrs = [u for u in range(g.n) if u not in apart and rng.random() < 0.5]
            plus = build(g.n + 1, list(g.edges()) + [(u, g.n) for u in x_nbrs])
            cases.append(pytest.param(plus, t, t, id=f"co-{t - 1}-partite({g.n}) + x #{seed} t={t}"))
    return cases


def mid_size_hosts():
    """Seeded (host, t) cases for the differential tests of the one-pass
    ledger and the pigeonhole prefilter: G(n, p) for n in 20..60 over the
    whole density range, co-bipartite(40) at t = 3 (every packing search
    fails), and the polarity graphs ER_q (no K_{2,2})."""
    cases = []
    for n in (20, 30, 45, 60):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = random_gnp(n, p, 100 + n)
            for t in (2, 3, 4):
                cases.append(pytest.param(g, t, id=f"G({n},{p}) t={t}"))
    for seed in (1, 2):
        cases.append(pytest.param(co_partite(2, 20, seed), 3, id=f"co-bipartite(40) #{seed} t=3"))
    for q in (5, 7, 11):
        for t in (2, 3, 4):
            cases.append(pytest.param(polarity_graph(q), t, id=f"ER_{q} t={t}"))
    return cases


@st.composite
def graph_masks(draw, max_n=7, min_n=2):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << comb(n, 2)) - 1))
    return n, mask


class TestForcedMissingEdges:
    def test_closed_form(self):
        # q(x) = (t-1)/2 x (x+t-1) = C(t,2) x + (t-1) C(x,2).
        for t in range(2, 7):
            for gamma in range(0, 8):
                expected = comb(t, 2) * gamma + (t - 1) * comb(gamma, 2)
                assert forced_missing_edges(gamma, t) == expected

    def test_q1_examples(self):
        assert forced_missing_edges(1, 2) == 1
        assert forced_missing_edges(0, 4) == 0


class TestGreedyPacking:
    def test_k5_complete_neighbourhood(self):
        assert greedy_packing(complete(5), 0, 2).gamma == 0

    def test_c5_one_pair(self):
        p = greedy_packing(cycle(5), 0, 2)
        assert p.gamma == 1
        assert p.parts == (frozenset({1, 4}),)

    def test_petersen_one_pair(self, petersen_graph):
        for v in range(10):
            assert greedy_packing(petersen_graph, v, 2).gamma == 1

    def test_parts_disjoint_independent_inside_neighbourhood(self):
        g = random_gnp(12, 0.4, 7)
        for v in range(12):
            p = greedy_packing(g, v, 2)
            seen = set()
            for part in p.parts:
                assert part <= g.neighbours(v)
                assert not (part & seen)
                seen |= part
                members = sorted(part)
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        assert not g.has_edge(a, b)

    @given(graph_masks(max_n=7), st.integers(min_value=2, max_value=3))
    @settings(max_examples=120)
    def test_maximality(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        for v in range(n):
            p = greedy_packing(g, v, t)
            residual = g.neighbours(v) - {u for part in p.parts for u in part}
            sub = induced_subgraph(g, residual)
            assert find_independent_set(sub.graph, t) is None


def assert_matches_oracles(g, t):
    """Every ledger entry equals the one built from degree, missing_pairs
    and greedy_packing; returns the gamma_v."""
    entries = ledger(g, t)
    assert [e.v for e in entries] == list(range(g.n))
    for entry in entries:
        v = entry.v
        gamma = greedy_packing(g, v, t).gamma
        assert entry == VertexLedger(
            v=v,
            degree=g.degree(v),
            m_v=missing_pairs(g.adj, g.adj[v]),
            gamma_v=gamma,
            q_of_gamma=forced_missing_edges(gamma, t),
        )
    return [e.gamma_v for e in entries]


class TestLedger:
    def test_k4(self):
        for entry in ledger(complete(4), 2):
            assert entry.m_v == 0 and entry.gamma_v == 0 and entry.q_of_gamma == 0

    def test_c5(self):
        for entry in ledger(cycle(5), 2):
            assert entry.degree == 2
            assert entry.m_v == 1 and entry.gamma_v == 1 and entry.q_of_gamma == 1

    def test_c4_holds_despite_induced_k22(self):
        # C4 has an induced K_{2,2}, so m_v >= q(gamma_v) is not promised,
        # yet it holds here.
        for entry in ledger(cycle(4), 2):
            assert entry.m_v == 1 and entry.gamma_v == 1 and entry.q_of_gamma == 1

    @given(graph_masks(), st.integers(min_value=2, max_value=3))
    @settings(max_examples=150)
    def test_identity_m_plus_e(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        for entry in ledger(g, t):
            sub = induced_subgraph(g, g.neighbours(entry.v))
            assert entry.m_v + sub.graph.edge_count == comb(entry.degree, 2)

    @given(graph_masks(), st.integers(min_value=2, max_value=3))
    @settings(max_examples=150)
    def test_packing_debt_on_k2t_free_graphs(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        if find_induced_k2t(g, t) is not None:
            return
        for entry in ledger(g, t):
            assert entry.m_v >= entry.q_of_gamma

    @pytest.mark.parametrize("g, t", mid_size_hosts())
    def test_matches_per_vertex_oracles(self, g, t):
        # The one-pass ledger (edge-sweep m_v, resumable packing) against
        # greedy_packing and missing_pairs, vertex by vertex.
        assert_matches_oracles(g, t)

    @pytest.mark.parametrize("g, t, alpha", threshold_hosts())
    def test_alpha_at_the_shortcut_threshold(self, g, t, alpha):
        # At alpha = t - 1 every gamma_v is 0 from one whole-graph search;
        # at alpha = t the per-vertex packings run.
        assert find_independent_set(g, alpha) is not None
        assert find_independent_set(g, alpha + 1) is None
        gammas = assert_matches_oracles(g, t)
        assert (max(gammas) > 0) == (alpha == t)

    def test_rejects_t_one(self):
        with pytest.raises(GraphError):
            ledger(cycle(5), 1)


def brute_force_pigeonhole(g):
    """The non-edge (u, w), u < w, least by (-|S|, u, w), with S its common
    neighbourhood; None on a complete graph."""
    pairs = [(u, w) for u, w in itertools.combinations(range(g.n), 2)
             if not g.has_edge(u, w)]
    if not pairs:
        return None
    u, w = min(pairs, key=lambda e: (-len(g.neighbours(e[0]) & g.neighbours(e[1])), e))
    return (u, w), frozenset(g.neighbours(u) & g.neighbours(w))


class TestPigeonholeEdge:
    def test_k5_minus_edge(self):
        g = k5_minus_edge()
        edge, s = pigeonhole_edge(g, ledger(g, 2))
        assert edge == (0, 1)
        assert s == {2, 3, 4}

    def test_c4_symmetry_tiebreak(self):
        g = cycle(4)
        edge, s = pigeonhole_edge(g, ledger(g, 2))
        assert edge == (0, 2)
        assert s == {1, 3}

    def test_complete_graph_signals(self):
        g = complete(6)
        with pytest.raises(BoundaryDegenerateError):
            pigeonhole_edge(g, ledger(g, 2))

    @given(graph_masks())
    @settings(max_examples=120)
    def test_averaging_guarantee(self, nm):
        n, mask = nm
        g = graph_from_mask(n, mask)
        entries = ledger(g, 2)
        if g.edge_count == comb(n, 2):
            return
        edge, s = pigeonhole_edge(g, entries)
        missing = comb(n, 2) - g.edge_count
        assert len(s) * missing >= sum(e.m_v for e in entries)
        assert not g.has_edge(*edge)

    @pytest.mark.parametrize("g, t", mid_size_hosts())
    def test_matches_brute_force(self, g, t):
        assert pigeonhole_edge(g, ledger(g, t)) == brute_force_pigeonhole(g)

    @given(graph_masks(min_n=1))
    @settings(max_examples=150)
    def test_small_graphs_match_brute_force(self, nm):
        n, mask = nm
        g = graph_from_mask(n, mask)
        expected = brute_force_pigeonhole(g)
        if expected is None:
            with pytest.raises(BoundaryDegenerateError):
                pigeonhole_edge(g, ledger(g, 2))
        else:
            assert pigeonhole_edge(g, ledger(g, 2)) == expected


class TestExtract:
    def test_k5_minus_edge_embeds_k4(self):
        g = k5_minus_edge()
        trace = extract(g, complete(4), 2)
        assert trace.outcome == OUTCOME_H_EMBEDDED
        assert trace.s_vertices == {2, 3, 4}
        assert isinstance(trace.certificate, Embedding)
        assert trace.certificate.check(g)
        assert verify_trace(g, trace, complete(4), 2)

    def test_c4_finds_induced_k22(self):
        g = cycle(4)
        trace = extract(g, complete(3), 2)
        assert trace.outcome == OUTCOME_INDUCED_K2T
        assert isinstance(trace.certificate, InducedK2tCertificate)
        assert verify_trace(g, trace, complete(3), 2)

    def test_c5_hypothesis_not_met(self):
        trace = extract(cycle(5), complete(3), 2)
        assert trace.outcome == OUTCOME_HYPOTHESIS_NOT_MET
        assert trace.slack.ramsey_threshold == 2
        assert trace.slack.beta_sq_n == pytest.approx(0.42893, abs=1e-4)
        assert trace.slack.s_size == 1
        assert verify_trace(cycle(5), trace, complete(3), 2)

    def test_complete_graph_boundary(self):
        trace = extract(complete(6), complete(3), 2)
        assert trace.outcome == OUTCOME_BOUNDARY_DEGENERATE
        assert trace.certificate is None
        assert verify_trace(complete(6), trace, complete(3), 2)

    def test_t3_embedding(self):
        # K7 minus one edge: S = K5, so H = K5 embeds via one endpoint.
        g = build(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                      if (u, v) != (0, 1)])
        trace = extract(g, complete(5), 3)
        assert trace.outcome == OUTCOME_H_EMBEDDED
        assert verify_trace(g, trace, complete(5), 3)

    def test_rejects_tiny_h(self):
        with pytest.raises(GraphError):
            extract(cycle(4), complete(1), 2)

    def test_rejects_oversized_h(self):
        with pytest.raises(GraphError):
            extract(cycle(4), complete(11), 2)

    @given(graph_masks(max_n=7), st.integers(min_value=2, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_every_trace_verifies(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        h = complete(4)
        trace = extract(g, h, t)
        assert verify_trace(g, trace, h, t)

    def test_non_clique_h_cycle(self):
        # H = C5: the family is {P4}; the rebuilt embedding must close the
        # cycle through an endpoint of the missing edge.
        h = cycle(5)
        hit = False
        for seed in range(80):
            g = random_gnp(12, 0.9, seed)
            if g.edge_count == 66:
                continue
            trace = extract(g, h, 2)
            assert verify_trace(g, trace, h, 2)
            if trace.outcome == OUTCOME_H_EMBEDDED:
                hit = True
                assert trace.certificate.pattern == h
                assert trace.certificate.check(g)
        assert hit

    def test_non_clique_h_biclique(self):
        # H = K_{2,3}: a two-member family ({K_{1,3}, K_{2,2}}), so the
        # provenance lookup has to pick the right removed vertex.
        from k2tlab.constructions import complete_bipartite

        h = complete_bipartite(2, 3)
        hit = False
        for seed in range(80):
            g = random_gnp(12, 0.85, seed + 500)
            if g.edge_count == 66:
                continue
            trace = extract(g, h, 2)
            assert verify_trace(g, trace, h, 2)
            if trace.outcome == OUTCOME_H_EMBEDDED:
                hit = True
                assert trace.certificate.check(g)
        assert hit

    def test_dense_sweep_exercises_embedding_branch(self):
        # Dense non-complete hosts drive the argument to completion, so
        # the H-embedding path gets real traffic (random sweeps at
        # moderate densities end almost exclusively in induced-K_{2,t}
        # certificates).
        h = complete(4)
        outcomes = set()
        for seed in range(120):
            g = random_gnp(13, 0.92, seed)
            if g.edge_count == 78:
                continue
            trace = extract(g, h, 2)
            outcomes.add(trace.outcome)
            assert verify_trace(g, trace, h, 2)
            if trace.outcome == OUTCOME_H_EMBEDDED:
                assert trace.certificate.pattern == h
        assert OUTCOME_H_EMBEDDED in outcomes


class TestVerifyTrace:
    def test_rejects_corrupted_embedding(self):
        g = k5_minus_edge()
        trace = extract(g, complete(4), 2)
        bad_cert = Embedding(pattern=complete(4), mapping=(0, 1, 2, 3))
        bad = dataclasses.replace(trace, certificate=bad_cert)
        assert not verify_trace(g, bad, complete(4), 2)

    def test_rejects_wrong_s(self):
        g = k5_minus_edge()
        trace = extract(g, complete(4), 2)
        bad = dataclasses.replace(trace, s_vertices=frozenset({2, 3}))
        assert not verify_trace(g, bad, complete(4), 2)

    def test_rejects_selected_edge_that_exists(self):
        g = k5_minus_edge()
        trace = extract(g, complete(4), 2)
        bad = dataclasses.replace(trace, selected_edge=(2, 3))
        assert not verify_trace(g, bad, complete(4), 2)

    def test_rejects_tampered_ledger(self):
        g = k5_minus_edge()
        trace = extract(g, complete(4), 2)
        entries = list(trace.ledgers)
        entries[0] = dataclasses.replace(entries[0], m_v=entries[0].m_v + 1)
        bad = dataclasses.replace(trace, ledgers=tuple(entries))
        assert not verify_trace(g, bad, complete(4), 2)

    def test_rejects_wrong_outcome_tag(self):
        g = cycle(5)
        trace = extract(g, complete(3), 2)
        bad = dataclasses.replace(trace, outcome=OUTCOME_INDUCED_K2T)
        assert not verify_trace(g, bad, complete(3), 2)

    @pytest.mark.parametrize(
        "relabel",
        [lambda v: 0, lambda v: v - 5, lambda v: v + 5],
        ids=["all v = 0", "v - 5", "v + 5"],
    )
    def test_rejects_forged_ledger_vertices(self, relabel):
        # C5 is vertex-transitive, so every entry but its v matches any
        # vertex's row: entry i must name vertex i, and an id out of range
        # is a rejection, not an IndexError.
        g = cycle(5)
        trace = extract(g, complete(3), 2)
        entries = tuple(dataclasses.replace(e, v=relabel(e.v)) for e in trace.ledgers)
        bad = dataclasses.replace(trace, ledgers=entries)
        assert not verify_trace(g, bad, complete(3), 2)

    def test_rejects_fake_boundary(self):
        g = cycle(5)
        trace = extract(g, complete(3), 2)
        bad = dataclasses.replace(
            trace, outcome=OUTCOME_BOUNDARY_DEGENERATE, selected_edge=None
        )
        assert not verify_trace(g, bad, complete(3), 2)
