import dataclasses
import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_mask
from k2tlab import detect, graphs, ramsey, witness
from k2tlab.constructions import (
    complete,
    complete_bipartite,
    cycle,
    empty,
    path,
    polarity_graph,
    random_gnp,
)
from k2tlab.detect import (
    Embedding,
    InducedK2tCertificate,
    contains_family_member,
    find_independent_set,
    find_induced_k2t,
)
from k2tlab.graphs import GraphError, bits, build, induced_subgraph
from k2tlab.witness import (
    OUTCOME_BOUNDARY_DEGENERATE,
    OUTCOME_H_EMBEDDED,
    OUTCOME_HYPOTHESIS_NOT_MET,
    OUTCOME_INDUCED_K2T,
    BoundaryDegenerateError,
    Ledger,
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


def mid_size_hosts(ts=(2, 3, 4)):
    """Seeded (host, t) cases, t in ``ts``, for the differential tests of
    the one-pass ledger and the pigeonhole prefilter: G(n, p) for n in
    20..60 over the whole density range, co-bipartite(40) (from t = 3 every
    packing search fails), and the polarity graphs ER_q (no K_{2,2})."""
    cases = []
    for n in (20, 30, 45, 60):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = random_gnp(n, p, 100 + n)
            for t in ts:
                cases.append(pytest.param(g, t, id=f"G({n},{p}) t={t}"))
    for seed in (1, 2):
        g = co_partite(2, 20, seed)
        for t in ts:
            cases.append(pytest.param(g, t, id=f"co-bipartite(40) #{seed} t={t}"))
    for q in (5, 7, 11, 13):
        for t in ts:
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


def oracle_ledger(g, t):
    """The ledger built vertex by vertex from the degree, missing_pairs and
    greedy_packing."""
    return Ledger(
        degrees=tuple(g.degree(v) for v in range(g.n)),
        missing=tuple(missing_pairs(g.adj, row) for row in g.adj),
        gammas=tuple(greedy_packing(g, v, t).gamma for v in range(g.n)),
    )


def assert_matches_oracles(g, t):
    """Every ledger column equals the one built from degree, missing_pairs
    and greedy_packing; returns the gamma_v."""
    columns = ledger(g, t)
    assert columns == oracle_ledger(g, t)
    return list(columns.gammas)


def with_column(trace, name, change):
    """``trace`` with the ledger column ``name`` replaced by
    ``change(list of its entries)``."""
    column = change(list(getattr(trace.ledger, name)))
    return dataclasses.replace(
        trace, ledger=dataclasses.replace(trace.ledger, **{name: tuple(column)})
    )


def set_entry(v, value):
    """A column change that sets entry v to ``value``."""
    def change(column):
        column[v] = value
        return column
    return change


class TestLedger:
    def test_k4(self):
        columns = ledger(complete(4), 2)
        assert columns == Ledger((3,) * 4, (0,) * 4, (0,) * 4)

    def test_c5(self):
        columns = ledger(cycle(5), 2)
        assert columns == Ledger((2,) * 5, (1,) * 5, (1,) * 5)

    def test_c4_holds_despite_induced_k22(self):
        # C4 has an induced K_{2,2}, so m_v >= q(gamma_v) is not promised,
        # yet it holds here.
        columns = ledger(cycle(4), 2)
        assert columns.missing == (1,) * 4 and columns.gammas == (1,) * 4

    @given(graph_masks(), st.integers(min_value=2, max_value=3))
    @settings(max_examples=150)
    def test_identity_m_plus_e(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        columns = ledger(g, t)
        assert len(columns.degrees) == len(columns.missing) == len(columns.gammas) == n
        for v, (degree, m_v) in enumerate(zip(columns.degrees, columns.missing)):
            sub = induced_subgraph(g, g.neighbours(v))
            assert m_v + sub.graph.edge_count == comb(degree, 2)

    @given(graph_masks(), st.integers(min_value=2, max_value=3))
    @settings(max_examples=150)
    def test_packing_debt_on_k2t_free_graphs(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        if find_induced_k2t(g, t) is not None:
            return
        columns = ledger(g, t)
        for m_v, gamma in zip(columns.missing, columns.gammas):
            assert m_v >= forced_missing_edges(gamma, t)

    @pytest.mark.parametrize("g, t", mid_size_hosts(ts=(2, 3, 4, 5)))
    def test_matches_per_vertex_oracles(self, g, t):
        # The one-pass ledger (edge-sweep m_v, one-scan packing) against
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


def neighbourhood_hosts():
    """Seeded hosts for the two ways of counting the pairs inside every
    neighbourhood: the smallest graphs, complete and empty ones, n around
    the 64-bit word boundary, the polarity graphs, co-bipartite(40), and
    G(n, p) on both sides of the cost rule
    n^4 + 10^6 <= 180,000 E + 70 n^3."""
    cases = []
    for n in (0, 1, 2, 5):
        cases.append(pytest.param(complete(n), id=f"K_{n}"))
        cases.append(pytest.param(empty(n), id=f"empty({n})"))
    for n in (63, 64, 65):
        cases.append(pytest.param(random_gnp(n, 0.5, n), id=f"G({n},0.5)"))
    for q in (7, 11, 13):
        cases.append(pytest.param(polarity_graph(q), id=f"ER_{q}"))
    cases.append(pytest.param(co_partite(2, 20, 1), id="co-bipartite(40)"))
    for n, p in ((20, 0.3), (20, 0.7), (30, 0.1), (30, 0.6), (100, 0.1), (100, 0.7), (150, 0.9)):
        cases.append(pytest.param(random_gnp(n, p, 7 * n), id=f"G({n},{p})"))
    return cases


def force_stacked(monkeypatch, stacked):
    monkeypatch.setattr(witness, "_stacked_pays", lambda g: stacked)


class TestNeighbourhoodCounts:
    def test_cost_rule_sides(self):
        # All but the sparsest hosts up to about a hundred vertices, and
        # dense ones above, take the stacked adjacency; large sparse ones,
        # and every host past n = 336, the per-vertex loops.
        pays = witness._stacked_pays
        assert all(pays(random_gnp(40, p, 1)) for p in (0.1, 0.2, 0.3, 0.5, 0.7))
        assert pays(random_gnp(20, 0.7, 1)) and pays(random_gnp(20, 0.3, 1))
        assert pays(random_gnp(30, 0.1, 210)) and pays(empty(40))
        assert not pays(random_gnp(10, 0.1, 10)) and not pays(empty(5))
        assert pays(co_partite(2, 20, 1)) and pays(random_gnp(150, 0.9, 1))
        assert pays(random_gnp(120, 0.2, 120)) and pays(random_gnp(240, 0.5, 240))
        assert pays(polarity_graph(7)) and not any(pays(polarity_graph(q)) for q in (11, 13))
        assert pays(random_gnp(100, 0.1, 700)) and not pays(random_gnp(200, 0.1, 200))
        assert not pays(empty(0)) and not pays(complete(400))
        # The cells, n^3 bits in all, stay under 5 MB.
        assert pays(complete(336)) and not pays(complete(337))
        assert not pays(co_partite(2, 500, 1))

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "loop"])
    @pytest.mark.parametrize("g", neighbourhood_hosts())
    def test_counts_match_missing_pairs(self, g, stacked, monkeypatch):
        force_stacked(monkeypatch, stacked)
        missing = [missing_pairs(g.adj, row) for row in g.adj]
        assert witness._missing_inside(g) == missing
        assert witness._edges_inside(g, witness._stacked(g)) == [
            comb(g.degree(v), 2) - m for v, m in enumerate(missing)
        ]

    @pytest.mark.parametrize("g", neighbourhood_hosts())
    def test_ledger_same_on_both_paths(self, g, monkeypatch):
        # Each column equals its per-vertex oracle on both paths.
        for t in (2, 3, 4):
            want = oracle_ledger(g, t)
            for stacked in (True, False):
                force_stacked(monkeypatch, stacked)
                assert ledger(g, t) == want, (t, stacked)
            monkeypatch.undo()


class TestLaneGammas:
    """At t = 2 on the hosts of ``_stacked_pays``, ``ledger`` packs every
    neighbourhood at once in lanes of one int (``_lane_gammas``)."""

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [10, 20, 40, 60])
    def test_against_greedy_packing(self, n, p, monkeypatch):
        g = random_gnp(n, p, 31 * n + int(10 * p))
        assert witness._stacked_pays(g)
        want = [greedy_packing(g, v, 2).gamma for v in range(n)]
        assert witness._lane_gammas(g) == want
        calls = []
        lanes = witness._lane_gammas
        monkeypatch.setattr(witness, "_lane_gammas", lambda g: calls.append(g) or lanes(g))
        assert list(ledger(g, 2).gammas) == want
        assert calls == [g]

    @pytest.mark.parametrize("q", [11, 13])
    def test_polarity_hosts_take_the_loop(self, q, monkeypatch):
        g = polarity_graph(q)
        assert not witness._stacked_pays(g)
        monkeypatch.setattr(witness, "_lane_gammas", None)
        assert list(ledger(g, 2).gammas) == [
            greedy_packing(g, v, 2).gamma for v in range(g.n)
        ]

    def test_empty_lanes(self):
        # No edge, or no vertex: every lane is empty from the start.
        assert witness._lane_gammas(empty(4)) == [0] * 4
        assert witness._lane_gammas(empty(0)) == []


def brute_force_pigeonhole(g):
    """The non-edge (u, w), u < w, least by (-|S|, u, w), with S its common
    neighbourhood; None on a complete graph."""
    pairs = [(u, w) for u, w in itertools.combinations(range(g.n), 2)
             if not g.has_edge(u, w)]
    if not pairs:
        return None
    u, w = min(pairs, key=lambda e: (-len(g.neighbours(e[0]) & g.neighbours(e[1])), e))
    return (u, w), frozenset(g.neighbours(u) & g.neighbours(w))


def averaging_hosts():
    """Seeded hosts for the two ways of finding the averaging edge: every
    graph on 0..3 vertices, complete and empty graphs, and hosts where two
    or more missing edges share the largest common neighbourhood, so the
    tie-break decides (random G(n, p) kept only when tied, C5, C7, ER_5,
    ER_7 and K_{3,4})."""
    cases = []
    for n in range(4):
        for mask in range(1 << comb(n, 2)):
            cases.append(pytest.param(graph_from_mask(n, mask), id=f"n={n} #{mask}"))
    for n in (4, 5, 30):
        cases.append(pytest.param(complete(n), id=f"K_{n}"))
        cases.append(pytest.param(empty(n), id=f"empty({n})"))
    rng = random.Random(29)
    tied = 0
    while tied < 24:
        n, p = rng.randint(4, 45), rng.uniform(0.1, 0.95)
        g = random_gnp(n, p, rng.randrange(10**6))
        sizes = [(g.adj[u] & g.adj[w]).bit_count()
                 for u, w in itertools.combinations(range(n), 2) if not g.has_edge(u, w)]
        if sizes and sizes.count(max(sizes)) >= 2:
            tied += 1
            cases.append(pytest.param(g, id=f"tied G({n},{p:.2f}) #{tied}"))
    for g, name in ((cycle(5), "C5"), (cycle(7), "C7"), (polarity_graph(5), "ER_5"),
                    (polarity_graph(7), "ER_7"), (complete_bipartite(3, 4), "K_3,4")):
        cases.append(pytest.param(g, id=name))
    return cases


def sparse_hosts():
    """Seeded sparse hosts with isolated vertices, whose first pairs share
    no neighbour: the pair scan cuts the partners of a vertex to those
    with at least one common neighbour while the best pair has none, and
    an isolated vertex keeps no partner. Chosen edge sets (best |S| = 0,
    1 from a late path, 2 from a late C4) and random edges among the upper
    vertices."""
    cases = [
        pytest.param(empty(40), id="empty(40)"),
        pytest.param(build(60, [(0, 1), (2, 3)]), id="two edges"),
        pytest.param(build(60, [(0, 1), (2, 3), (5, 9), (9, 12)]), id="path 5-9-12"),
        pytest.param(build(90, [(40, 41), (41, 42), (70, 88), (88, 89)]), id="two late paths"),
        pytest.param(build(50, [(20, 21), (30, 31), (31, 32), (32, 33), (33, 30)]), id="late C4"),
    ]
    rng = random.Random(32)
    for k in range(12):
        n = rng.randint(5, 90)
        low = rng.randrange(n)
        edges = [tuple(rng.sample(range(low, n), 2)) for _ in range(rng.randint(0, n // 4))
                 if n - low >= 2]
        cases.append(pytest.param(build(n, edges), id=f"sparse({n}) above {low} #{k}"))
    return cases


class TestPigeonholeEdge:
    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "loop"])
    @pytest.mark.parametrize("g", sparse_hosts())
    def test_sparse_hosts_match_brute_force(self, g, stacked, monkeypatch):
        force_stacked(monkeypatch, stacked)
        assert pigeonhole_edge(g, ledger(g, 2)) == brute_force_pigeonhole(g)

    def test_large_sparse_host_is_not_scanned_pair_by_pair(self):
        # Every pair of the first vertex has |S| = 0, so only a pair with a
        # common neighbour can win; a scan of all C(n, 2) pairs took 4.5 s
        # at n = 4,000 and grows with n^2.
        for edges, edge, s in (([(0, 1), (2, 3)], (0, 2), set()),
                               ([(0, 1), (2, 3), (5, 9), (9, 12)], (5, 12), {9})):
            g = build(20000, edges)
            started = time.monotonic()
            trace = extract(g, complete(4), 2)
            assert time.monotonic() - started < 5
            assert (trace.outcome, trace.selected_edge, trace.s_vertices) == (
                OUTCOME_HYPOTHESIS_NOT_MET, edge, s)
            assert verify_trace(g, trace, complete(4), 2)

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "loop"])
    @pytest.mark.parametrize("g", averaging_hosts())
    def test_both_paths_match_brute_force(self, g, stacked, monkeypatch):
        force_stacked(monkeypatch, stacked)
        expected = brute_force_pigeonhole(g)
        if expected is None:
            with pytest.raises(BoundaryDegenerateError):
                pigeonhole_edge(g, ledger(g, 2))
        else:
            assert pigeonhole_edge(g, ledger(g, 2)) == expected

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
        columns = ledger(g, 2)
        if g.edge_count == comb(n, 2):
            return
        edge, s = pigeonhole_edge(g, columns)
        missing = comb(n, 2) - g.edge_count
        assert len(s) * missing >= sum(columns.missing)
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


def copied_s_search(g, s_vertices, members, t):
    """The two searches in S as they ran on a copy of G[S]: the lex-least
    independent t-set and the first copy of a member, both lifted back to
    host labels."""
    sub = induced_subgraph(g, s_vertices)
    side = find_independent_set(sub.graph, t)
    emb = contains_family_member(sub.graph, members)
    return (
        None if side is None else frozenset(sub.to_parent(i) for i in side),
        None if emb is None else Embedding(
            emb.pattern, tuple(sub.to_parent(i) for i in emb.mapping)
        ),
    )


class TestInPlaceSearch:
    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize(
        "h", [complete(3), complete(4), cycle(4), path(4)], ids=["K3", "K4", "C4", "P4"]
    )
    def test_matches_copied_subgraph(self, h, t):
        # S = N(a) & N(b) for some missing edges ab and random vertex sets,
        # on hosts from sparse to dense, so each search both finds and
        # misses.
        rng = random.Random(t * 10 + h.n)
        members = witness._family(h).members
        seen = set()
        for seed in range(24):
            g = random_gnp(rng.randint(6, 30), rng.uniform(0.2, 0.95), seed)
            masks = [g.adj[a] & g.adj[b] for a, b in graphs.missing_edges(g)[:6]]
            masks += [rng.getrandbits(g.n) for _ in range(4)]
            for s in masks:
                side = detect._lex_set(g.adj, s, t, -1)
                got = (None if side is None else frozenset(bits(side)),
                       contains_family_member(g, members, s))
                assert got == copied_s_search(g, bits(s), members, t), (seed, s)
                seen.add((got[0] is None, got[1] is None))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_extract_copies_no_subgraph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("G[S] copied")

        monkeypatch.setattr(graphs, "induced_subgraph", refuse)
        monkeypatch.setattr(witness, "induced_subgraph", refuse, raising=False)
        h = complete(4)
        hosts = [
            (k5_minus_edge(), 2, OUTCOME_H_EMBEDDED),
            (cycle(4), 2, OUTCOME_INDUCED_K2T),
            (cycle(5), 2, OUTCOME_HYPOTHESIS_NOT_MET),
            (complete(6), 2, OUTCOME_BOUNDARY_DEGENERATE),
            (random_gnp(40, 0.5, 1), 2, OUTCOME_INDUCED_K2T),
            (co_partite(2, 20, 1), 3, OUTCOME_H_EMBEDDED),
            (polarity_graph(11), 3, OUTCOME_HYPOTHESIS_NOT_MET),
        ]
        for g, t, outcome in hosts:
            trace = extract(g, h, t)
            assert trace.outcome == outcome
            assert verify_trace(g, trace, h, t)


class TestLedgerColumns:
    def test_ledger_is_slotted_and_frozen(self):
        columns = ledger(cycle(5), 2)
        assert type(columns) is Ledger
        assert all(type(c) is tuple for c in (columns.degrees, columns.missing, columns.gammas))
        with pytest.raises(dataclasses.FrozenInstanceError):
            columns.missing = ()
        assert not hasattr(columns, "__dict__")
        assert hash(columns) == hash(Ledger((2,) * 5, (1,) * 5, (1,) * 5))
        assert dataclasses.asdict(columns) == {
            "degrees": (2,) * 5, "missing": (1,) * 5, "gammas": (1,) * 5
        }


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

    def test_family_built_once_per_h(self, monkeypatch):
        # An h-embedded and a hypothesis-not-met host with one H, each
        # extracted and verified, build {H - x} once between them.
        calls = []

        def counting(h):
            calls.append(h)
            return ramsey.family_minus_vertex(h)

        monkeypatch.setattr(witness, "family_minus_vertex", counting)
        witness._family.cache_clear()
        witness._family_threshold.cache_clear()
        h = complete(4)
        for g, outcome in ((k5_minus_edge(), OUTCOME_H_EMBEDDED),
                           (cycle(5), OUTCOME_HYPOTHESIS_NOT_MET)):
            trace = extract(g, h, 2)
            assert trace.outcome == outcome
            assert verify_trace(g, trace, h, 2)
        assert calls == [h]

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
        bad = with_column(trace, "missing", set_entry(0, trace.ledger.missing[0] + 1))
        assert not verify_trace(g, bad, complete(4), 2)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_rejects_changed_degree(self, delta):
        g = random_gnp(20, 0.5, 4)
        h = complete(4)
        trace = extract(g, h, 2)
        assert verify_trace(g, trace, h, 2)
        for v in (0, g.n - 1):
            bad = with_column(trace, "degrees", set_entry(v, g.degree(v) + delta))
            assert not verify_trace(g, bad, h, 2), v

    @pytest.mark.parametrize(
        "g, t, stacked",
        [
            (random_gnp(40, 0.7, 3), 2, True),
            (co_partite(2, 20, 1), 3, True),
            (polarity_graph(7), 2, True),
            (random_gnp(100, 0.1, 700), 2, True),
            (polarity_graph(11), 2, False),
            (random_gnp(200, 0.1, 200), 2, False),
        ],
        ids=["G(40,0.7)", "co-bipartite(40)", "ER_7", "G(100,0.1)", "ER_11", "G(200,0.1)"],
    )
    def test_rejects_m_v_one_off(self, g, t, stacked):
        # The recount of m_v, from the stacked complement where the cost
        # rule holds and with missing_pairs on large sparse hosts, catches
        # an m_v that is one too high or one too low at any vertex.
        assert witness._stacked_pays(g) == stacked
        h = complete(4)
        trace = extract(g, h, t)
        assert verify_trace(g, trace, h, t)
        for v in (0, g.n // 2, g.n - 1):
            for delta in (-1, 1):
                m_v = trace.ledger.missing[v] + delta
                bad = with_column(trace, "missing", set_entry(v, m_v))
                assert not verify_trace(g, bad, h, t), (v, delta)

    @pytest.mark.parametrize("t", [2, 3])
    def test_rejects_packing_that_cannot_fit(self, t):
        # gamma_v disjoint independent t-sets need gamma_v * t neighbours; a
        # ledger claiming more, or a negative gamma_v, must not verify.
        g = polarity_graph(7)
        h = complete(4)
        trace = extract(g, h, t)
        assert verify_trace(g, trace, h, t)
        assert trace.ledger.degrees[0] == 8
        for gamma in (8 // t + 1, 9, -1):
            bad = with_column(trace, "gammas", set_entry(0, gamma))
            assert not verify_trace(g, bad, h, t), gamma

    def test_rejects_wrong_outcome_tag(self):
        g = cycle(5)
        trace = extract(g, complete(3), 2)
        bad = dataclasses.replace(trace, outcome=OUTCOME_INDUCED_K2T)
        assert not verify_trace(g, bad, complete(3), 2)

    @pytest.mark.parametrize("name", ["degrees", "missing", "gammas"])
    @pytest.mark.parametrize(
        "change",
        [lambda c: c[:-1], lambda c: c + c[-1:]], ids=["one short", "one long"],
    )
    def test_rejects_column_of_wrong_length(self, name, change):
        # C5 is vertex-transitive, so every entry of a column matches any
        # vertex: a column must hold exactly one entry per vertex, and a
        # short one is a rejection, not an IndexError.
        g = cycle(5)
        trace = extract(g, complete(3), 2)
        assert verify_trace(g, trace, complete(3), 2)
        bad = with_column(trace, name, change)
        assert not verify_trace(g, bad, complete(3), 2)

    def test_rejects_fake_boundary(self):
        g = cycle(5)
        trace = extract(g, complete(3), 2)
        bad = dataclasses.replace(
            trace, outcome=OUTCOME_BOUNDARY_DEGENERATE, selected_edge=None
        )
        assert not verify_trace(g, bad, complete(3), 2)

    def test_rejects_forged_threshold_slack(self):
        # Every recounted part of the trace is right; only the slack lies.
        g = cycle(5)
        trace = extract(g, complete(3), 2)
        slack = trace.slack
        forged = dataclasses.replace(
            slack, ramsey_threshold=99, threshold_kind="made-up", beta_sq_n=-1.0
        )
        for change in (
            forged,
            dataclasses.replace(slack, ramsey_threshold=99),
            dataclasses.replace(slack, threshold_kind="made-up"),
            dataclasses.replace(slack, beta_sq_n=-1.0),
            dataclasses.replace(slack, s_size=slack.s_size + 1),
        ):
            bad = dataclasses.replace(trace, slack=change)
            assert not verify_trace(g, bad, complete(3), 2), change

    def test_rejects_missing_or_extra_slack(self):
        g = cycle(4)
        trace = extract(g, complete(3), 2)
        assert trace.outcome == OUTCOME_INDUCED_K2T
        bad = dataclasses.replace(trace, slack=None)
        assert not verify_trace(g, bad, complete(3), 2)
        # A threshold belongs to hypothesis-not-met only.
        extra = dataclasses.replace(trace.slack, ramsey_threshold=2, threshold_kind="exact")
        assert not verify_trace(g, dataclasses.replace(trace, slack=extra), complete(3), 2)
        # And boundary-degenerate has no slack at all.
        k6 = complete(6)
        boundary = extract(k6, complete(3), 2)
        assert verify_trace(k6, boundary, complete(3), 2)
        bad = dataclasses.replace(boundary, slack=trace.slack)
        assert not verify_trace(k6, bad, complete(3), 2)
