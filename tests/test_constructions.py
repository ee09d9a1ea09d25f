import itertools
from math import comb

import pytest

from conftest import naive_has_induced_k2t, naive_has_subgraph, naive_triangles
from k2tlab import constructions
from k2tlab.bitslice import delta_max
from k2tlab.constructions import (
    XorShift64Star,
    complete,
    complete_bipartite,
    cycle,
    empty,
    enumerate_labelled,
    iter_masks,
    path,
    polarity_graph,
    random_gnp,
    standard,
    turan,
)
from k2tlab.detect import SelfCheckError, contains_subgraph, find_induced_k2t
from k2tlab.graphs import Graph, GraphError, build, graph6_encode


class TestPolarityGraph:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_counts_and_degrees(self, q):
        g = polarity_graph(q)
        assert g.n == q * q + q + 1
        assert g.edge_count == q * (q + 1) ** 2 // 2
        degrees = [g.degree(v) for v in range(g.n)]
        assert degrees.count(q) == q + 1
        assert degrees.count(q + 1) == g.n - (q + 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_no_k22_subgraph_at_all(self, q):
        # Stronger than induced-freeness: two points lie on a unique
        # common polar line.
        g = polarity_graph(q)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert (g.adj[u] & g.adj[v]).bit_count() <= 1

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_no_induced_k22(self, q):
        assert find_induced_k2t(polarity_graph(q), 2) is None

    def test_rejects_nonprime(self):
        with pytest.raises(GraphError):
            polarity_graph(4)
        with pytest.raises(GraphError):
            polarity_graph(9)

    def test_self_check_catches_a_non_field(self, monkeypatch):
        # Over Z/4, which is no field, orthogonality gives the wrong edge
        # count; the self-check raises even under python -O.
        monkeypatch.setattr(constructions, "_is_prime", lambda q: True)
        with pytest.raises(SelfCheckError, match="polarity_graph"):
            polarity_graph(4)


class TestStandard:
    def test_complete(self):
        assert standard("complete", 5) == complete(5)
        assert complete(5).edge_count == 10

    def test_cycle_path(self):
        assert cycle(4).edge_count == 4
        assert path(4).edge_count == 3

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.edge_count == 6
        assert find_induced_k2t(g, 3) is not None

    def test_turan_623_contains_induced_k22(self):
        g = turan(6, 3)
        assert g.edge_count == 12  # K_{2,2,2}
        assert find_induced_k2t(g, 2) is not None

    def test_turan_parts_balanced(self):
        g = turan(7, 3)
        assert g.n == 7
        # parts 3,2,2 -> complement is disjoint cliques of those sizes
        comp = g.complement()
        assert comp.edge_count == comb(3, 2) + comb(2, 2) + comb(2, 2)

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            standard("mystery", 4)

    def test_wrong_parameter_count(self):
        with pytest.raises(GraphError, match="takes 2"):
            standard("turan", 6)

    def test_turan_with_more_parts_than_vertices(self):
        assert turan(4, 10**12) == complete(4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: complete(2897),
            lambda: empty(10**6),
            lambda: cycle(10**6),
            lambda: path(10**6),
            lambda: complete_bipartite(2000, 897),
            lambda: turan(10**6, 3),
            lambda: random_gnp(10**6, 0.5, 1),
            lambda: polarity_graph(10**30 + 57),
        ],
    )
    def test_vertex_pair_cap_checked_before_building(self, build):
        with pytest.raises(GraphError, match="vertex pairs"):
            build()

    def test_vertex_pair_cap_boundary(self):
        from k2tlab.graphs import MAX_VERTEX_PAIRS, check_vertex_pairs

        assert comb(2896, 2) <= MAX_VERTEX_PAIRS < comb(2897, 2)
        check_vertex_pairs(2896)
        with pytest.raises(GraphError):
            check_vertex_pairs(2897)
        # The generators build through Graph._trusted, which checks nothing.
        with pytest.raises(GraphError, match="non-negative"):
            check_vertex_pairs(-1)


def _old_edges(kind, *params):
    """The edge lists the generators once passed to ``build``, kept as the
    oracle for the adjacency rows they now build directly."""
    if kind == "complete":
        (n,) = params
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "empty":
        return params[0], []
    if kind == "cycle":
        (n,) = params
        return n, [(v, (v + 1) % n) for v in range(n)]
    if kind == "path":
        (n,) = params
        return n, [(v, v + 1) for v in range(n - 1)]
    if kind == "complete-bipartite":
        a, b = params
        return a + b, [(u, a + v) for u in range(a) for v in range(b)]
    if kind == "turan":
        n, r = params
        parts, start = [], 0
        base, extra = divmod(n, r)
        for i in range(min(r, n)):
            size = base + (1 if i < extra else 0)
            parts.append(range(start, start + size))
            start += size
        return n, [
            (u, v)
            for i in range(len(parts))
            for j in range(i + 1, len(parts))
            for u in parts[i]
            for v in parts[j]
        ]
    n, p, seed = params
    rng = XorShift64Star(seed)
    threshold = int(p * (1 << 64))
    return n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.next64() < threshold
    ]


class TestRowsMatchEdgeLists:
    def test_fixtures(self):
        for n in range(0, 41):
            assert complete(n) == build(*_old_edges("complete", n))
            assert empty(n) == build(*_old_edges("empty", n))
            if n >= 1:
                assert path(n) == build(*_old_edges("path", n))
            if n >= 3:
                assert cycle(n) == build(*_old_edges("cycle", n))
            for r in range(1, 10):
                assert turan(n, r) == build(*_old_edges("turan", n, r))
        for a in range(0, 9):
            for b in range(0, 9):
                want = build(*_old_edges("complete-bipartite", a, b))
                assert complete_bipartite(a, b) == want

    def test_random_gnp_keeps_its_draw_order(self):
        for n in (0, 1, 2, 20, 64):
            for p in (0.0, 0.3, 0.5, 0.7, 1.0):
                for seed in range(3):
                    want = build(*_old_edges("gnp", n, p, seed))
                    assert random_gnp(n, p, seed) == want

    @pytest.mark.parametrize("build_one", [complete, empty])
    def test_negative_n_is_a_graph_error(self, build_one):
        with pytest.raises(GraphError):
            build_one(-1)


class TestRandomGnp:
    def test_p_zero_empty(self):
        assert random_gnp(10, 0.0, 5).edge_count == 0

    def test_p_one_complete(self):
        assert random_gnp(10, 1.0, 5) == complete(10)

    def test_determinism(self):
        a = random_gnp(20, 0.5, 99)
        b = random_gnp(20, 0.5, 99)
        assert graph6_encode(a) == graph6_encode(b)

    def test_seed_changes_graph(self):
        a = random_gnp(20, 0.5, 1)
        b = random_gnp(20, 0.5, 2)
        assert a != b

    def test_prng_is_pinned(self):
        # First outputs of xorshift64* from seed 1; any change to the
        # generator breaks every recorded seed in reports.
        rng = XorShift64Star(1)
        assert [rng.next64() for _ in range(3)] == [
            5180492295206395165,
            12380297144915551517,
            13389498078930870103,
        ]

    def test_rejects_bad_p(self):
        with pytest.raises(GraphError):
            random_gnp(5, 1.5, 0)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labelled(3)) == 8
        assert sum(1 for _ in enumerate_labelled(5)) == 1024

    def test_no_duplicates_up_to_n5(self):
        for n in (3, 4, 5):
            seen = {graph6_encode(g) for g in enumerate_labelled(n)}
            assert len(seen) == 1 << comb(n, 2)

    def test_cap(self):
        with pytest.raises(GraphError):
            enumerate_labelled(8)
        with pytest.raises(GraphError):
            enumerate_labelled(-1)

    def test_iter_masks_agrees_with_stream(self):
        # The stream visits the graphs of the Gray-code cursor, in its order.
        for n in (3, 4):
            via_stream = [graph6_encode(g) for g in enumerate_labelled(n)]
            via_masks = []
            for _, edge_count, adj in iter_masks(n):
                g = Graph(n, adj)
                assert g.edge_count == edge_count
                via_masks.append(graph6_encode(g))
            assert via_masks == via_stream

    def test_iter_masks_interval(self):
        full = [mask for mask, _, _ in iter_masks(4)]
        split = [mask for mask, _, _ in iter_masks(4, 0, 32)]
        split += [mask for mask, _, _ in iter_masks(4, 32, 64)]
        assert sorted(split) == sorted(full) == list(range(64))


def naive_delta_max(n: int, h, t: int) -> int:
    # Independent recount with conftest oracles only.
    pairs = list(itertools.combinations(range(n), 2))
    best = 0
    for mask in range(1 << len(pairs)):
        from k2tlab.graphs import build

        g = build(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])
        if naive_has_induced_k2t(g, t):
            continue
        if naive_has_subgraph(g, h):
            continue
        best = max(best, naive_triangles(g))
    return best


class TestDeltaMax:
    def test_h_equal_k3_is_zero(self):
        assert delta_max(3, complete(3), 2) == 0
        assert delta_max(5, complete(3), 2) == 0

    def test_k4_on_four_vertices(self):
        assert delta_max(4, complete(4), 2) == 2

    def test_c5_on_five_vertices(self):
        assert delta_max(5, cycle(5), 2) == 4

    def test_matches_naive_oracle(self):
        for n, h, t in [(4, complete(4), 2), (4, cycle(4), 2), (5, complete(4), 3)]:
            assert delta_max(n, h, t) == naive_delta_max(n, h, t)

    def test_monotone_under_supergraph_forbidding(self):
        # Forbidding a supergraph is weaker, so the maximum cannot drop.
        assert delta_max(5, complete(3), 2) <= delta_max(5, complete(4), 2)
        assert delta_max(5, path(4), 2) <= delta_max(5, cycle(5), 2)

    def test_cap(self):
        with pytest.raises(GraphError):
            delta_max(8, complete(3), 2)
