import itertools
import time
from fractions import Fraction
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, graph_from_mask, naive_triangles
from k2tlab.constructions import complete, complete_bipartite, cycle, random_gnp, turan
from k2tlab.graphs import (
    MAX_EDGE_TEXT_VERTICES,
    Graph,
    GraphError,
    build,
    common_neighbourhood,
    density,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    missing_edges,
    neighbourhood_subgraph,
    parse_edge_text,
    triangle_count,
)


@st.composite
def graph_masks(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << comb(n, 2)) - 1))
    return n, mask


@st.composite
def loopless_rows(draw, max_n=12):
    """Adjacency rows of a random graph with up to four one-sided bit flips,
    so some stay symmetric and some have an even number of stray bits."""
    n, mask = draw(graph_masks(max_n=max_n))
    rows = list(graph_from_mask(n, mask).adj)
    if n >= 2:
        pairs = st.sampled_from(list(itertools.permutations(range(n), 2)))
        for v, u in draw(st.lists(pairs, max_size=4)):
            rows[v] ^= 1 << u
    return n, rows


class TestBuild:
    def test_c4(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.edge_count == 4
        assert g.neighbours(0) == {1, 3}

    def test_empty(self):
        g = build(3, [])
        assert g.edge_count == 0
        assert density(g).alpha == 0

    def test_k5(self):
        g = build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert g.edge_count == 10
        assert density(g).alpha == 1

    def test_duplicates_collapse(self):
        g = build(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            build(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            build(3, [(0, 3)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphError):
            Graph(2, [0b10, 0b00])

    def test_rejects_even_number_of_unmirrored_bits(self):
        # 0 -> 2 is mirrored; 1 -> 0 and 2 -> 1 are not, and their count is even.
        with pytest.raises(GraphError, match=r"asymmetric pair \(0, 1\)"):
            Graph(3, [4, 1, 3])

    @given(loopless_rows())
    @settings(max_examples=300)
    def test_accepts_exactly_the_symmetric_rows(self, case):
        n, rows = case
        symmetric = all(
            (rows[v] >> u & 1) == (rows[u] >> v & 1)
            for v in range(n)
            for u in range(n)
        )
        if symmetric:
            assert Graph(n, rows).edge_count == sum(r.bit_count() for r in rows) // 2
        else:
            with pytest.raises(GraphError, match="asymmetric pair"):
                Graph(n, rows)

    def test_largest_complete_graph_builds_in_under_a_second(self):
        started = time.perf_counter()
        g = complete(2896)
        assert time.perf_counter() - started < 1.0
        assert g.edge_count == comb(2896, 2)

    def test_immutable(self):
        g = build(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5


class TestDensity:
    def test_c5_half(self):
        assert density(cycle(5)).alpha == Fraction(1, 2)

    def test_k4_full(self):
        assert density(complete(4)).alpha == 1

    def test_petersen_third(self, petersen_graph):
        stats = density(petersen_graph)
        assert stats.alpha == Fraction(1, 3)
        assert stats.edge_count == 15
        assert stats.missing_count == 30

    def test_rejects_single_vertex(self):
        with pytest.raises(GraphError):
            density(build(1, []))

    @given(graph_masks())
    @settings(max_examples=200)
    def test_alpha_times_pairs_is_edge_count(self, nm):
        n, mask = nm
        if n < 2:
            return
        g = graph_from_mask(n, mask)
        stats = density(g)
        assert stats.alpha * comb(n, 2) == stats.edge_count
        assert stats.edge_count + stats.missing_count == comb(n, 2)


class TestNeighbourhood:
    def test_k4_gives_triangle(self):
        sub = neighbourhood_subgraph(complete(4), 2)
        assert sub.graph.n == 3 and sub.graph.edge_count == 3
        assert sub.vertices == (0, 1, 3)

    def test_c5_gives_two_isolated(self):
        sub = neighbourhood_subgraph(cycle(5), 0)
        assert sub.graph.n == 2 and sub.graph.edge_count == 0

    def test_petersen_gives_three_isolated(self, petersen_graph):
        for v in range(10):
            sub = neighbourhood_subgraph(petersen_graph, v)
            assert sub.graph.n == 3 and sub.graph.edge_count == 0

    def test_relabelling_lifts_back(self):
        g = build(5, [(1, 3), (1, 4), (3, 4), (0, 2)])
        sub = neighbourhood_subgraph(g, 1)
        for i, j in sub.graph.edges():
            assert g.has_edge(sub.to_parent(i), sub.to_parent(j))

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            neighbourhood_subgraph(complete(3), 3)


class TestMissingEdges:
    def test_complete_none(self):
        assert missing_edges(complete(5)) == []

    def test_c4_diagonals(self):
        assert missing_edges(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == [
            (0, 2),
            (1, 3),
        ]

    def test_empty_all(self):
        assert len(missing_edges(build(4, []))) == 6


class TestCommonNeighbourhood:
    def test_c4_diagonal(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert common_neighbourhood(g, 0, 2) == {1, 3}

    def test_c5_nonadjacent(self):
        assert common_neighbourhood(cycle(5), 0, 2) == {1}

    def test_k23_two_side(self):
        g = complete_bipartite(2, 3)
        assert common_neighbourhood(g, 0, 1) == {2, 3, 4}

    def test_rejects_equal_vertices(self):
        with pytest.raises(GraphError):
            common_neighbourhood(complete(3), 1, 1)


class TestTriangles:
    def test_k5(self):
        assert triangle_count(complete(5)) == 10

    def test_petersen_zero(self, petersen_graph):
        assert triangle_count(petersen_graph) == 0
        assert naive_triangles(petersen_graph) == 0

    def test_c4_zero(self):
        assert triangle_count(cycle(4)) == 0

    def test_exhaustive_matches_neighbourhood_identity(self):
        # triangle_count = sum of e(G_v) over v, divided by 3.
        for n in range(2, 7):
            for g in all_graphs(n):
                via_nbhd = sum(
                    neighbourhood_subgraph(g, v).graph.edge_count
                    for v in range(n)
                )
                assert via_nbhd % 3 == 0
                assert triangle_count(g) == via_nbhd // 3

    def test_thousand_random_graphs_match_identity_and_naive(self):
        for seed in range(1000):
            g = random_gnp(11, (seed % 9 + 1) / 10, seed)
            via_nbhd = sum(
                neighbourhood_subgraph(g, v).graph.edge_count for v in range(g.n)
            )
            assert triangle_count(g) == via_nbhd // 3 == naive_triangles(g)

    @given(graph_masks())
    @settings(max_examples=150)
    def test_random_matches_naive(self, nm):
        n, mask = nm
        g = graph_from_mask(n, mask)
        assert triangle_count(g) == naive_triangles(g)


class TestInducedSubgraph:
    def test_subset(self):
        g = cycle(5)
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.graph.edges() == [(0, 1), (1, 2)]
        assert sub.vertices == (0, 1, 2)


class TestGraph6:
    def test_empty_graph(self):
        assert graph6_encode(build(0, [])) == "?"
        assert graph6_decode("?").n == 0

    def test_k2(self):
        # n=2 -> 'A'; single bit 1 padded to 100000 -> chr(32+63) = '_'.
        assert graph6_encode(complete(2)) == "A_"
        assert graph6_decode("A_") == complete(2)

    def test_header_stripped(self):
        assert graph6_decode(">>graph6<<A_") == complete(2)

    def test_exhaustive_roundtrip_small(self):
        for n in range(0, 7):
            count = 0
            for g in all_graphs(n):
                s = graph6_encode(g)
                assert graph6_decode(s) == g
                count += 1
            assert count == 1 << comb(n, 2)

    def test_cross_check_networkx(self):
        for seed in range(120):
            g = random_gnp(seed % 17, 0.4, seed + 1)
            mine = graph6_encode(g)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert mine == theirs
            assert graph6_decode(theirs) == g

    @pytest.mark.parametrize("n", [62, 63, 64, 300])
    def test_networkx_bytes_across_the_header_switch(self, n):
        # graph6 spends one vertex-count byte up to n = 62 and four from 63.
        for g in (complete(n), cycle(n), turan(n, 5), random_gnp(n, 0.5, n)):
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert graph6_encode(g) == theirs
            assert graph6_decode(theirs) == g

    def test_largest_complete_graph_decodes_in_under_a_second(self):
        text = graph6_encode(complete(2896))
        started = time.perf_counter()
        g = graph6_decode(text)
        assert time.perf_counter() - started < 1.0
        assert g == complete(2896) and g.edge_count == comb(2896, 2)

    def test_large_n_header(self):
        g = build(63, [(0, 62)])
        s = graph6_encode(g)
        assert s.startswith("~")
        assert graph6_decode(s) == g

    def test_rejects_truncated(self):
        with pytest.raises(GraphError):
            graph6_decode("D")

    def test_rejects_out_of_range_byte(self):
        with pytest.raises(GraphError):
            graph6_decode("D" + chr(200))

    def test_rejects_trailing_garbage(self):
        with pytest.raises(GraphError):
            graph6_decode("A__")

    def test_rejects_nonzero_padding(self):
        # "A`": the K2 body byte 100001 has a stray padding bit set.
        with pytest.raises(GraphError):
            graph6_decode("A`")

    @given(graph_masks())
    @settings(max_examples=200)
    def test_roundtrip_property(self, nm):
        n, mask = nm
        g = graph_from_mask(n, mask)
        assert graph6_decode(graph6_encode(g)) == g


class TestEdgeText:
    def test_roundtrip(self):
        g = cycle(6)
        text = "".join(f"{u} {v}\n" for u, v in g.edges())
        assert parse_edge_text(f"{g.n}\n{text}") == g

    def test_header_fixes_n(self):
        g = parse_edge_text("4\n0 1\n")
        assert g.n == 4 and g.edge_count == 1

    def test_infers_n(self):
        g = parse_edge_text("0 1\n2 3\n")
        assert g.n == 4 and g.edge_count == 2

    def test_comments_and_blanks(self):
        g = parse_edge_text("# a square\n0 1\n\n1 2\n2 3\n3 0\n")
        assert g == build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_rejects_malformed(self):
        with pytest.raises(GraphError):
            parse_edge_text("0 1 2\n")

    def test_rejects_vertex_count_over_cap(self):
        # One past the cap: a missing check allocates only that much.
        n = MAX_EDGE_TEXT_VERTICES + 1
        with pytest.raises(GraphError, match="cap"):
            parse_edge_text(f"{n}\n")
        with pytest.raises(GraphError, match="cap"):
            parse_edge_text(f"0 {n - 1}\n")
        assert parse_edge_text(f"{MAX_EDGE_TEXT_VERTICES}\n").n == n - 1
