import itertools
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_graphs,
    graph_from_mask,
    naive_has_independent_set,
    naive_has_induced_k2t,
    naive_has_subgraph,
    naive_max_clique_size,
)
from k2tlab import detect
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
    _lex_set,
    _mask_lex_independent_tset,
    contains_family_member,
    contains_subgraph,
    embeds_at,
    find_independent_set,
    find_induced_k2t,
    mask_has_clique,
    mask_has_induced_k2t,
    max_clique,
    plan_embedding,
)
from k2tlab.graphs import GraphError, bits, build, graph6_encode


@st.composite
def graph_masks(draw, max_n=7, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << comb(n, 2)) - 1))
    return n, mask


class TestIndependentSet:
    def test_c5_lex_least(self):
        assert find_independent_set(cycle(5), 2) == {0, 2}

    def test_k5_none(self):
        assert find_independent_set(complete(5), 2) is None

    def test_k23_three_side(self):
        assert find_independent_set(complete_bipartite(2, 3), 3) == {2, 3, 4}

    def test_t_larger_than_n(self):
        assert find_independent_set(complete(3), 4) is None

    def test_rejects_t_zero(self):
        with pytest.raises(GraphError):
            find_independent_set(complete(3), 0)

    def test_exact_size_even_when_larger_exists(self):
        g = empty(6)
        result = find_independent_set(g, 3)
        assert result == {0, 1, 2}

    @given(graph_masks(max_n=6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=150)
    def test_matches_naive(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        found = find_independent_set(g, t)
        assert (found is not None) == naive_has_independent_set(g, t)


class TestInducedK2t:
    def test_c4_certificate(self):
        cert = find_induced_k2t(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 2)
        assert cert is not None
        assert {cert.a, cert.b} == {0, 2} and cert.t_side == {1, 3}

    def test_k5_none(self):
        assert find_induced_k2t(complete(5), 2) is None

    def test_k23_plus_edge_has_no_induced_k23(self):
        # Joining the 2-side kills every induced K_{2,3}.
        g = build(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 1)])
        assert find_induced_k2t(g, 3) is None
        # The plain K_{2,3} still has one.
        assert find_induced_k2t(complete_bipartite(2, 3), 3) is not None

    def test_rejects_t_one(self):
        with pytest.raises(GraphError):
            find_induced_k2t(complete(3), 1)

    def test_exhaustive_n6_t2_matches_naive_scan(self):
        for g in all_graphs(6):
            cert = find_induced_k2t(g, 2)
            assert (cert is not None) == naive_has_induced_k2t(g, 2)
            if cert is not None:
                assert cert.check(g)

    @given(graph_masks(max_n=7), st.integers(min_value=2, max_value=3))
    @settings(max_examples=150)
    def test_matches_naive(self, nm, t):
        n, mask = nm
        g = graph_from_mask(n, mask)
        cert = find_induced_k2t(g, t)
        assert (cert is not None) == naive_has_induced_k2t(g, t)

    @given(graph_masks(max_n=7), st.integers(min_value=2, max_value=3))
    @settings(max_examples=100)
    def test_none_without_independent_tset(self, nm, t):
        # The K_{2,t}-free class includes every graph with no independent
        # t-set at all.
        n, mask = nm
        g = graph_from_mask(n, mask)
        if find_independent_set(g, t) is None:
            assert find_induced_k2t(g, t) is None


class TestMaxClique:
    def test_k7(self):
        assert len(max_clique(complete(7))) == 7

    def test_c5(self):
        assert max_clique(cycle(5)) == {0, 1}

    def test_petersen(self, petersen_graph):
        assert len(max_clique(petersen_graph)) == 2

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphError):
            max_clique(build(0, []))

    def test_exhaustive_n6(self):
        for g in all_graphs(6):
            clique = max_clique(g)
            assert len(clique) == naive_max_clique_size(g)
            assert all(
                g.has_edge(u, v) for u, v in itertools.combinations(clique, 2)
            )

    @given(graph_masks(max_n=7, min_n=1))
    @settings(max_examples=150)
    def test_matches_naive(self, nm):
        n, mask = nm
        g = graph_from_mask(n, mask)
        assert len(max_clique(g)) == naive_max_clique_size(g)

    @given(graph_masks(max_n=6, min_n=1))
    @settings(max_examples=100)
    def test_complement_duality(self, nm):
        # omega(g) equals the size of a maximum independent set of the
        # complement, probed through the independent-set detector.
        n, mask = nm
        g = graph_from_mask(n, mask)
        omega = len(max_clique(g))
        comp = g.complement()
        assert find_independent_set(comp, omega) is not None
        assert (
            omega == n or find_independent_set(comp, omega + 1) is None
        )


class TestContainsSubgraph:
    def test_c5_has_no_triangle(self):
        assert contains_subgraph(cycle(5), complete(3)) is None

    def test_k4_contains_c4(self):
        emb = contains_subgraph(complete(4), cycle(4))
        assert emb is not None and emb.check(complete(4))

    def test_petersen_contains_c5(self, petersen_graph):
        emb = contains_subgraph(petersen_graph, cycle(5))
        assert emb is not None and emb.check(petersen_graph)

    def test_empty_pattern(self):
        emb = contains_subgraph(complete(3), build(0, []))
        assert emb is not None and emb.mapping == ()

    def test_pattern_cap(self):
        with pytest.raises(GraphError):
            contains_subgraph(complete(12), complete(11))

    @given(graph_masks(max_n=6), graph_masks(max_n=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive(self, host_nm, pat_nm):
        g = graph_from_mask(*host_nm)
        h = graph_from_mask(*pat_nm)
        emb = contains_subgraph(g, h)
        assert (emb is not None) == naive_has_subgraph(g, h)
        if emb is not None:
            assert emb.check(g)

    @given(graph_masks(max_n=6, min_n=1), graph_masks(max_n=4, min_n=1))
    @settings(max_examples=100, deadline=None)
    def test_anchored_matches_naive(self, host_nm, pat_nm):
        g = graph_from_mask(*host_nm)
        h = graph_from_mask(*pat_nm)
        for x in range(h.n):
            plan = plan_embedding(h, x)
            assert plan[0][0] == x
            for w in range(g.n):
                naive = any(
                    p[x] == w and all(g.has_edge(p[a], p[b]) for a, b in h.edges())
                    for p in itertools.permutations(range(g.n), h.n)
                )
                assert embeds_at(g, plan, w) == naive, (x, w)


class TestContainsFamilyMember:
    def test_first_member_wins(self):
        emb = contains_family_member(complete(3), [complete(3), complete(2)])
        assert emb is not None and emb.pattern == complete(3)

    def test_none_found(self):
        assert contains_family_member(empty(3), [complete(2)]) is None

    def test_c5_family_p4(self):
        emb = contains_family_member(cycle(5), [path(4)])
        assert emb is not None and emb.check(cycle(5))

    def test_rejects_empty_family(self):
        with pytest.raises(GraphError):
            contains_family_member(complete(3), [])


class TestCertificateCheckers:
    def test_embedding_rejects_non_injective(self):
        emb = Embedding(pattern=complete(2), mapping=(0, 0))
        assert not emb.check(complete(3))

    def test_embedding_rejects_missing_edge(self):
        emb = Embedding(pattern=complete(2), mapping=(0, 1))
        assert not emb.check(empty(2))

    def test_k2t_rejects_adjacent_pair(self):
        cert = InducedK2tCertificate(a=0, b=1, t_side=frozenset({2, 3}))
        assert not cert.check(complete(4))

    def test_k2t_rejects_edge_in_t_side(self):
        g = build(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        cert = InducedK2tCertificate(a=0, b=1, t_side=frozenset({2, 3}))
        assert not cert.check(g)


def first_independent_subset(g, universe, t):
    """The first independent t-subset of ``universe`` in combinations order."""
    for sub in itertools.combinations(sorted(universe), t):
        if all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
            return sub
    return None


def first_induced_k2t(g, t):
    """The first (a, b, t-side) in lexicographic pair order, naively."""
    for a, b in itertools.combinations(range(g.n), 2):
        if g.has_edge(a, b):
            continue
        side = first_independent_subset(g, g.neighbours(a) & g.neighbours(b), t)
        if side is not None:
            return a, b, sum(1 << v for v in side)
    return None


def naive_lex_set(g, universe, size, clique):
    """First ``size``-subset of ``universe`` in itertools order that is a
    clique (or an independent set), as a mask; None when there is none."""
    for sub in itertools.combinations(bits(universe), size):
        if all(g.has_edge(u, v) == clique for u, v in itertools.combinations(sub, 2)):
            return sum(1 << v for v in sub)
    return None


def sparse_hosts():
    """Mid-size hosts where most pairs have fewer than two common
    neighbours: G(30, p) for small p, the polarity graphs ER_q (no K_{2,2}
    at all), and ER_q with one chord added."""
    hosts = [pytest.param(random_gnp(30, p, seed), id=f"G(30,{p}) seed {seed}")
             for p in (0.1, 0.2, 0.3) for seed in (1, 2, 3)]
    rng = random.Random(13)
    for q in (3, 5, 7, 11):
        er = polarity_graph(q)
        hosts.append(pytest.param(er, id=f"ER_{q}"))
        non = [(u, v) for u, v in itertools.combinations(range(er.n), 2)
               if not er.has_edge(u, v)]
        for u, v in rng.sample(non, 2):
            chorded = build(er.n, list(er.edges()) + [(u, v)])
            hosts.append(pytest.param(chorded, id=f"ER_{q} + {u}-{v}"))
    return hosts


def check_mask_kernels(g):
    for t in range(2, 5):
        found = mask_has_induced_k2t(g.adj, g.n, t)
        assert (found is not None) == naive_has_induced_k2t(g, t)
        assert found == first_induced_k2t(g, t)
        if found is not None:
            a, b, side = found
            cert = InducedK2tCertificate(a=a, b=b, t_side=frozenset(bits(side)))
            assert cert.check(g)
            assert find_induced_k2t(g, t) == cert
    omega = naive_max_clique_size(g)
    for size in range(g.n + 2):
        assert mask_has_clique(g.adj, g.full_mask, size) == (size <= omega)
    for t in range(1, 5):
        expected = first_independent_subset(g, range(g.n), t)
        mask = _mask_lex_independent_tset(g.adj, g.full_mask, t)
        assert mask == (None if expected is None else sum(1 << v for v in expected))
        found = find_independent_set(g, t)
        assert found == (None if expected is None else frozenset(expected))


class TestMaskKernels:
    """The mask-level kernels against the itertools oracles."""

    def test_every_graph_up_to_five_vertices(self):
        for n in range(6):
            for g in all_graphs(n):
                check_mask_kernels(g)

    @given(graph_masks(max_n=7))
    @settings(max_examples=150, deadline=None)
    def test_drawn_graphs_up_to_seven_vertices(self, nm):
        check_mask_kernels(graph_from_mask(*nm))

    def test_lex_set_sizes_up_to_four_on_twelve_vertices(self):
        # Lex-least cliques and independent sets of sizes 0-4 inside
        # random universes: pins the size-1 and size-2 leaves of _lex_set.
        rng = random.Random(7)
        for trial in range(400):
            n = rng.randrange(0, 13)
            g = random_gnp(n, rng.choice((0.2, 0.5, 0.8)), trial)
            universe = rng.getrandbits(n) if trial % 2 else g.full_mask
            for size in range(5):
                for flip, clique in ((0, True), (-1, False)):
                    expected = naive_lex_set(g, universe, size, clique)
                    assert _lex_set(g.adj, universe, size, flip) == expected

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_lex_set_on_unions_of_cliques(self, size):
        # k cliques joined by random chords, labels shuffled on odd trials,
        # and their complements: alpha (omega of the complement) is at most
        # k, so for k < size the class-cover bound may stop the search,
        # while for k = size the largest set often has exactly size
        # vertices and the bound must not fire.
        rng = random.Random(size)
        exact = 0
        for trial in range(60):
            k = rng.randint(1, size)
            block = [i for i in range(k) for _ in range(rng.randint(1, 3))]
            n = len(block)
            label = list(range(n))
            if trial % 2:
                rng.shuffle(label)
            g = build(n, [(label[u], label[v]) for u, v in itertools.combinations(range(n), 2)
                          if block[u] == block[v] or rng.random() < 0.15])
            for host, flip, clique in ((g, -1, False), (g.complement(), 0, True)):
                for universe in (host.full_mask, rng.getrandbits(n)):
                    expected = naive_lex_set(host, universe, size, clique)
                    assert _lex_set(host.adj, universe, size, flip) == expected
                    assert k == size or expected is None
            exact += naive_lex_set(g, g.full_mask, size, False) is not None
        assert exact >= 5

    @pytest.mark.parametrize("clique", [False, True])
    def test_failing_size_three_searches_stop_on_the_cover(self, monkeypatch, clique):
        # An independent 3-set among two disjoint m-cliques, and a 3-clique
        # in K_{m,m}: after the first branch fails, the two-class cover must
        # end the search, so the number of _lex_set calls (recursion
        # included) does not grow with m and the work stays linear in n.
        calls = 0
        kernel = detect._lex_set

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(detect, "_lex_set", counted)
        counts = []
        for m in (10, 40, 160):
            host = complete_bipartite(m, m)
            if not clique:
                host = host.complement()
            calls = 0
            assert detect._lex_set(host.adj, host.full_mask, 3, 0 if clique else -1) is None
            counts.append(calls)
        assert counts == [2, 2, 2]

    @pytest.mark.parametrize("g", sparse_hosts())
    def test_sparse_mid_size_hosts(self, g):
        # The two-common-neighbour prefilter drops most pairs here; the
        # certificate must still be the lex-least one.
        for t in (2, 3):
            found = mask_has_induced_k2t(g.adj, g.n, t)
            assert found == first_induced_k2t(g, t)
            cert = find_induced_k2t(g, t)
            assert (cert is None) == (found is None)
            if found is not None:
                a, b, side = found
                assert (cert.a, cert.b, cert.t_side) == (a, b, frozenset(bits(side)))


SELF_CHECK_SCRIPT = """
import sys
from click.testing import CliRunner
from k2tlab import cli, detect
from k2tlab.constructions import cycle

if __debug__:
    sys.exit("run under python -O")
# A kernel that returns an adjacent pair where an independent set is asked.
detect._lex_set = lambda adj, universe, size, flip: 0b11
try:
    detect.find_independent_set(cycle(5), 2)
except detect.SelfCheckError:
    pass
else:
    sys.exit("find_independent_set returned a wrong set unchecked")
result = CliRunner().invoke(cli.main, ["detect", "--graph", sys.argv[1]])
if result.exit_code != 2 or "self-check failed" not in result.output:
    sys.exit(f"detect exited {result.exit_code}: {result.output}")
print("ok")
"""


def test_self_checks_survive_python_O(tmp_path):
    graph = tmp_path / "c4.g6"
    graph.write_text(graph6_encode(cycle(4)) + "\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECK_SCRIPT, str(graph)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"
