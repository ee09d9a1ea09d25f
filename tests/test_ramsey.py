import itertools
import math
import random
import time
from operator import itemgetter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, graph_from_mask
from k2tlab import ramsey
from k2tlab.constructions import (
    complete,
    complete_bipartite,
    cycle,
    empty,
    path,
)
from k2tlab.detect import (
    SelfCheckError,
    _lex_set,
    contains_family_member,
    contains_subgraph,
    find_independent_set,
)
from k2tlab.graphs import Graph, GraphError, bits, build, graph6_decode, graph6_encode
from k2tlab.ramsey import (
    RamseyQuery,
    RamseyResult,
    explicit_family,
    family_minus_ebar,
    family_minus_vertex,
    invariant_key,
    is_isomorphic,
    known_ramsey,
    ramsey_exact,
)


def members_signature(family):
    return sorted((m.n, m.edge_count) for m in family.members)


class TestWitnessGuard:
    """``ramsey_exact`` re-checks its witness before returning; the
    ramsey-small suite relies on this guard and does not repeat it."""

    @pytest.mark.parametrize(
        "guard", ["find_independent_set", "contains_family_member"]
    )
    @pytest.mark.parametrize("t, r", [(3, 3), (2, 4)])
    def test_bad_witness_raises(self, monkeypatch, guard, t, r):
        monkeypatch.setattr(ramsey, guard, lambda *args: (0,))
        with pytest.raises(SelfCheckError, match="Ramsey witness"):
            ramsey_exact(RamseyQuery(t=t, family=explicit_family([complete(r)])))


class TestIsomorphism:
    def test_cycle_relabellings(self):
        g = build(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
        assert is_isomorphic(g, cycle(5))

    def test_different_degree_sequences(self):
        assert not is_isomorphic(path(4), build(4, [(0, 1), (0, 2), (0, 3)]))

    def test_self_complementary(self):
        assert is_isomorphic(path(4), path(4).complement())

    def test_relabelled_grid(self):
        # Rare colours first would jump between far corners of the grid;
        # each step after the first takes a vertex next to a placed one.
        side = 16
        edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
        edges += [(v, v + side) for v in range(side * (side - 1))]
        grid = build(side * side, edges)
        start = time.perf_counter()
        assert is_isomorphic(grid, relabel(grid, shuffled(grid.n, random.Random(1))))
        assert time.perf_counter() - start < 5

    def test_vertex_cap(self):
        cap = ramsey.MAX_ISOMORPHISM_VERTICES
        assert is_isomorphic(cycle(cap), cycle(cap))
        with pytest.raises(GraphError):
            is_isomorphic(cycle(cap + 1), cycle(cap + 1))
        # Unequal orders or sizes are answered without a search.
        assert not is_isomorphic(cycle(cap + 1), cycle(cap + 2))


def relabel(g, perm):
    """g with each vertex v renamed perm[v]."""
    return build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shuffled(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def all_classes(n_max):
    """One graph per isomorphism class on n = 0..n_max vertices, by level:
    every class on n vertices is a one-vertex extension of one on n - 1,
    and no graph on n_max <= 6 vertices has an independent 7-set."""
    levels = [[build(0, [])]]
    for _ in range(n_max):
        levels.append(ramsey._dedupe(
            g for parent in levels[-1] for g in ramsey._extensions(parent, 7)
        ))
    return levels


def shrikhande():
    """Cayley graph of Z_4 x Z_4 with connection set +-(0,1), +-(1,0), +-(1,1)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return build(16, [
        (u, v) for u, v in itertools.combinations(range(16), 2)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps
    ])


def rook_4x4():
    """K_4 x K_4: the cells of a 4 x 4 board, adjacent in a row or a column."""
    return build(16, [
        (u, v) for u, v in itertools.combinations(range(16), 2)
        if u // 4 == v // 4 or u % 4 == v % 4
    ])


# Pairs with equal invariant keys that are not isomorphic: colour
# refinement cannot split them, only the backtracking can.
REFINEMENT_BLIND = {
    # Both 2-regular on 6 vertices.
    "C6 / 2K3": lambda: (
        cycle(6), build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    ),
    # Both 3-regular on 6 vertices; only the prism has odd cycles.
    "K33 / prism": lambda: (
        complete_bipartite(3, 3),
        build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                  (0, 3), (1, 4), (2, 5)]),
    ),
    "Shrikhande / rook": lambda: (shrikhande(), rook_4x4()),  # both srg(16,6,2,2)
}

# Pairs that one refinement round, the only colouring (``_signatures``),
# cannot split but three rounds can: they share a dedupe bucket and an
# invariant key, so the backtracking must refute them.
ONE_ROUND_BLIND = {
    # Both: two leaves, two vertices next to a leaf, three other vertices
    # of degree 2. Two of those three are next to a leaf's neighbour in P7,
    # none in P4 + K3.
    "P7 / P4 + K3": lambda: (
        path(7), build(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4)])
    ),
}


def assert_dedupe_keeps_first_copies(a, b, rng):
    """``_dedupe`` on a, b and relabelled copies of each keeps a and b only."""
    copies = [a, b] + [relabel(g, shuffled(g.n, rng)) for _ in range(3) for g in (b, a)]
    kept = ramsey._dedupe(enumerate(copies), itemgetter(1))
    assert [i for i, _ in kept] == [0, 1]


class TestRelabellingInvariance:
    """``invariant_key`` and ``is_isomorphic`` (both on ``_signatures``)
    must not depend on the labelling."""

    def test_every_class_up_to_six_vertices(self):
        rng = random.Random(6)
        levels = all_classes(6)
        assert [len(level) for level in levels] == [1, 1, 2, 4, 11, 34, 156]
        for g in itertools.chain(*levels):
            for _ in range(8):
                h = relabel(g, shuffled(g.n, rng))
                assert invariant_key(h) == invariant_key(g), graph6_encode(g)
                assert is_isomorphic(g, h) and is_isomorphic(h, g), graph6_encode(g)

    @given(
        st.integers(min_value=0, max_value=9).flatmap(
            lambda n: st.tuples(
                st.integers(min_value=0, max_value=(1 << math.comb(n, 2)) - 1),
                st.permutations(range(n)),
            )
        )
    )
    @settings(max_examples=300)
    def test_drawn_graphs_up_to_nine_vertices(self, case):
        mask, perm = case
        g = graph_from_mask(len(perm), mask)
        h = relabel(g, perm)
        assert invariant_key(h) == invariant_key(g)
        assert is_isomorphic(g, h)


def colour_classes(colours):
    return sorted(
        tuple(v for v, c in enumerate(colours) if c == x) for x in set(colours)
    )


class TestIsomorphismAgainstBruteForce:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_small_pairs(self, n):
        # Orbits of the labelled graphs (as pair masks) under every
        # relabelling; for n = 5 each graph meets one member of every orbit.
        pairs = list(itertools.combinations(range(n), 2))
        index = {uv: k for k, uv in enumerate(pairs)}
        moved = [
            [index[tuple(sorted((p[u], p[v])))] for u, v in pairs]
            for p in itertools.permutations(range(n))
        ]
        orbit = {}
        for mask in range(1 << len(pairs)):
            if mask not in orbit:
                for to in moved:
                    orbit[sum(1 << to[k] for k in bits(mask))] = mask
        reps = sorted(set(orbit.values())) if n == 5 else sorted(orbit)
        graphs = {mask: graph_from_mask(n, mask) for mask in orbit}
        for a in orbit:
            for b in reps:
                assert is_isomorphic(graphs[a], graphs[b]) == (orbit[a] == orbit[b]), (
                    n, a, b
                )

    @pytest.mark.parametrize("name", sorted(REFINEMENT_BLIND))
    def test_refinement_blind_pairs(self, name):
        a, b = REFINEMENT_BLIND[name]()
        assert invariant_key(a) == invariant_key(b)
        assert not is_isomorphic(a, b) and not is_isomorphic(b, a)
        perm = shuffled(a.n, random.Random(16))
        assert is_isomorphic(a, relabel(a, perm)) and is_isomorphic(b, relabel(b, perm))
        assert_dedupe_keeps_first_copies(a, b, random.Random(16))

    @pytest.mark.parametrize("name", sorted(ONE_ROUND_BLIND))
    def test_one_round_blind_pairs(self, name):
        a, b = ONE_ROUND_BLIND[name]()
        # One colouring serves every caller, so the public key cannot split
        # them either, and the backtracking refutes them both ways.
        ca, cb = (ramsey._signatures(g) for g in (a, b))
        assert invariant_key(a) == invariant_key(b)
        assert invariant_key(a, ca) == invariant_key(b, cb) == invariant_key(a)
        assert not is_isomorphic(a, b) and not is_isomorphic(b, a)
        assert not is_isomorphic(a, b, (ca, cb)) and not is_isomorphic(b, a, (cb, ca))
        assert_dedupe_keeps_first_copies(a, b, random.Random(17))


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def blind_corpus(rng):
    """Every blind pair, with seeded relabellings of each side."""
    pairs = []
    for make in [*REFINEMENT_BLIND.values(), *ONE_ROUND_BLIND.values()]:
        a, b = make()
        a2, b2 = (relabel(g, shuffled(g.n, rng)) for g in (a, b))
        pairs += [(a, b), (a, b2), (a2, b), (a, a2), (b, b2)]
    return pairs


def swap_corpus(rng):
    """G(n, p) against a relabelling of one seeded degree-preserving double
    edge swap of it, for n = 10..40. The swap keeps every signature when
    each of its four vertices trades a neighbour for one of the same
    degree, which happens often enough on these sizes to give both answers
    with equal keys."""
    pairs = []
    for n in range(10, 41):
        for p in (0.1, 0.2, 0.3, 0.5):
            for _ in range(3):
                g = nx.gnp_random_graph(n, p, seed=rng.getrandbits(32))
                if g.number_of_edges() < 2:
                    continue
                h = g.copy()
                try:
                    nx.double_edge_swap(h, nswap=1, max_tries=100, seed=rng.getrandbits(32))
                except nx.NetworkXException:
                    continue
                b = build(n, list(h.edges()))
                pairs.append((build(n, list(g.edges())), relabel(b, shuffled(n, rng))))
    return pairs


class TestIsomorphismAgainstNetworkx:
    """Public ``is_isomorphic`` agrees with ``networkx.is_isomorphic`` in both
    argument orders on pairs whose invariant keys are equal, where only the
    backtracking can answer False."""

    @staticmethod
    def check(pairs):
        non_isomorphic = 0
        for a, b in pairs:
            if invariant_key(a) != invariant_key(b):
                continue
            want = nx.is_isomorphic(to_networkx(a), to_networkx(b))
            assert is_isomorphic(a, b) == want, (graph6_encode(a), graph6_encode(b))
            assert is_isomorphic(b, a) == want, (graph6_encode(a), graph6_encode(b))
            non_isomorphic += not want
        return non_isomorphic

    def test_blind_pairs_and_relabellings(self):
        pairs = blind_corpus(random.Random(30))
        assert all(invariant_key(a) == invariant_key(b) for a, b in pairs)
        # a against b, b's relabelling, and a's relabelling against b.
        assert self.check(pairs) == 3 * (len(REFINEMENT_BLIND) + len(ONE_ROUND_BLIND))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_degree_preserving_swaps(self, seed):
        assert self.check(swap_corpus(random.Random(seed))) >= 1


def canonical_form(g):
    """The least sorted edge list over every relabelling of g."""
    edges = list(g.edges())
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        for p in itertools.permutations(range(g.n))
    )


def one_round_classes(g):
    return colour_classes([
        (g.degree(v), tuple(sorted(g.degree(u) for u in bits(g.adj[v]))))
        for v in range(g.n)
    ])


def carry_pair_host():
    """55 vertices; x = 0 has 16 neighbours of degree 1 and one (z = 17) of
    degree 3, y = 20 has 17 neighbours of degree 2. Packed in fixed 4-bit
    fields both read 17 + 16 * 16^1 + 16^3 = 17 + 17 * 16^2."""
    edges = [(0, u) for u in range(1, 18)] + [(17, 18), (17, 19)]
    edges += [(20, u) for u in range(21, 38)] + [(u, u + 17) for u in range(21, 38)]
    return build(55, edges)


class TestDedupeContract:
    """``_dedupe`` keeps the first item of each isomorphism class, in order,
    and pays for each dropped item with exactly one True test through the
    module's ``is_isomorphic``, called positionally."""

    @staticmethod
    def stream(seed):
        rng = random.Random(seed)
        bases = [g for pair in (
            ONE_ROUND_BLIND["P7 / P4 + K3"](),
            REFINEMENT_BLIND["C6 / 2K3"](),
            REFINEMENT_BLIND["K33 / prism"](),
        ) for g in pair]
        bases += [graph_from_mask(n, rng.getrandbits(math.comb(n, 2))) for n in (4, 5, 5, 6)]
        copies = [relabel(g, shuffled(g.n, rng)) for g in bases for _ in range(3)]
        rng.shuffle(copies)
        return copies

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_keeps_first_of_each_class(self, monkeypatch, seed):
        items = list(enumerate(self.stream(seed)))
        true_tests = []

        def counted(*args):
            result = is_isomorphic(*args)
            if result:
                true_tests.append(args[0])
            return result

        monkeypatch.setattr(ramsey, "is_isomorphic", counted)
        kept = ramsey._dedupe(items, itemgetter(1))
        firsts = {}
        for i, g in items:
            firsts.setdefault(canonical_form(g), i)
        assert [i for i, _ in kept] == sorted(firsts.values())
        assert len(true_tests) == len(items) - len(kept)

    def test_signatures_split_like_one_round_past_four_bit_fields(self):
        # At n >= 17 a count or degree can reach 16, which a fixed 4-bit
        # field carries into the next field; the width taken from n keeps
        # every field apart.
        g = carry_pair_host()
        four_bit = [
            g.degree(v) + sum(16 ** g.degree(u) for u in bits(g.adj[v]))
            for v in range(g.n)
        ]
        assert four_bit[0] == four_bit[20]
        assert colour_classes(four_bit) != one_round_classes(g)
        assert colour_classes(ramsey._signatures(g)) == one_round_classes(g)
        for h in itertools.chain(*all_classes(6), (shrikhande(), rook_4x4())):
            assert colour_classes(ramsey._signatures(h)) == one_round_classes(h)


class TestFamilies:
    def test_k4_minus_vertex(self):
        fam = family_minus_vertex(complete(4))
        assert len(fam.members) == 1
        assert is_isomorphic(fam.members[0], complete(3))

    def test_c5_minus_vertex(self):
        fam = family_minus_vertex(cycle(5))
        assert len(fam.members) == 1
        assert is_isomorphic(fam.members[0], path(4))

    def test_k23_minus_vertex(self):
        fam = family_minus_vertex(complete_bipartite(2, 3))
        assert members_signature(fam) == [(4, 3), (4, 4)]
        kinds = {m.edge_count for m in fam.members}
        assert kinds == {3, 4}  # K_{1,3} and K_{2,2}

    def test_k4_minus_ebar_no_nonedges(self):
        fam = family_minus_ebar(complete(4))
        assert len(fam.members) == 1
        assert is_isomorphic(fam.members[0], complete(3))

    def test_c4_minus_ebar(self):
        fam = family_minus_ebar(cycle(4))
        assert members_signature(fam) == [(2, 0), (3, 2)]

    def test_c5_minus_ebar(self):
        fam = family_minus_ebar(cycle(5))
        # P4 from vertex deletion; K2 + K1 from any non-adjacent pair.
        assert members_signature(fam) == [(3, 1), (4, 3)]

    def test_ebar_extends_vertex_family(self):
        for h in (cycle(5), complete_bipartite(2, 3), path(5)):
            fx = family_minus_vertex(h)
            fe = family_minus_ebar(h)
            for member in fx.members:
                assert any(is_isomorphic(member, m) for m in fe.members)

    def test_provenance_rebuilds_member(self):
        h = complete_bipartite(2, 3)
        fam = family_minus_vertex(h)
        for member, kept in zip(fam.members, fam.provenance):
            assert len(kept) == member.n
            for i, j in member.edges():
                assert h.has_edge(kept[i], kept[j])

    def test_members_pairwise_nonisomorphic(self):
        for h in (cycle(6), complete_bipartite(3, 3), path(6)):
            fam = family_minus_ebar(h)
            ms = fam.members
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    assert not is_isomorphic(ms[i], ms[j])

    def test_too_small(self):
        with pytest.raises(GraphError):
            family_minus_vertex(complete(1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: explicit_family([complete(11)]),
            lambda: family_minus_vertex(complete(12)),
            lambda: family_minus_ebar(complete(12)),
        ],
    )
    def test_member_above_pattern_cap(self, build):
        with pytest.raises(GraphError, match="cap at 10"):
            build()

    def test_largest_h_under_the_cap(self):
        fam = family_minus_vertex(complete(11))
        assert len(fam.members) == 1 and fam.members[0] == complete(10)


class TestRamseyExact:
    def test_r33_with_pentagon_witness(self):
        res = ramsey_exact(RamseyQuery(t=3, family=explicit_family([complete(3)])))
        assert res.exact == 6
        assert is_isomorphic(res.lower_witness, cycle(5))

    def test_r2r_identity(self):
        for r in range(1, 8):
            res = ramsey_exact(
                RamseyQuery(t=2, family=explicit_family([complete(r)]))
            )
            assert res.exact == r

    def test_r2_p4(self):
        res = ramsey_exact(RamseyQuery(t=2, family=explicit_family([path(4)])))
        assert res.exact == 4

    def test_r34(self):
        res = ramsey_exact(
            RamseyQuery(t=3, family=explicit_family([complete(4)])), n_cap=9
        )
        assert res.exact == 9
        w = res.lower_witness
        assert w.n == 8
        assert find_independent_set(w, 3) is None
        assert contains_family_member(w, [complete(4)]) is None

    def test_family_h_minus_x_for_k3(self):
        # R(K_2, {K2}) = 2: single missing edge forces the family member.
        res = ramsey_exact(RamseyQuery(t=2, family=family_minus_vertex(complete(3))))
        assert res.exact == 2

    def test_bracket_when_capped(self):
        res = ramsey_exact(
            RamseyQuery(t=3, family=explicit_family([complete(4)])), n_cap=5
        )
        assert res.exact is None
        assert res.lower == 6
        assert res.upper == math.comb(4 + 3 - 2, 3 - 1)
        assert res.lower <= res.upper
        assert res.lower_witness.n == 5

    def test_witness_validity_asserted(self):
        res = ramsey_exact(
            RamseyQuery(t=3, family=explicit_family([cycle(4), complete(3)]))
        )
        w = res.lower_witness
        assert find_independent_set(w, 3) is None
        assert contains_family_member(w, [cycle(4), complete(3)]) is None

    def test_monotone_in_family(self):
        # Enlarging the family can only shrink the Ramsey number.
        small = ramsey_exact(
            RamseyQuery(t=2, family=explicit_family([complete(4)]))
        )
        large = ramsey_exact(
            RamseyQuery(t=2, family=explicit_family([complete(4), path(3)]))
        )
        assert large.exact <= small.exact

    def test_monotone_in_t(self):
        fam = explicit_family([complete(3)])
        r2 = ramsey_exact(RamseyQuery(t=2, family=fam))
        r3 = ramsey_exact(RamseyQuery(t=3, family=fam))
        assert r2.exact <= r3.exact

    def test_minus_ebar_never_exceeds_minus_vertex(self):
        for h in (complete(4), cycle(4), cycle(5), complete_bipartite(2, 3)):
            for t in (2, 3):
                rx = ramsey_exact(RamseyQuery(t=t, family=family_minus_vertex(h)))
                re_ = ramsey_exact(RamseyQuery(t=t, family=family_minus_ebar(h)))
                assert (re_.exact or re_.lower) <= (rx.exact or rx.upper)

    def test_es_bound_never_violated(self):
        for t, r in ((2, 4), (2, 6), (3, 3), (3, 4)):
            res = ramsey_exact(
                RamseyQuery(t=t, family=explicit_family([complete(r)])), n_cap=9
            )
            if res.exact is not None:
                assert res.exact <= math.comb(r + t - 2, t - 1)

    def test_deterministic_witness(self):
        fam = explicit_family([complete(3)])
        w1 = ramsey_exact(RamseyQuery(t=3, family=fam)).lower_witness
        w2 = ramsey_exact(RamseyQuery(t=3, family=fam)).lower_witness
        assert graph6_encode(w1) == graph6_encode(w2)

    def test_degree_rule_moves_this_witness(self):
        # R(K_3, {H - x}) for H = E]~o at cap 9: the level classes are those
        # of the unpruned step, but the degree rule keeps other
        # representatives, and the least graph6 among them is HQjRrv{
        # (HQjRuhy with every mask).
        family = family_minus_vertex(graph6_decode("E]~o"))
        got = ramsey_exact(RamseyQuery(t=3, family=family), n_cap=9)
        assert (got.lower, got.upper) == (10, 15)
        assert graph6_encode(got.lower_witness) == "HQjRrv{"

    def test_one_vertex_member(self):
        # R(K_t, {K1}) = 1 with the empty witness.
        res = ramsey_exact(RamseyQuery(t=2, family=explicit_family([complete(1)])))
        assert res.exact == 1
        assert res.lower_witness.n == 0

    def test_rejects_bad_cap(self):
        with pytest.raises(GraphError):
            ramsey_exact(
                RamseyQuery(t=2, family=explicit_family([complete(3)])), n_cap=11
            )

    def test_rejects_empty_family(self):
        with pytest.raises(GraphError):
            explicit_family([])


class TestKnownRamsey:
    def test_reverified_entries(self):
        assert known_ramsey(3, 3) == 6
        assert known_ramsey(3, 4) == 9
        assert known_ramsey(2, 9) == 9
        assert known_ramsey(4, 2) == 4
        assert known_ramsey(5, 1) == 1

    def test_unknown_entries_stay_none(self):
        assert known_ramsey(3, 5) is None
        assert known_ramsey(4, 4) is None
        assert known_ramsey(1, 3) is None

    def test_agreement_with_search(self):
        cases = [(2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (3, 1)]
        for t, r in cases:
            res = ramsey_exact(
                RamseyQuery(
                    t=t,
                    family=explicit_family([complete(r)]),
                ),
                n_cap=9,
            )
            assert res.exact == known_ramsey(t, r)


# ---------------------------------------------------------------------------
# The whole-graph level search that ramsey_exact replaced, as a reference:
# every one-vertex extension, tested for an independent t-set and for every
# member anywhere in the candidate, deduplicated by plain is_isomorphic.
# ---------------------------------------------------------------------------


def reference_ramsey(t, members, n_cap=9):
    survivors = [build(0, [])]
    for n in range(1, n_cap + 1):
        buckets, level = {}, []
        for parent in survivors:
            k = parent.n
            for mask in range(1 << k):
                adj = list(parent.adj) + [mask]
                for u in bits(mask):
                    adj[u] |= 1 << k
                g = Graph(k + 1, adj)
                if find_independent_set(g, t) is not None or any(
                    m.n <= g.n and contains_subgraph(g, m) is not None for m in members
                ):
                    continue
                bucket = buckets.setdefault(invariant_key(g), [])
                if not any(is_isomorphic(g, seen) for seen in bucket):
                    bucket.append(g)
                    level.append(g)
        if not level:
            witness = min(survivors, key=graph6_encode)
            return RamseyResult(lower=n, upper=n, exact=n, lower_witness=witness)
        survivors = level
    lower = n_cap + 1
    upper = math.comb(min(m.n for m in members) + t - 2, t - 1)
    witness = min(survivors, key=graph6_encode)
    return RamseyResult(lower, upper, lower if lower == upper else None, witness)


def nonisomorphic_graphs(n):
    return ramsey._dedupe(all_graphs(n))


class TestAgainstWholeGraphSearch:
    def test_graph_counts(self):
        assert [len(nonisomorphic_graphs(n)) for n in range(2, 6)] == [2, 4, 11, 34]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_deletion_families(self, n):
        for h in nonisomorphic_graphs(n):
            for family in (family_minus_vertex(h), family_minus_ebar(h)):
                for t in (2, 3):
                    if any(m.n == 0 for m in family.members):
                        # {H - ebar} of the empty graph on 2 vertices.
                        with pytest.raises(GraphError):
                            ramsey_exact(RamseyQuery(t=t, family=family))
                        continue
                    got = ramsey_exact(RamseyQuery(t=t, family=family))
                    want = reference_ramsey(t, family.members)
                    assert got == want, (graph6_encode(h), family.origin, t)
                    assert graph6_encode(got.lower_witness) == graph6_encode(
                        want.lower_witness
                    )

    @pytest.mark.parametrize("r, t, n_cap", [
        (3, 2, 9), (3, 3, 9), (4, 2, 9), (4, 3, 9), (5, 2, 9), (5, 3, 7),
        (6, 3, 7), (4, 4, 6), (5, 4, 6),
    ])
    def test_cliques(self, r, t, n_cap):
        members = (complete(r),)
        got = ramsey_exact(RamseyQuery(t=t, family=explicit_family(members)), n_cap=n_cap)
        want = reference_ramsey(t, members, n_cap)
        assert got == want
        assert graph6_encode(got.lower_witness) == graph6_encode(want.lower_witness)


def networkx_minimal(members):
    """The members that hold no other member as a subgraph, by networkx's
    monomorphism test, in increasing (order, size) and family order."""
    graphs = [to_networkx(m) for m in members]
    kept = [
        m for i, m in enumerate(members)
        if not any(
            j != i and nx.algorithms.isomorphism.GraphMatcher(
                graphs[i], graphs[j]
            ).subgraph_is_monomorphic()
            for j in range(len(members))
        )
    ]
    return sorted(kept, key=lambda g: (g.n, g.edge_count))


class TestMinimalMembers:
    """``ramsey_exact`` searches only the members that hold no other
    member (``ramsey._minimal``); the clique rule still takes its r from
    the whole family."""

    def test_deletion_families_against_networkx(self, monkeypatch):
        families = [
            (graph6_encode(h), family)
            for level in all_classes(6)[2:]
            for h in level
            for family in (family_minus_vertex(h), family_minus_ebar(h))
        ]
        # The traced benchmark counts every True is_isomorphic inside a
        # search as a duplicate, so ``_minimal`` must not call it.
        monkeypatch.setattr(ramsey, "is_isomorphic", None)
        for name, family in families:
            got = ramsey._minimal(family.members)
            want = networkx_minimal(family.members)
            assert [g.adj for g in got] == [g.adj for g in want], (name, family.origin)

    def test_complete_member_above_a_minimal_one(self, monkeypatch):
        k4_minus_e = build(4, [e for e in itertools.combinations(range(4), 2) if e != (0, 1)])
        family = explicit_family([complete(4), k4_minus_e])
        assert ramsey._minimal(family.members) == (k4_minus_e,)
        seen = []
        is_good = ramsey._is_good

        def recorded(g, plans):
            seen.append(g)
            return is_good(g, plans)

        monkeypatch.setattr(ramsey, "_is_good", recorded)
        for t in (2, 3):
            got = ramsey_exact(RamseyQuery(t=t, family=family))
            assert got == reference_ramsey(t, family.members)
        # The clique rule still fires: no candidate holds a K_4.
        assert seen and all(contains_subgraph(g, complete(4)) is None for g in seen)

    def test_dropping_a_minimal_member_fails_the_whole_graph_search(self, monkeypatch):
        minimal = ramsey._minimal
        monkeypatch.setattr(ramsey, "_minimal", lambda members: minimal(members)[:-1])
        # A wrong level shows as a wrong result, or as a bracket that the
        # Erdos-Szekeres self-check refuses.
        with pytest.raises((AssertionError, SelfCheckError)):
            for n in (2, 3, 4, 5):
                TestAgainstWholeGraphSearch().test_deletion_families(n)


def automorphism_orbit_representatives(g):
    reps = []
    for v in range(g.n):
        if not any(
            p[x] == v
            for x in reps
            for p in itertools.permutations(range(g.n))
            if all(g.has_edge(p[a], p[b]) for a, b in g.edges())
        ):
            reps.append(v)
    return reps


class TestAnchoredSearch:
    def test_orbit_representatives(self, monkeypatch):
        # The traced benchmark counts every True is_isomorphic inside a
        # search as a duplicate, so the orbit search must not call it.
        graphs = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)]
        monkeypatch.setattr(ramsey, "is_isomorphic", None)
        for g in graphs:
            assert ramsey._orbit_representatives(g) == (
                automorphism_orbit_representatives(g)
            ), graph6_encode(g)


def unpruned_extensions(parent, t):
    """The extension step without pruning, as an oracle: every one of the
    2^k neighbour masks in increasing order, kept when the parent vertices
    outside it hold no independent (t-1)-set."""
    k = parent.n
    for mask in range(1 << k):
        if _lex_set(parent.adj, parent.full_mask & ~mask, t - 1, -1) is None:
            adj = list(parent.adj) + [mask]
            for u in bits(mask):
                adj[u] |= 1 << k
            yield Graph(k + 1, adj)


PRUNING_CASES = {
    "R(3,4)": lambda: (3, explicit_family([complete(4)]), 9),
    "R(4,4) to 6": lambda: (4, explicit_family([complete(4)]), 6),
    "C5 - x, t=3": lambda: (3, family_minus_vertex(cycle(5)), 9),
    "K23 - x, t=3": lambda: (3, family_minus_vertex(complete_bipartite(2, 3)), 9),
    "C6 - ebar, t=3": lambda: (3, family_minus_ebar(cycle(6)), 9),
    "K33 - ebar, t=4": lambda: (4, family_minus_ebar(complete_bipartite(3, 3)), 7),
}


def new_vertex_on_top(child):
    """True iff the child's last (new) vertex has its largest degree."""
    degrees = [row.bit_count() for row in child.adj]
    return degrees[-1] == max(degrees)


class TestTwinPruning:
    """``_extensions`` enumerates only admissible masks whose new vertex
    gets the child's largest degree, and skips the twin-symmetric ones.
    Every skipped mask must be explained by one of the two rules; level by
    level ``_dedupe`` must be left with the same labelled survivors, in the
    same order, as the unpruned step filtered by the degree test, and with
    as many classes as the whole unpruned step."""

    @pytest.mark.parametrize("name", sorted(PRUNING_CASES))
    def test_levels_match_unpruned(self, name):
        t, family, n_cap = PRUNING_CASES[name]()
        plans = ramsey._anchored_plans(family.members)
        survivors = [build(0, [])]
        for _ in range(n_cap):
            pruned, oracle, every_good = [], [], []
            for parent in survivors:
                kept = list(ramsey._extensions(parent, t))
                every = list(unpruned_extensions(parent, t))
                masks = [g.adj[-1] for g in kept]
                assert masks == sorted(masks)
                assert set(masks) <= {g.adj[-1] for g in every}
                assert all(new_vertex_on_top(g) for g in kept)
                for child in every:
                    mask = child.adj[-1]
                    if mask not in masks and new_vertex_on_top(child):
                        earlier = [g for g in kept if g.adj[-1] < mask]
                        assert any(is_isomorphic(child, g) for g in earlier), (
                            graph6_encode(parent), mask
                        )
                good = [g for g in every if ramsey._is_good(g, plans)]
                pruned += [g for g in kept if ramsey._is_good(g, plans)]
                oracle += [g for g in good if new_vertex_on_top(g)]
                every_good += good
            level = ramsey._dedupe(pruned)
            assert [g.adj for g in level] == [g.adj for g in ramsey._dedupe(oracle)]
            assert len(level) == len(ramsey._dedupe(every_good))
            if not level:
                break
            survivors = level

    def test_twins_skipped(self):
        # The empty graph on 4 vertices: every vertex has degree 0, so the
        # degree rule keeps every mask, and its four false twins leave only
        # the masks 0, {0}, {0,1}, ... K4: every vertex has degree 3 and
        # is in P, so only the full mask (degree 4, to K5) puts the new
        # vertex on top. The star: the centre 0 alone has the largest
        # degree 3, so the new vertex needs all three leaves (14, a K_{2,3}
        # with the centre) or all four vertices (15).
        assert [g.adj[-1] for g in ramsey._extensions(empty(4), 9)] == [0, 1, 3, 7, 15]
        assert [g.adj[-1] for g in ramsey._extensions(complete(4), 9)] == [15]
        star = build(4, [(0, 1), (0, 2), (0, 3)])
        assert [g.adj[-1] for g in ramsey._extensions(star, 9)] == [14, 15]


class TestCliqueMasks:
    """With a complete member K_r, ``_extensions(parent, t, r)`` drops every
    mask that holds a K_{r-1} before a candidate is built; it must yield
    exactly the candidates of the plain step that the anchored K_r search
    passes, as the same labelled graphs in the same order."""

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_matches_anchored_search(self, t):
        for r in range(1, 6):
            plans = ramsey._anchored_plans((complete(r),))
            survivors = [build(0, [])]
            while survivors and survivors[0].n < 7:
                level = []
                for parent in survivors:
                    want = [g for g in ramsey._extensions(parent, t) if ramsey._is_good(g, plans)]
                    got = list(ramsey._extensions(parent, t, r))
                    assert [g.adj for g in got] == [g.adj for g in want], (
                        r, graph6_encode(parent)
                    )
                    level += got
                survivors = ramsey._dedupe(level)

    def test_parent_wider_than_the_row_table(self):
        # Rows of graphs above 10 vertices are read through ``bits``.
        assert list(ramsey._extensions(complete(11), 2)) == [complete(12)]
        assert list(ramsey._extensions(complete(11), 2, 13)) == [complete(12)]
        assert list(ramsey._extensions(complete(11), 2, 12)) == []

    @pytest.mark.parametrize("t, members", [
        (3, (complete(4), cycle(5))),
        (3, (complete(5), cycle(4))),
        (3, (complete(4), complete(3), cycle(4))),
        (3, (path(4), complete(3))),
        (2, (complete(1), cycle(4))),
    ])
    def test_mixed_families(self, t, members):
        family = explicit_family(members)
        got = ramsey_exact(RamseyQuery(t=t, family=family))
        want = reference_ramsey(t, family.members)
        assert got == want
        assert graph6_encode(got.lower_witness) == graph6_encode(want.lower_witness)


class TestLevels:
    """Survivors per level, counted as the traced benchmark counts them:
    candidates that ``_is_good`` passes at each vertex count, less those
    that ``is_isomorphic`` finds a duplicate of inside ramsey_exact."""

    @staticmethod
    def levels(monkeypatch, t, r, n_cap=ramsey.DEFAULT_RAMSEY_CAP):
        good, dup = {}, {}

        def counted(fn, tally):
            def wrapper(g, *args):
                result = fn(g, *args)
                if result:
                    tally[g.n] = tally.get(g.n, 0) + 1
                return result

            return wrapper

        monkeypatch.setattr(ramsey, "_is_good", counted(ramsey._is_good, good))
        family = explicit_family([complete(r)])
        monkeypatch.setattr(ramsey, "is_isomorphic", counted(ramsey.is_isomorphic, dup))
        ramsey_exact(RamseyQuery(t=t, family=family), n_cap=n_cap)
        return [good[n] - dup.get(n, 0) for n in sorted(good)]

    def test_r33(self, monkeypatch):
        assert self.levels(monkeypatch, 3, 3) == [1, 2, 2, 3, 1]

    def test_r34(self, monkeypatch):
        # The final 3 is the number of (3,4)-critical graphs on 8 vertices.
        assert self.levels(monkeypatch, 3, 4) == [1, 2, 3, 6, 9, 15, 9, 3]

    @pytest.mark.parametrize("t, r", [(3, 5), (5, 3)])
    def test_r35_to_the_cap(self, monkeypatch, t, r):
        # R(3,5) = 14: both orientations count the same classes, level by
        # level, up to the vertex cap.
        assert self.levels(monkeypatch, t, r, n_cap=10) == [
            1, 2, 3, 7, 13, 32, 71, 179, 290, 313
        ]
