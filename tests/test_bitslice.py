"""Differential tests of the bitsliced engine.

The per-graph kernels in ``detect`` and the per-graph shard loops the
suites used before the engine (kept below as references) are the oracles:
every indicator bit and every suite result must agree with them.
"""

import dataclasses
import functools
import math
import random
from fractions import Fraction

import pytest
from conftest import triangle_count

from k2tlab import bitslice, suites, witness
from k2tlab.bitslice import delta_max
from k2tlab.bounds import induced_turan_upper
from k2tlab.constructions import complete, cycle, iter_masks, path
from k2tlab.detect import (
    SelfCheckError,
    _mask_lex_independent_tset,
    _max_clique_size,
    contains_subgraph,
    mask_has_clique,
    mask_has_induced_k2t,
    max_clique,
)
from k2tlab.graphs import Graph, graph6_encode
from k2tlab.ramsey import known_ramsey
from k2tlab.witness import greedy_packing, missing_pairs

PATTERNS = (complete(3), cycle(4), path(4))
# K3 plus an isolated vertex: a graph of 3 vertices padded to 4 must not
# contain it.
PATTERNS_WITH_ISOLATED = PATTERNS + (Graph(4, [0b110, 0b101, 0b011, 0]),)


def space(n):
    return 1 << math.comb(n, 2)


def shard_bounds(n, i, k):
    return space(n) * i // k, space(n) * (i + 1) // k


def check_window(n, lo, hi):
    for w in bitslice.windows([(n, lo, hi)]):
        k2t = w.induced_k2t((2, 3, 4))
        ladder = w.clique_ladder()
        omega_max = 0
        copies = [w.contains_pattern(h) for h in PATTERNS]
        edges, tri_digits = w.edge_classes(), w.triangle_digits()
        missing = [bitslice.count_digits(w.missing_terms(v)) for v in range(n)]
        # less[v][k]: m_v < k, up to one past the largest m_v.
        less = [
            [w.count_less(digits, k) for k in range(math.comb(n - 1, 2) + 2)]
            for digits in missing
        ]
        packings = {t: [w.packing_levels(v, t) for v in range(n)] for t in (2, 3, 4)}
        built = w.graphs(w.all)
        stream = (graph for _, a, b in w.parts for graph in iter_masks(n, a, b))
        for p, (mask, edge_count, adj) in enumerate(stream):
            g = Graph(n, list(adj))
            assert next(built) == (p, g)
            for v in range(n):
                m_v = missing_pairs(adj, adj[v])
                assert (w.count_equals(missing[v], m_v) >> p) & 1
                assert [(x >> p) & 1 for x in less[v]] == [
                    int(m_v < k) for k in range(len(less[v]))
                ]
                for t, levels in packings.items():
                    gamma = greedy_packing(g, v, t).gamma
                    assert [(x >> p) & 1 for x in levels[v]] == [
                        int(gamma > j) for j in range(len(levels[v]))
                    ], (n, mask, v, t)
            for t, indicator in k2t.items():
                want = mask_has_induced_k2t(adj, n, t) is not None
                assert (indicator >> p) & 1 == want, (n, mask, t)
            omega = _max_clique_size(adj, (1 << n) - 1)
            omega_max = max(omega_max, omega)
            assert [(x >> p) & 1 for x in ladder] == [
                int(omega >= k) for k in range(len(ladder))
            ], (n, mask)
            for h, indicator in zip(PATTERNS, copies):
                want = contains_subgraph(g, h) is not None
                assert (indicator >> p) & 1 == want, (n, mask, h)
            assert (edges[edge_count] >> p) & 1
            assert (w.count_equals(tri_digits, triangle_count(g)) >> p) & 1
        assert next(built, None) is None
        assert len(ladder) == omega_max + 2


def padded(values, length):
    return list(values) + [0] * (length - len(values))


def check_parts(parts):
    """Every indicator of a window of ``parts``, read on one part, is the
    one a window of that part alone gives."""
    w = bitslice.Window(parts)
    shared = {
        "k2t": w.induced_k2t((2, 3, 4)),
        "ladder": w.clique_ladder(),
        "edges": w.edge_classes(),
        "triangles": w.triangle_digits(),
        "patterns": [w.contains_pattern(h) for h in PATTERNS_WITH_ISOLATED],
    }
    built, offset = list(w.graphs(w.all)), 0
    for m, lo, hi in parts:
        own = bitslice.Window([(m, lo, hi)])
        width = hi - lo

        def cut(x):
            return (x >> offset) & ((1 << width) - 1)

        assert cut(w.of_size(m)) == own.all, parts
        assert {t: cut(x) for t, x in shared["k2t"].items()} == own.induced_k2t((2, 3, 4))
        ladder = [cut(x) for x in shared["ladder"]]
        assert ladder == padded(own.clique_ladder(), len(ladder)), (parts, m)
        edges = [cut(x) for x in shared["edges"]]
        assert edges == padded(own.edge_classes(), len(edges))
        digits = [cut(x) for x in shared["triangles"]]
        assert digits == padded(own.triangle_digits(), len(digits))
        own_patterns = [own.contains_pattern(h) for h in PATTERNS_WITH_ISOLATED]
        assert [cut(x) for x in shared["patterns"]] == own_patterns, (parts, m)
        for v in range(m):
            digits = [cut(x) for x in bitslice.count_digits(w.missing_terms(v))]
            assert digits == padded(bitslice.count_digits(own.missing_terms(v)), len(digits))
            for t in (2, 3, 4):
                levels = [cut(x) for x in w.packing_levels(v, t)]
                assert levels == padded(own.packing_levels(v, t), len(levels)), (parts, v, t)
        assert built[:width] == [(offset + p, g) for p, g in own.graphs(own.all)]
        del built[:width]
        offset += width
    assert built == [] and offset == w.all.bit_length()


class TestIndicators:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_graph_up_to_five_vertices(self, n):
        check_window(n, 0, space(n))

    @pytest.mark.parametrize(
        "n, lo, hi",
        [
            (6, 0, 600),
            (6, shard_bounds(6, 1, 3)[0], shard_bounds(6, 1, 3)[0] + 700),
            (6, space(6) - 500, space(6)),
            (7, *shard_bounds(7, 5, 512)),
            (7, shard_bounds(7, 1, 3)[0] - 300, shard_bounds(7, 1, 3)[0] + 300),
            (7, 3 * bitslice.BLOCK - 250, 3 * bitslice.BLOCK + 250),
            (7, space(7) - 400, space(7)),
        ],
    )
    def test_sampled_windows(self, n, lo, hi):
        check_window(n, lo, hi)

    @pytest.mark.parametrize("k", [12, 13, 14, 15])
    def test_narrow_windows_across_index_bit_flips(self, k):
        # The flip of index bit k, up (3 * 2^k) and down (6 * 2^k; for
        # k = 15 a block bound), falls at every position of windows of
        # widths 1, 2 and 3, and at the ends and middle of width 65.
        for flip in (3 * bitslice.BLOCK + 3 * (1 << k), 3 * bitslice.BLOCK + 6 * (1 << k)):
            for width in (1, 2, 3, 65):
                for before in sorted({0, 1, width // 2, width - 1, width}):
                    check_window(7, flip - before, flip - before + width)

    def test_narrow_windows_at_a_block_end(self):
        for width in (1, 2, 3, 65):
            check_window(7, 2 * bitslice.BLOCK - width, 2 * bitslice.BLOCK)

    def test_k2t_ladder_is_the_same_for_any_set_of_t(self):
        # The walk's depth and its pruning follow the largest and the
        # smallest t asked for, so asking for other t values alongside one
        # must not change its indicator.
        rng = random.Random(22)
        cases = [(n, 0, space(n)) for n in range(1, 7)]
        for width in (1, 2, 64, 4096):
            lo = rng.randrange(space(7) // width) * width
            cases.append((7, lo, lo + width))
        cases.append((7, 9 * bitslice.BLOCK - 64, 9 * bitslice.BLOCK))
        for n, lo, hi in cases:
            for w in bitslice.windows([(n, lo, hi)]):
                full = w.induced_k2t((2, 3, 4, 5))
                for ts in ((2,), (3,), (5,), (3, 2), (3, 4), (2, 5), (2, 3, 4)):
                    assert w.induced_k2t(ts) == {t: full[t] for t in ts}, (n, lo, ts)

    @pytest.mark.parametrize(
        "parts",
        [
            [(n, *shard_bounds(n, 0, 512)) for n in range(2, 8)],
            [(n, *shard_bounds(n, 5, 512)) for n in range(2, 8)],
            [(7, 17 * bitslice.BLOCK, 18 * bitslice.BLOCK)],
        ],
        ids=["shard 0/512", "shard 5/512", "n=7 block 17"],
    )
    def test_deep_and_mixed_t_against_the_per_graph_scan(self, parts):
        # t = 5 walks the deepest level a 7-vertex graph can fill: only the
        # 21 labelled copies of K_(2,5) have it, and these windows hold
        # some. t = 6 can never be met.
        w = bitslice.Window([p for p in parts if p[1] < p[2]])

        @functools.cache
        def oracle(t):
            out, p = 0, 0
            for m, lo, hi in w.parts:
                for _, _, adj in iter_masks(m, lo, hi):
                    out |= (mask_has_induced_k2t(adj, m, t) is not None) << p
                    p += 1
            return out

        assert oracle(5) and not oracle(6)
        for ts in ((5,), (6,), (2, 5), (3, 6), (2, 3, 5, 6)):
            assert w.induced_k2t(ts) == {t: oracle(t) for t in ts}, ts

    def test_clique_ladder_on_the_densest_block(self):
        # Block b of n = 7 fixes the last five edge bits to the Gray code
        # b ^ (b >> 1); block 21 (0b10101) sets all five, so it holds the
        # densest graphs, K_7 among them, and its ladder runs up to omega = 7.
        lo, hi = 21 * bitslice.BLOCK, 22 * bitslice.BLOCK
        (w,) = bitslice.windows([(7, lo, hi)])
        omegas = [_max_clique_size(adj, (1 << 7) - 1) for _, _, adj in iter_masks(7, lo, hi)]
        want = [
            int("".join("1" if omega >= k else "0" for omega in reversed(omegas)), 2)
            for k in range(max(omegas) + 2)
        ]
        assert max(omegas) == 7
        assert w.clique_ladder() == want

    def test_k2t_above_every_common_neighbourhood_reads_zero(self):
        # At most n - 2 vertices are common neighbours of a pair.
        for n in range(1, 7):
            for w in bitslice.windows([(n, 0, space(n))]):
                low = w.induced_k2t((2,))[2]
                for t in range(max(n - 1, 2), n + 3):
                    assert w.induced_k2t((t,)) == {t: 0}, (n, t)
                    assert w.induced_k2t((2, t)) == {2: low, t: 0}, (n, t)

    def test_parts_read_as_their_own_windows(self):
        rng = random.Random(23)
        block = bitslice.BLOCK
        # One part of each width ends at a block bound of the 7-vertex graphs.
        lists = [[(7, 5 * block - width, 5 * block), (3, 0, 8)] for width in (1, 64)]
        for _ in range(24):
            parts = []
            for _ in range(rng.randint(1, 4)):
                m = rng.randint(1, 7)
                width = min(rng.choice((1, 2, 64, 4096)), space(m))
                start = rng.randrange(space(m) - width + 1)
                # Keep the part inside one block.
                start = min(start, (start // block + 1) * block - width)
                parts.append((m, start, start + width))
            lists.append(parts)
        for parts in lists:
            check_parts(parts)

    def test_count_digits_matches_popcounts(self):
        rng = random.Random(18)
        width = 70
        for count in range(41):
            for zeros in (False, True):
                values = [
                    0 if zeros or rng.random() < 0.2 else rng.getrandbits(width)
                    for _ in range(count)
                ]
                digits = bitslice.count_digits(values)
                for p in range(width):
                    got = sum(((d >> p) & 1) << j for j, d in enumerate(digits))
                    assert got == sum((x >> p) & 1 for x in values), (count, p)

    def test_windows_tile_the_interval_at_block_bounds(self):
        block = bitslice.BLOCK
        got = [w.parts for w in bitslice.windows([(7, 100, 3 * block + 5)])]
        assert got == [
            ((7, 100, block),),
            ((7, block, 2 * block),),
            ((7, 2 * block, 3 * block),),
            ((7, 3 * block, 3 * block + 5),),
        ]
        assert bitslice.block_count(100, 3 * block + 5) == 4
        assert bitslice.block_count(0, space(7)) == 32
        assert bitslice.block_count(5, 5) == 0
        with pytest.raises(ValueError):
            bitslice.Window([(7, block - 1, block + 1)])

    def test_windows_pack_consecutive_parts_up_to_a_block(self):
        block = bitslice.BLOCK
        # A 1/512 shard of n <= 7 fits one window; so does every graph with
        # n <= 6 (33,866 of them), but no whole block of n = 7 joins them.
        shard = [(n, *shard_bounds(n, 187, 512)) for n in range(2, 8)]
        shard = [s for s in shard if s[1] < s[2]]
        assert [w.parts for w in bitslice.windows(shard)] == [tuple(shard)]
        whole = [(n, 0, space(n)) for n in range(2, 8)]
        got = [w.parts for w in bitslice.windows(whole)]
        assert got[0] == tuple(whole[:-1])
        assert got[1:] == [((7, i * block, (i + 1) * block),) for i in range(32)]
        w = bitslice.Window([(3, 0, 8), (5, 100, 102), (3, 2, 3)])
        assert (w.n, list(w.sizes), w.all) == (5, [3, 5], (1 << 11) - 1)
        assert (w.of_size(3), w.of_size(5), w.of_size(4)) == (0b10011111111, 0b1100000000, 0)

    def test_window_ends_at_the_last_graph(self):
        # 3 vertices have 2^3 = 8 labelled graphs.
        with pytest.raises(ValueError, match="past the 3-vertex graphs"):
            bitslice.Window([(3, 0, 16)])
        with pytest.raises(ValueError, match="past the 3-vertex graphs"):
            bitslice.Window([(5, 0, 2), (3, 4, 9)])
        w = bitslice.Window([(3, 0, 8)])
        assert w.all.bit_count() == 8
        assert len(list(w.graphs(w.all))) == 8

    def test_count_max(self):
        w = bitslice.Window([(5, 0, space(5))])
        digits = w.triangle_digits()
        assert bitslice.count_top(digits, w.all) == (10, w.of_size(5) & w.contains_pattern(complete(5)))
        assert bitslice.count_top(digits, 0) == (None, 0)
        no_triangle = w.all & ~w.contains_pattern(complete(3))
        assert bitslice.count_top(digits, no_triangle) == (0, no_triangle)


# ---------------------------------------------------------------------------
# The per-graph shard loops the engine replaced, as references.
# ---------------------------------------------------------------------------


# The references look up tables and bound formulas through the ``suites``
# module, so that a test which patches one there sabotages both sides.


def reference_clique_shard(args):
    n, t_values, lo, hi = args
    tables = {t: suites._guarantee_table(n, t) for t in t_values}
    full = (1 << n) - 1
    out = suites.SuiteResult(suite="clique-exhaustive", params={})
    for _, edge_count, adj in iter_masks(n, lo, hi):
        for t in t_values:
            if mask_has_induced_k2t(adj, n, t):
                continue
            entry = tables[t][edge_count]
            if entry is None:
                out.boundary_cases += 1
                continue
            out.checked += 1
            entries, need = entry
            if need <= 1 or mask_has_clique(adj, full, need):
                continue
            g = Graph(n, adj)
            omega = len(max_clique(g))
            for formula_id, guar in entries:
                if omega < guar:
                    out.add_violation(
                        f"clique-lower {formula_id} n={n} t={t}",
                        f"omega={omega}",
                        f"omega>={guar}",
                        graph6=graph6_encode(g),
                    )
    return out.as_shard()


def reference_turan_shard(args):
    n, t_values, lo, hi = args
    full = (1 << n) - 1
    out = suites.SuiteResult(
        suite="turan-upper", params={}, details={"skipped_no_exact_ramsey": 0}
    )
    for _, edge_count, adj in iter_masks(n, lo, hi):
        for t in t_values:
            if mask_has_induced_k2t(adj, n, t):
                continue
            omega = _max_clique_size(adj, full)
            r_value = known_ramsey(t, omega)
            if r_value is None:
                out.details["skipped_no_exact_ramsey"] += 1
                continue
            out.checked += 1
            entries = [
                r
                for r in suites.induced_turan_upper(
                    n, t, v_h=omega + 1, ramsey_value=r_value
                )
                if r.formula_id == "ramsey-sqrt"
            ]
            entries.extend(suites.induced_turan_upper(n, t - 1, v_h=omega + 1))
            for entry in entries:
                if edge_count >= entry.bound:
                    out.add_violation(
                        f"turan-upper {entry.formula_id} n={n} t={t} omega={omega}",
                        f"e={edge_count}",
                        f"e<{entry.bound}",
                        graph6=graph6_encode(Graph(n, adj)),
                    )
    return out.as_shard()


def reference_proof_shard(args):
    n, t_values, lo, hi = args
    out = proof_result()
    for _, _, adj in iter_masks(n, lo, hi):
        out.checked += 1
        m_values = [missing_pairs(adj, adj[v]) for v in range(n)]
        for t in t_values:
            if mask_has_induced_k2t(adj, n, t) is not None:
                continue
            for v in range(n):
                gamma = 0
                residual = adj[v]
                while True:
                    chosen = _mask_lex_independent_tset(adj, residual, t)
                    if chosen is None:
                        break
                    gamma += 1
                    residual &= ~chosen
                q_val = suites.forced_missing_edges(gamma, t)
                if m_values[v] < q_val:
                    out.add_violation(
                        f"packing-debt n={n} t={t} v={v}",
                        f"m_v={m_values[v]} gamma={gamma}",
                        f"m_v>=q(gamma)={q_val}",
                        graph6=graph6_encode(Graph(n, adj)),
                    )
    return out.as_shard()


def reference_delta_max(n, h, t):
    best = 0
    for _, _, adj in iter_masks(n):
        if mask_has_induced_k2t(adj, n, t):
            continue
        g = Graph(n, adj)
        if contains_subgraph(g, h) is None:
            best = max(best, triangle_count(g))
    return best


def reference_triangle_violations(n_max, t, h, r_value):
    out = suites.SuiteResult(suite="triangle-thm", params={})
    for n in range(2, n_max + 1):
        pairs = math.comb(n, 2)
        delta = reference_delta_max(n, h, t)
        for _, edge_count, adj in iter_masks(n):
            alpha = Fraction(edge_count, pairs)
            if not suites.triangle_theorem_condition(n, alpha, t, r_value, delta):
                continue
            if mask_has_induced_k2t(adj, n, t):
                continue
            out.checked += 1
            g = Graph(n, adj)
            if contains_subgraph(g, h) is None:
                out.add_violation(
                    f"triangle-thm n={n}",
                    "H not found",
                    f"H on {h.n} vertices must embed",
                    graph6=graph6_encode(g),
                )
    return out


def over_slices(reference, result):
    """A shard body that runs a per-size ``reference`` on each of its
    (n, lo, hi) slices in turn and merges what they find."""

    def body(args):
        t_values, slices = args
        out = result()
        for n, lo, hi in slices:
            out.merge_shard(reference((n, t_values, lo, hi)))
        return out.as_shard()

    return body


def run_both(body, reference, n_max, shard, result):
    got = suites._run_exhaustive(result(), body, n_max, (2, 3), 1, shard)
    want = suites._run_exhaustive(
        result(), over_slices(reference, result), n_max, (2, 3), 1, shard
    )
    return got, want


def run_proof_both(shard, n_max=5):
    return run_both(
        suites._proof_shard, reference_proof_shard, n_max, shard, proof_result
    )


def sizes_in(result):
    """The vertex counts of the kept violations, in payload order."""
    return [int(v["claim"].split(" n=")[1].split()[0]) for v in result.violations]


# Shards of the forced-violation tests: thirds of n <= 5, and the last
# 1/512 of n <= 7, whose slices of all six sizes share one window.
FORCED_SHARDS = [(5, (i, 3)) for i in range(3)] + [(7, (511, 512))]


def same(got, want):
    assert got.checked == want.checked
    assert got.boundary_cases == want.boundary_cases
    assert got.details == want.details
    assert got.violation_count == want.violation_count
    assert got.violations == want.violations


def clique_result():
    return suites.SuiteResult(suite="clique-exhaustive", params={})


def proof_result():
    return suites.SuiteResult(suite="proof-ineq", params={})


def turan_result():
    return suites.SuiteResult(
        suite="turan-upper", params={}, details={"skipped_no_exact_ramsey": 0}
    )


class TestSuitesMatchReference:
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_clique_shards(self, i):
        got, want = run_both(
            suites._clique_shard, reference_clique_shard, 5, (i, 3), clique_result
        )
        same(got, want)
        assert got.checked > 0 and got.violation_count == 0

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_turan_shards(self, i):
        got, want = run_both(
            suites._turan_shard, reference_turan_shard, 5, (i, 3), turan_result
        )
        same(got, want)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_proof_shards(self, i):
        got, want = run_proof_both((i, 3))
        same(got, want)
        assert got.checked > 0 and got.violation_count == 0

    @pytest.mark.parametrize("i", [0, 187, 511])
    @pytest.mark.parametrize(
        "body, reference, result",
        [
            (suites._clique_shard, reference_clique_shard, clique_result),
            (suites._proof_shard, reference_proof_shard, proof_result),
            (suites._turan_shard, reference_turan_shard, turan_result),
        ],
        ids=["clique", "proof", "turan"],
    )
    def test_n7_shards(self, body, reference, result, i):
        got, want = run_both(body, reference, 7, (i, 512), result)
        same(got, want)
        assert got.checked > 0

    def test_delta_max(self):
        cases = [(5, complete(4), 2), (5, cycle(5), 2), (5, path(4), 3), (6, complete(4), 2)]
        for n, h, t in cases:
            assert delta_max(n, h, t) == reference_delta_max(n, h, t)


# (checked, boundary_cases, violation_count) of each engine suite at
# n_max = 7, t = (2, 3).
FULL_N7 = {
    suites.run_clique_exhaustive: (2_575_102, 12, 0),
    suites.run_proof_inequalities: (2_131_018, 0, 0),
    suites.run_turan_upper: (2_540_633, 0, 0),
}


@pytest.mark.parametrize("run", FULL_N7, ids=lambda run: run.__name__)
def test_odd_shards_add_up_to_the_full_run(run):
    def counts(results):
        return tuple(
            sum(getattr(r, key) for r in results)
            for key in ("checked", "boundary_cases", "violation_count")
        )

    shards = [run(n_max=7, workers=1, shard=(i, 97)) for i in range(97)]
    full = run(n_max=7, workers=1)
    assert counts(shards) == counts([full]) == FULL_N7[run]
    if run is suites.run_turan_upper:
        skipped = [r.details["skipped_no_exact_ramsey"] for r in shards]
        assert sum(skipped) == full.details["skipped_no_exact_ramsey"] == 34_481


class TestForcedViolations:
    """Sabotaged tables make violations appear; the payloads must match the
    per-graph references exactly, in order and in graph6."""

    def test_clique_guarantees_raised(self, monkeypatch):
        table = suites._guarantee_table

        def raised(n, t):
            return [
                None if entry is None
                else ([(f, g + 2) for f, g in entry[0]], entry[1] + 2)
                for entry in table(n, t)
            ]

        monkeypatch.setattr(suites, "_guarantee_table", raised)
        for n_max, shard in FORCED_SHARDS:
            got, want = run_both(
                suites._clique_shard, reference_clique_shard, n_max, shard, clique_result
            )
            assert got.violation_count > suites.VIOLATION_LIMIT
            same(got, want)
        assert sizes_in(got) == sorted(sizes_in(got)) and len(set(sizes_in(got))) >= 4

    def test_turan_bounds_lowered(self, monkeypatch):
        def lowered(n, t, **kwargs):
            return [
                dataclasses.replace(r, bound=r.bound / 4)
                for r in induced_turan_upper(n, t, **kwargs)
            ]

        monkeypatch.setattr(suites, "induced_turan_upper", lowered)
        # A fresh cache, so the shard reads the lowered bounds.
        monkeypatch.setattr(
            suites, "_turan_bounds", functools.cache(suites._turan_bounds.__wrapped__)
        )
        for n_max, shard in FORCED_SHARDS:
            got, want = run_both(
                suites._turan_shard, reference_turan_shard, n_max, shard, turan_result
            )
            assert got.violation_count > 0
            same(got, want)
        assert sizes_in(got) == sorted(sizes_in(got)) and len(set(sizes_in(got))) >= 2

    def test_packing_debt_forced(self, monkeypatch):
        # One more forced missing edge at even gamma and one fewer at odd
        # gamma flags the vertices with m_v = q(gamma_v) for even gamma_v;
        # a debt of 50 at gamma = 0 alone flags the vertices whose packing
        # is empty, and no graph whose vertices all have gamma_v >= 1.
        q = witness.forced_missing_edges
        for shift in (lambda gamma: (-1) ** gamma, lambda gamma: 50 * (gamma == 0)):
            def shifted(gamma, t):
                return q(gamma, t) + shift(gamma)

            monkeypatch.setattr(suites, "forced_missing_edges", shifted)
            monkeypatch.setattr(witness, "forced_missing_edges", shifted)
            for n_max, shard in FORCED_SHARDS:
                got, want = run_proof_both(shard, n_max)
                assert got.violation_count > suites.VIOLATION_LIMIT
                assert any(v["claim"].startswith("packing-debt") for v in got.violations)
                same(got, want)
            assert sizes_in(got) == sorted(sizes_in(got)) and len(set(sizes_in(got))) >= 4

    def test_triangle_condition_forced(self, monkeypatch):
        monkeypatch.setattr(suites, "triangle_theorem_condition", lambda *args: True)
        got = suites.run_triangle_theorem(n_max=5, t=2, h=complete(4))
        r_value = got.details["ramsey_ebar"]
        want = reference_triangle_violations(5, 2, complete(4), r_value)
        assert got.violation_count > 0
        assert got.checked == want.checked
        assert got.violation_count == want.violation_count
        assert got.violations == want.violations



def test_engine_flag_without_violation_raises(monkeypatch):
    # With omega >= 2 never set, the engine flags graphs whose rebuilt
    # clique meets the guarantee; the recheck must refuse to pass them.
    monkeypatch.setattr(bitslice.Window, "clique_ladder", lambda self: [self.all] * 2 + [0])
    with pytest.raises(SelfCheckError):
        suites.run_clique_exhaustive(n_max=4, workers=1)


def test_triangle_thm_evaluates_each_window_once(monkeypatch):
    # n = 7 spans 32 windows whose Delta is needed before any of them is
    # checked: each window's maxima are kept from the Delta pass, so the
    # n <= 6 window and the 32 blocks are each evaluated once.
    seen = []
    maxima = bitslice.triangle_maxima

    def counted(w, h, t):
        seen.append(w.parts)
        return maxima(w, h, t)

    monkeypatch.setattr(bitslice, "triangle_maxima", counted)
    got = suites.run_triangle_theorem(n_max=7, t=2)
    assert len(seen) == len(set(seen)) == 33
    assert (got.checked, got.violation_count) == (477429, 0)


@pytest.mark.parametrize("t, n_max", [(2, 5), (3, 7)])
def test_k2t_filter_is_load_bearing(monkeypatch, t, n_max):
    # The packing debt needs the graph to have no induced K_(2,t): a ladder
    # that drops every flag of this t must make violations appear. (The
    # clique and Turan suites find none without their filter at n <= 7.)
    induced_k2t = bitslice.Window.induced_k2t

    def without(self, t_values):
        return {s: 0 if s == t else x for s, x in induced_k2t(self, t_values).items()}

    monkeypatch.setattr(bitslice.Window, "induced_k2t", without)
    got = suites.run_proof_inequalities(n_max=n_max, workers=1)
    assert got.violation_count > 0
    assert all(f" t={t} " in v["claim"] for v in got.violations)
