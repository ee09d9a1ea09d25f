"""Differential tests of the bitsliced engine.

The per-graph kernels in ``detect`` and the per-graph shard loops the
suites used before the engine (kept below as references) are the oracles:
every indicator bit and every suite result must agree with them.
"""

import dataclasses
import functools
import math
from fractions import Fraction

import pytest

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
from k2tlab.graphs import Graph, graph6_encode, triangle_count
from k2tlab.ramsey import known_ramsey
from k2tlab.witness import greedy_packing, missing_pairs

PATTERNS = (complete(3), cycle(4), path(4))


def space(n):
    return 1 << math.comb(n, 2)


def shard_bounds(n, i, k):
    return space(n) * i // k, space(n) * (i + 1) // k


def check_window(n, lo, hi):
    for w in bitslice.windows(n, lo, hi):
        k2t = {t: w.has_induced_k2t(t) for t in (2, 3, 4)}
        cliques = {k: w.clique_at_least(k) for k in range(n + 2)}
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
        for p, (mask, edge_count, adj) in enumerate(iter_masks(n, w.lo, w.hi)):
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
            for k, indicator in cliques.items():
                assert (indicator >> p) & 1 == (omega >= k), (n, mask, k)
            for h, indicator in zip(PATTERNS, copies):
                want = contains_subgraph(g, h) is not None
                assert (indicator >> p) & 1 == want, (n, mask, h)
            assert (edges[edge_count] >> p) & 1
            assert (w.count_equals(tri_digits, triangle_count(g)) >> p) & 1
        assert next(built, None) is None


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

    def test_windows_tile_the_interval_at_block_bounds(self):
        got = [(w.lo, w.hi) for w in bitslice.windows(7, 100, 3 * bitslice.BLOCK + 5)]
        assert got == [
            (100, bitslice.BLOCK),
            (bitslice.BLOCK, 2 * bitslice.BLOCK),
            (2 * bitslice.BLOCK, 3 * bitslice.BLOCK),
            (3 * bitslice.BLOCK, 3 * bitslice.BLOCK + 5),
        ]
        assert bitslice.block_count(100, 3 * bitslice.BLOCK + 5) == 4
        assert bitslice.block_count(0, space(7)) == 32
        assert bitslice.block_count(5, 5) == 0
        with pytest.raises(ValueError):
            bitslice.Window(7, bitslice.BLOCK - 1, bitslice.BLOCK + 1)

    def test_count_max(self):
        w = bitslice.Window(5, 0, space(5))
        digits = w.triangle_digits()
        assert bitslice.count_max(digits, w.all) == 10
        assert bitslice.count_max(digits, 0) is None
        no_triangle = w.all & ~w.contains_pattern(complete(3))
        assert bitslice.count_max(digits, no_triangle) == 0


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


def run_both(body, reference, n_max, shard, result):
    got = suites._run_exhaustive(result(), body, n_max, (2, 3), 1, shard)
    want = suites._run_exhaustive(result(), reference, n_max, (2, 3), 1, shard)
    return got, want


def run_proof_both(shard):
    return run_both(
        suites._proof_shard, reference_proof_shard, 5, shard, proof_result
    )


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

    def test_delta_max(self):
        cases = [(5, complete(4), 2), (5, cycle(5), 2), (5, path(4), 3), (6, complete(4), 2)]
        for n, h, t in cases:
            assert delta_max(n, h, t) == reference_delta_max(n, h, t)


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
        for i in range(3):
            got, want = run_both(
                suites._clique_shard, reference_clique_shard, 5, (i, 3), clique_result
            )
            assert got.violation_count > suites.VIOLATION_LIMIT
            same(got, want)

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
        for i in range(3):
            got, want = run_both(
                suites._turan_shard, reference_turan_shard, 5, (i, 3), turan_result
            )
            assert got.violation_count > 0
            same(got, want)

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
            for i in range(3):
                got, want = run_proof_both((i, 3))
                assert got.violation_count > suites.VIOLATION_LIMIT
                assert any(v["claim"].startswith("packing-debt") for v in got.violations)
                same(got, want)

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
    # With omega >= k never set, the engine flags graphs whose rebuilt
    # clique meets the guarantee; the recheck must refuse to pass them.
    monkeypatch.setattr(bitslice.Window, "clique_at_least", lambda self, k: 0)
    with pytest.raises(SelfCheckError):
        suites.run_clique_exhaustive(n_max=4, workers=1)
