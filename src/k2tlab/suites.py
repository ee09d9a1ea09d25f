"""Verification suites: exhaustive and grid-based checks of every bound
and of the packing debt inside the clique theorem's proof, with violation
payloads that are independently re-checkable from their graph6 strings.

The exhaustive suites evaluate whole windows of the labelled enumeration
at once with the bitsliced engine (``bitslice``): the induced-K_{2,t}
filter, the clique and pattern tests, the greedy packings and the edge,
triangle and missing-edge counts are big-int indicators over up to 2^16
graphs, and everything that depends only on (n, t, edge count),
(t, omega) or (t, gamma) is precomputed, so counts are popcounts. Only
the graphs an indicator flags as violations are built one by one,
rechecked with the per-graph kernels and reported with their graph6
payloads; a flag the recheck does not confirm raises
``detect.SelfCheckError``. Heavy suites fan out over index-interval
shards of the enumeration; results merge order-independently. Worker
count comes from the K2TLAB_THREADS environment variable unless given
explicitly. A suite does not repeat a check the library already
requires: ``ramsey_exact`` validates its own witnesses.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import bitslice, detect
from .bounds import (
    beta,
    beta_identity_residual,
    clique_guarantee,
    clique_lower_report,
    induced_turan_upper,
    triangle_theorem_condition,
    triangle_upper,
)
from .bitslice import delta_max
from .constructions import (
    ENUMERATION_CAP,
    PRNG_NAME,
    complete,
    cycle,
    polarity_graph,
    random_gnp,
)
from .graphs import Graph, graph6_encode
from .ramsey import (
    RamseyQuery,
    explicit_family,
    family_minus_ebar,
    is_isomorphic,
    known_ramsey,
    ramsey_exact,
)
from .witness import extract, forced_missing_edges, ledger, verify_trace

VIOLATION_LIMIT = 100

SUITE_IDS = (
    "beta",
    "clique-exhaustive",
    "proof-ineq",
    "ramsey-small",
    "polarity",
    "triangle-thm",
    "turan-upper",
)


@dataclass
class SuiteResult:
    suite: str
    params: dict
    checked: int = 0
    violations: list[dict] = field(default_factory=list)
    violation_count: int = 0
    boundary_cases: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def add_violation(
        self, claim: str, observed, required, graph6: Optional[str] = None
    ):
        self.violation_count += 1
        if len(self.violations) < VIOLATION_LIMIT:
            self.violations.append(
                {
                    "claim": claim,
                    "graph6": graph6,
                    "observed": str(observed),
                    "required": str(required),
                }
            )

    def as_shard(self) -> dict:
        """This result as the plain dict a shard body returns."""
        return {
            "checked": self.checked,
            "boundary": self.boundary_cases,
            "violations": self.violations,
            "violation_count": self.violation_count,
            "details": self.details,
        }

    def merge_shard(self, shard: dict):
        """Fold in a shard body's result; its ``details`` are counters and
        add up."""
        self.checked += shard["checked"]
        self.boundary_cases += shard.get("boundary", 0)
        for v in shard["violations"]:
            self.add_violation(**v)
        # Violations beyond the shard's own limit were counted, not kept.
        self.violation_count += shard["violation_count"] - len(shard["violations"])
        for key, value in shard.get("details", {}).items():
            self.details[key] = self.details.get(key, 0) + value


def default_workers() -> int:
    """The worker count K2TLAB_THREADS asks for, 1 when it is unset; a
    value that is not an integer of at least 1 raises ValueError."""
    env = os.environ.get("K2TLAB_THREADS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"K2TLAB_THREADS must be an integer >= 1, got {env!r}")
    return workers


def _pool_size(requested: int, shards: int) -> int:
    """Worker processes to start for ``shards`` tasks: the requested count,
    but never more than the CPUs or the shards, and at least one."""
    return max(1, min(requested, os.cpu_count() or 1, shards))


def _run_shards(fn, args_list, workers: int) -> list[dict]:
    size = _pool_size(workers, len(args_list))
    if size == 1:
        return [fn(args) for args in args_list]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, args_list))


def _apply_shard(
    total: int, shard: Optional[tuple[int, int]]
) -> tuple[int, int]:
    if shard is None:
        return 0, total
    i, k = shard
    if not (k >= 1 and 0 <= i < k):
        raise ValueError(f"shard must be (i, k) with 0 <= i < k, got {shard}")
    return total * i // k, total * (i + 1) // k


def _require_n_and_t(n_max: int, t_values: tuple[int, ...]) -> None:
    """Refuse an n_max below 2, which checks no graph, and any t below 2."""
    if n_max < 2 or any(t < 2 for t in t_values):
        raise ValueError(
            f"need n_max >= 2 and t >= 2, got n_max = {n_max}, t = {list(t_values)}"
        )


def _run_exhaustive(
    result: SuiteResult,
    body,
    n_max: int,
    t_values: tuple[int, ...],
    workers: Optional[int],
    shard: Optional[tuple[int, int]],
) -> SuiteResult:
    """The one shard loop of the exhaustive suites: stream the ``shard`` slice
    of every labelled graph on 2..n_max vertices through the shard
    ``body`` and merge its results into ``result``. The n_max slice is
    split over up to ``workers`` processes (default K2TLAB_THREADS), at
    most one per ``bitslice.BLOCK`` block of it, so a slice of one block
    starts no pool."""
    _require_n_and_t(n_max, t_values)
    if n_max > ENUMERATION_CAP:
        raise ValueError(
            f"the exhaustive suites enumerate every labelled graph and cap at "
            f"n = {ENUMERATION_CAP}, got n_max = {n_max}"
        )
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    result.params.update(
        n_max=n_max,
        t_values=list(t_values),
        workers=workers,
        shard=list(shard) if shard else None,
    )
    for n in range(2, n_max + 1):
        lo, hi = _apply_shard(1 << math.comb(n, 2), shard)
        blocks = bitslice.block_count(lo, hi)
        pieces = _pool_size(workers, blocks) if n == n_max else 1
        args = []
        for i in range(pieces):
            a, b = _apply_shard(hi - lo, (i, pieces))
            args.append((n, tuple(t_values), lo + a, lo + b))
        for shard_result in _run_shards(body, args, workers):
            result.merge_shard(shard_result)
    return result


# ---------------------------------------------------------------------------
# beta identities (Lemma grid)
# ---------------------------------------------------------------------------


def run_beta(steps: int = 100, t_max: int = 10) -> SuiteResult:
    """Grid check of the beta identities: defining quadratic residual,
    the alpha bracketing, the t = 2 closed form, and monotonicity."""
    result = SuiteResult(suite="beta", params={"steps": steps, "t_max": t_max})
    for t in range(2, t_max + 1):
        previous = -1.0
        for i in range(steps + 1):
            alpha = i / steps
            residual = beta_identity_residual(alpha, t)
            b = beta(alpha, t).beta
            result.checked += 1
            if residual > 1e-10:
                result.add_violation(
                    f"beta-quadratic t={t} alpha={alpha}", residual, "<= 1e-10"
                )
            low = math.sqrt(t - 1) / t * alpha
            if b - low < -1e-12 or alpha - b < -1e-12:
                result.add_violation(
                    f"beta-bracket t={t} alpha={alpha}",
                    b,
                    f"{low} <= beta <= {alpha}",
                )
            if t == 2 and abs(b - (1.0 - math.sqrt(1.0 - alpha))) > 1e-12:
                result.add_violation(
                    f"beta2-closed-form alpha={alpha}",
                    b,
                    1.0 - math.sqrt(1.0 - alpha),
                )
            if b < previous - 1e-12:
                result.add_violation(
                    f"beta-monotone t={t} alpha={alpha}", b, f">= {previous}"
                )
            previous = b
    return result


# ---------------------------------------------------------------------------
# Exhaustive clique guarantees
# ---------------------------------------------------------------------------


@functools.cache
def _guarantee_table(n: int, t: int) -> tuple:
    """Per edge count: (applicable (formula_id, guarantee) tuple, max
    guarantee) or None at the alpha = 1 boundary. Built once per process:
    every clique-exhaustive shard of a run reads the same tables."""
    pairs = math.comb(n, 2)
    table = []
    for e in range(pairs):
        alpha = Fraction(e, pairs)
        entries = []
        for report in clique_lower_report(n, alpha, t):
            if report.applicable and report.integer_guarantee is not None:
                entries.append((report.formula_id, report.integer_guarantee))
        guarantee = clique_guarantee(n, alpha, t, known_ramsey)
        if guarantee.applicable and guarantee.integer_guarantee is not None:
            entries.append((guarantee.formula_id, guarantee.integer_guarantee))
        table.append((tuple(entries), max(g for _, g in entries)))
    table.append(None)
    return tuple(table)


def _recheck(out: SuiteResult, w, bad: dict, visit) -> None:
    """Build each graph of window ``w`` that the ``bad`` indicators flag, in
    index order, and let ``visit(g, key)`` record its violations, key by
    key; a flag ``visit`` does not confirm raises ``SelfCheckError``."""
    for p, g in w.graphs(functools.reduce(int.__or__, bad.values(), 0)):
        for key, indicator in bad.items():
            if (indicator >> p) & 1:
                before = out.violation_count
                visit(g, key)
                detect.require(
                    out.violation_count > before,
                    f"{out.suite}: the block engine flags {graph6_encode(g)} "
                    f"({key}), the per-graph recheck finds no violation",
                )


def _clique_shard(args: tuple) -> dict:
    n, t_values, lo, hi = args
    tables = {t: _guarantee_table(n, t) for t in t_values}
    pairs = math.comb(n, 2)
    out = SuiteResult(suite="clique-exhaustive", params={})

    def visit(g: Graph, t: int):
        omega = len(detect.max_clique(g))
        for formula_id, guar in tables[t][g.edge_count][0]:
            if omega < guar:
                out.add_violation(
                    f"clique-lower {formula_id} n={n} t={t}",
                    f"omega={omega}",
                    f"omega>={guar}",
                    graph6=graph6_encode(g),
                )

    for w in bitslice.windows(n, lo, hi):
        edges = w.edge_classes()
        clique_at_least = functools.cache(w.clique_at_least)
        bad = {}
        for t in t_values:
            free = w.all ^ w.has_induced_k2t(t)
            out.boundary_cases += (free & edges[pairs]).bit_count()
            out.checked += (free & ~edges[pairs]).bit_count()
            bad[t] = 0
            for e in range(pairs):
                need = tables[t][e][1]
                if need > 1:
                    bad[t] |= free & edges[e] & ~clique_at_least(need)
        _recheck(out, w, bad, visit)
    return out.as_shard()


def run_clique_exhaustive(
    n_max: int = 7,
    t_values: tuple[int, ...] = (2, 3),
    workers: Optional[int] = None,
    shard: Optional[tuple[int, int]] = None,
) -> SuiteResult:
    """Criterion: every labelled graph (n <= n_max) with no induced
    K_{2,t} and alpha < 1 meets every applicable integer clique guarantee;
    alpha = 1 boundary cases are recorded, never checked."""
    return _run_exhaustive(
        SuiteResult(suite="clique-exhaustive", params={}),
        _clique_shard, n_max, t_values, workers, shard,
    )


# ---------------------------------------------------------------------------
# Proof-internal packing debt
# ---------------------------------------------------------------------------


def _proof_tables(n: int, t: int) -> list[int]:
    """q(gamma) = forced_missing_edges(gamma, t) for every packing size
    gamma = 0..(n - 1) // t a vertex of an n-vertex graph can have."""
    return [forced_missing_edges(gamma, t) for gamma in range((n - 1) // t + 1)]


def _proof_shard(args: tuple) -> dict:
    n, t_values, lo, hi = args
    tables = {t: _proof_tables(n, t) for t in t_values}
    out = SuiteResult(suite="proof-ineq", params={})

    def visit(g: Graph, t: int):
        for row in ledger(g, t):
            if row.m_v < row.q_of_gamma:
                out.add_violation(
                    f"packing-debt n={n} t={t} v={row.v}",
                    f"m_v={row.m_v} gamma={row.gamma_v}",
                    f"m_v>=q(gamma)={row.q_of_gamma}",
                    graph6=graph6_encode(g),
                )

    for w in bitslice.windows(n, lo, hi):
        out.checked += w.all.bit_count()
        m_digits = [bitslice.count_digits(w.missing_terms(v)) for v in range(n)]
        bad = {}
        for t in t_values:
            free = w.all ^ w.has_induced_k2t(t)
            bad[t] = 0
            for v in range(n):
                # levels[gamma]: the greedy packing has at least gamma parts.
                levels = [w.all] + w.packing_levels(v, t) + [0]
                for gamma, q in enumerate(tables[t]):
                    debt = w.count_less(m_digits[v], q)
                    bad[t] |= free & levels[gamma] & ~levels[gamma + 1] & debt
        _recheck(out, w, bad, visit)
    return out.as_shard()


def run_proof_inequalities(
    n_max: int = 7,
    t_values: tuple[int, ...] = (2, 3),
    workers: Optional[int] = None,
    shard: Optional[tuple[int, int]] = None,
) -> SuiteResult:
    """Criterion: the packing debt m_v >= q(gamma_v) at every vertex of
    every induced-K_{2,t}-free graph, gamma_v being the size of the greedy
    packing of N(v) and m_v the missing edges inside N(v)."""
    return _run_exhaustive(
        SuiteResult(suite="proof-ineq", params={}),
        _proof_shard, n_max, t_values, workers, shard,
    )


# ---------------------------------------------------------------------------
# Small Ramsey numbers
# ---------------------------------------------------------------------------


def run_ramsey_small(include_r34: bool = True) -> SuiteResult:
    """R(3,3) = 6 with the 5-cycle as its unique critical graph, R(2,r) = r
    for r <= 8, and (optionally) R(3,4) = 9. ``ramsey_exact`` itself
    requires every witness to have no independent t-set and no family
    member, so only the values and the pentagon are checked here."""
    result = SuiteResult(
        suite="ramsey-small", params={"include_r34": include_r34}
    )
    values = {}

    r33 = ramsey_exact(RamseyQuery(t=3, family=explicit_family([complete(3)])))
    values["R(3,3)"] = r33.exact
    result.checked += 1
    if r33.exact != 6:
        result.add_violation("ramsey R(3,3)", r33.exact, 6)
    elif not is_isomorphic(r33.lower_witness, cycle(5)):
        result.add_violation(
            "ramsey R(3,3) witness",
            graph6_encode(r33.lower_witness),
            "a 5-cycle",
        )

    for r in range(1, 9):
        res = ramsey_exact(
            RamseyQuery(t=2, family=explicit_family([complete(r)]))
        )
        values[f"R(2,{r})"] = res.exact
        result.checked += 1
        if res.exact != r:
            result.add_violation(f"ramsey R(2,{r})", res.exact, r)

    if include_r34:
        r34 = ramsey_exact(
            RamseyQuery(t=3, family=explicit_family([complete(4)])), n_cap=9
        )
        values["R(3,4)"] = r34.exact
        result.checked += 1
        if r34.exact != 9:
            result.add_violation("ramsey R(3,4)", r34.exact, 9)
    result.details["values"] = values
    return result


# ---------------------------------------------------------------------------
# Polarity graphs
# ---------------------------------------------------------------------------


def run_polarity(qs: tuple[int, ...] = (2, 3, 5, 7)) -> SuiteResult:
    result = SuiteResult(suite="polarity", params={"qs": list(qs)})
    stats = {}
    for q in qs:
        g = polarity_graph(q)
        result.checked += 1
        degrees = [g.degree(v) for v in range(g.n)]
        low_degree = sum(1 for d in degrees if d == q)
        high_degree = sum(1 for d in degrees if d == q + 1)
        stats[q] = {
            "n": g.n,
            "edges": g.edge_count,
            "degree_q": low_degree,
            "degree_q_plus_1": high_degree,
        }
        if low_degree != q + 1 or low_degree + high_degree != g.n:
            result.add_violation(
                f"polarity q={q} degrees",
                f"{low_degree} of degree {q}, {high_degree} of degree {q + 1}",
                f"{q + 1} of degree {q}, rest degree {q + 1}",
            )
        cert = detect.find_induced_k2t(g, 2)
        if cert is not None:
            result.add_violation(
                f"polarity q={q} induced K_(2,2)",
                f"certificate {cert}",
                "none",
                graph6=graph6_encode(g),
            )
    result.details["stats"] = stats
    return result


# ---------------------------------------------------------------------------
# Triangle theorem condition at desk scale
# ---------------------------------------------------------------------------


def run_triangle_theorem(
    n_max: int = 6, t: int = 2, h: Optional[Graph] = None
) -> SuiteResult:
    """Criterion: with Delta(n, H, t) from exhaustive enumeration, every
    induced-K_{2,t}-free graph whose density passes the triangle-budget
    condition really contains H (H = K3 by default)."""
    _require_n_and_t(n_max, (t,))
    h = complete(3) if h is None else h
    result = SuiteResult(
        suite="triangle-thm", params={"n_max": n_max, "t": t, "h": graph6_encode(h)}
    )
    ramsey_ebar = ramsey_exact(
        RamseyQuery(t=t, family=family_minus_ebar(h))
    )
    if ramsey_ebar.exact is None:
        result.add_violation(
            "triangle-thm ramsey", "unresolved bracket", "exact value"
        )
        return result
    r_value = ramsey_ebar.exact
    deltas = {}
    for n in range(2, n_max + 1):
        deltas[n] = delta_max(n, h, t)
    result.details["ramsey_ebar"] = r_value
    result.details["delta"] = deltas

    def visit(g: Graph, _t: int):
        if detect.contains_subgraph(g, h) is None:
            result.add_violation(
                f"triangle-thm n={g.n}",
                "H not found",
                f"H on {h.n} vertices must embed",
                graph6=graph6_encode(g),
            )

    for n in range(2, n_max + 1):
        pairs = math.comb(n, 2)
        condition = [
            triangle_theorem_condition(n, Fraction(e, pairs), t, r_value, deltas[n])
            for e in range(pairs + 1)
        ]
        for w in bitslice.windows(n, 0, 1 << pairs):
            edges = w.edge_classes()
            meets = 0
            for e in range(pairs + 1):
                if condition[e]:
                    meets |= edges[e]
            free = meets & ~w.has_induced_k2t(t)
            result.checked += free.bit_count()
            _recheck(result, w, {t: free & ~w.contains_pattern(h)}, visit)
    return result


# ---------------------------------------------------------------------------
# Induced-Turan upper bounds
# ---------------------------------------------------------------------------


@functools.cache
def _turan_bounds(n: int, t: int, omega: int) -> Optional[tuple]:
    """The bounds below which an n-vertex graph with clique number omega and
    no induced K_{2,t} must stay, or None; built once per process."""
    r_value = known_ramsey(t, omega)
    if r_value is None:
        return None
    reports = induced_turan_upper(n, t, v_h=omega + 1, ramsey_value=r_value)
    return tuple(r for r in reports if r.formula_id == "ramsey-sqrt") + tuple(
        induced_turan_upper(n, t - 1, v_h=omega + 1)
    )


def _turan_shard(args: tuple) -> dict:
    n, t_values, lo, hi = args
    pairs = math.comb(n, 2)
    out = SuiteResult(
        suite="turan-upper", params={}, details={"skipped_no_exact_ramsey": 0}
    )

    def visit(g: Graph, t: int):
        omega = len(detect.max_clique(g))
        for entry in _turan_bounds(n, t, omega):
            if g.edge_count >= entry.bound:
                out.add_violation(
                    f"turan-upper {entry.formula_id} n={n} t={t} omega={omega}",
                    f"e={g.edge_count}",
                    f"e<{entry.bound}",
                    graph6=graph6_encode(g),
                )

    for w in bitslice.windows(n, lo, hi):
        edges = w.edge_classes()
        # at_least[k]: omega >= k; omega is at least 1 on n >= 1 vertices.
        at_least = [w.all, w.all]
        while at_least[-1]:
            at_least.append(w.clique_at_least(len(at_least)))
        bad = {}
        for t in t_values:
            free = w.all ^ w.has_induced_k2t(t)
            bad[t] = 0
            for omega in range(1, len(at_least) - 1):
                graphs = free & at_least[omega] & ~at_least[omega + 1]
                if not graphs:
                    continue
                entries = _turan_bounds(n, t, omega)
                if entries is None:
                    out.details["skipped_no_exact_ramsey"] += graphs.bit_count()
                    continue
                out.checked += graphs.bit_count()
                for entry in entries:
                    for e in range(pairs + 1):
                        if e >= entry.bound:
                            bad[t] |= graphs & edges[e]
        _recheck(out, w, bad, visit)
    return out.as_shard()


def run_turan_upper(
    n_max: int = 7,
    t_values: tuple[int, ...] = (2, 3),
    workers: Optional[int] = None,
    shard: Optional[tuple[int, int]] = None,
) -> SuiteResult:
    """Criterion: every labelled graph (n <= n_max) with no induced K_{2,t}
    (H = the smallest clique it misses) sits strictly below each applicable
    induced-Turan upper bound with repo-exact Ramsey values."""
    return _run_exhaustive(
        SuiteResult(
            suite="turan-upper", params={}, details={"skipped_no_exact_ramsey": 0}
        ),
        _turan_shard, n_max, t_values, workers, shard,
    )


# ---------------------------------------------------------------------------
# Witness extraction end-to-end (random sweep)
# ---------------------------------------------------------------------------


def run_witness_random(
    count: int = 1000,
    n: int = 20,
    ps: tuple[float, ...] = (0.3, 0.5, 0.7),
    t: int = 2,
    h: Optional[Graph] = None,
) -> SuiteResult:
    """Criterion: on seeded random graphs every extract outcome passes
    verify_trace, which re-checks each embedded H and each induced-K_{2,t}
    certificate against the graph."""
    h = complete(4) if h is None else h
    result = SuiteResult(
        suite="witness-random",
        params={
            "count": count,
            "n": n,
            "ps": list(ps),
            "t": t,
            "h": graph6_encode(h),
            "prng": PRNG_NAME,
        },
    )
    outcomes: dict = {}
    for seed in range(count):
        p = ps[seed % len(ps)]
        g = random_gnp(n, p, seed)
        trace = extract(g, h, t)
        result.checked += 1
        outcomes[trace.outcome] = outcomes.get(trace.outcome, 0) + 1
        if not verify_trace(g, trace, h, t):
            result.add_violation(
                f"witness verify seed={seed} p={p}",
                trace.outcome,
                "verify_trace = True",
                graph6=graph6_encode(g),
            )
    result.details["outcomes"] = outcomes
    return result


# ---------------------------------------------------------------------------
# Triangle-budget formula grid
# ---------------------------------------------------------------------------


def run_triangle_formula() -> SuiteResult:
    """Criterion: the two-term triangle budget sits below its envelope
    3 c^(15/7) n^(27/14) with relative margin >= 1e-9 across the log grid,
    and the exact homogeneity scalings hold to 1e-9 relative."""
    result = SuiteResult(suite="triangle-formula", params={})
    c_grid = [10.0 ** (i / 4.0) for i in range(-12, 13)]
    n_grid = sorted({int(round(10.0 ** (j / 2.0))) for j in range(0, 19)})
    for c in c_grid:
        for n in n_grid:
            result.checked += 1
            _, bound = triangle_upper(c, n)
            envelope = 3.0 * c ** (15.0 / 7.0) * float(n) ** (27.0 / 14.0)
            if not bound < envelope * (1.0 - 1e-9):
                result.add_violation(
                    f"triangle-envelope c={c} n={n}", bound, f"< {envelope}"
                )
            _, scaled_n = triangle_upper(c, n * 2**14)
            if abs(scaled_n / bound - 2.0**27) > 1e-9 * 2.0**27:
                result.add_violation(
                    f"triangle-n-scaling c={c} n={n}",
                    scaled_n / bound,
                    2.0**27,
                )
            _, scaled_c = triangle_upper(c * 2**7, n)
            if abs(scaled_c / bound - 2.0**15) > 1e-9 * 2.0**15:
                result.add_violation(
                    f"triangle-c-scaling c={c} n={n}",
                    scaled_c / bound,
                    2.0**15,
                )
    return result


# ---------------------------------------------------------------------------
# Registry for the CLI
# ---------------------------------------------------------------------------


def run_suite(
    suite_id: str,
    n_max: Optional[int] = None,
    t: Optional[int] = None,
    workers: Optional[int] = None,
    shard: Optional[tuple[int, int]] = None,
) -> SuiteResult:
    """Run one suite by id. An option the suite does not take raises
    ValueError: ``shard`` and ``workers`` outside the exhaustive suites,
    ``n_max`` and ``t`` for beta, ramsey-small and polarity."""
    if suite_id not in SUITE_IDS:
        raise ValueError(
            f"unknown suite {suite_id!r}; choose from {', '.join(SUITE_IDS)}"
        )
    exhaustive = {
        "clique-exhaustive": run_clique_exhaustive,
        "proof-ineq": run_proof_inequalities,
        "turan-upper": run_turan_upper,
    }
    plain = {"beta": run_beta, "ramsey-small": run_ramsey_small, "polarity": run_polarity}
    refused = [
        option
        for option, value, taken in (
            ("--shard", shard, suite_id in exhaustive),
            ("--workers", workers, suite_id in exhaustive),
            ("--nmax", n_max, suite_id not in plain),
            ("--t", t, suite_id not in plain),
        )
        if value is not None and not taken
    ]
    if refused:
        raise ValueError(f"suite {suite_id} does not take {', '.join(refused)}")
    if suite_id in exhaustive:
        t_values = (2, 3) if t is None else (t,)
        return exhaustive[suite_id](
            n_max=7 if n_max is None else n_max,
            t_values=t_values, workers=workers, shard=shard,
        )
    if suite_id == "triangle-thm":
        return run_triangle_theorem(
            n_max=6 if n_max is None else n_max, t=2 if t is None else t
        )
    return plain[suite_id]()
