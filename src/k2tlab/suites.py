"""Verification suites: exhaustive and grid-based checks of every bound
and of the packing debt inside the clique theorem's proof, with violation
payloads that are independently re-checkable from their graph6 strings.

The exhaustive suites evaluate whole windows of the labelled enumeration
at once with the bitsliced engine (``bitslice``): the induced-K_{2,t}
filter, the clique and pattern tests, the greedy packings and the edge,
triangle and missing-edge counts are big-int indicators over up to 2^16
graphs, the vertex counts of a shard sharing one window. Everything that
depends only on (n, t, edge count), (n, t, omega) or (t, gamma) is
precomputed and applied per vertex count, so counts are popcounts. Only
the graphs an indicator flags as violations are built one by one,
rechecked with the per-graph kernels and reported with their graph6
payloads; a flag the recheck does not confirm raises
``detect.SelfCheckError``. Heavy suites fan out over index-interval
shards of the enumeration; results merge order-independently. Worker
count comes from the K2TLAB_THREADS environment variable unless given
explicitly; an n_max above ``constructions.ENUMERATION_CAP`` is refused
before any work. Each suite id is stated once, with its runner and the
options it takes, in ``_SUITES``. A suite does not repeat a check the
library already requires: ``ramsey_exact`` validates its own witnesses,
and ramsey-small re-proves the verified table ``known_ramsey``.
"""

from __future__ import annotations

import functools
import itertools
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
    but never more than the CPUs or the shards, and at least one. The CPUs
    are counted only when more than one worker is asked for."""
    size = min(requested, shards)
    return max(1, min(size, os.cpu_count() or 1) if size > 1 else size)


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
    """Refuse an n_max below 2, which checks no graph, any t below 2, and an
    n_max above the enumeration cap, before any work is done."""
    if n_max < 2 or any(t < 2 for t in t_values):
        raise ValueError(
            f"need n_max >= 2 and t >= 2, got n_max = {n_max}, t = {list(t_values)}"
        )
    if n_max > ENUMERATION_CAP:
        raise ValueError(
            f"the exhaustive suites enumerate every labelled graph and cap at "
            f"n = {ENUMERATION_CAP}, got n_max = {n_max}"
        )


def _run_exhaustive(
    suite: str,
    body,
    n_max: int,
    t_values: tuple[int, ...],
    workers: Optional[int],
    shard: Optional[tuple[int, int]],
) -> SuiteResult:
    """The one shard loop of the exhaustive suites: stream the ``shard`` slice
    of every labelled graph on 2..n_max vertices through the shard
    ``body`` and merge its results into one ``suite`` result. The n_max
    slice is split over up to ``workers`` processes (default
    K2TLAB_THREADS), at most one per ``bitslice.BLOCK`` block of it, so a
    slice of one block starts no pool. The first piece also takes the smaller
    sizes, which share its windows: a body gets (t_values, (n, lo, hi) slices)."""
    _require_n_and_t(n_max, t_values)
    workers = default_workers() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    result = SuiteResult(suite, {"n_max": n_max, "t_values": list(t_values)})
    result.params.update(workers=workers, shard=list(shard) if shard else None)
    slices = [(n, *_apply_shard(1 << math.comb(n, 2), shard)) for n in range(2, n_max + 1)]
    _, lo, hi = slices.pop()
    pieces = _pool_size(workers, bitslice.block_count(lo, hi))
    args = []
    for i in range(pieces):
        a, b = _apply_shard(hi - lo, (i, pieces))
        piece = slices * (i == 0) + [(n_max, lo + a, lo + b)]
        args.append((tuple(t_values), [s for s in piece if s[1] < s[2]]))
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
    t_values, slices = args
    out = SuiteResult(suite="clique-exhaustive", params={})

    def visit(g: Graph, t: int):
        omega = len(detect.max_clique(g))
        for formula_id, guar in _guarantee_table(g.n, t)[g.edge_count][0]:
            if omega < guar:
                out.add_violation(
                    f"clique-lower {formula_id} n={g.n} t={t}",
                    f"omega={omega}",
                    f"omega>={guar}",
                    graph6=graph6_encode(g),
                )

    for w in bitslice.windows(slices):
        edges = w.edge_classes()
        at_least = w.clique_ladder()
        k2t = w.induced_k2t(t_values)
        bad = dict.fromkeys(t_values, 0)
        for t, n in itertools.product(t_values, w.sizes):
            free = w.of_size(n) & ~k2t[t]
            pairs = math.comb(n, 2)
            out.boundary_cases += (free & edges[pairs]).bit_count()
            out.checked += (free & ~edges[pairs]).bit_count()
            for e, (_, need) in enumerate(_guarantee_table(n, t)[:pairs]):
                if need > 1:
                    bad[t] |= free & edges[e] & ~at_least[min(need, len(at_least) - 1)]
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
    return _run_exhaustive("clique-exhaustive", _clique_shard, n_max, t_values, workers, shard)


# ---------------------------------------------------------------------------
# Proof-internal packing debt
# ---------------------------------------------------------------------------


def _proof_tables(n: int, t: int) -> list[int]:
    """q(gamma) = forced_missing_edges(gamma, t) for every packing size
    gamma = 0..(n - 1) // t a vertex of an n-vertex graph can have."""
    return [forced_missing_edges(gamma, t) for gamma in range((n - 1) // t + 1)]


def _proof_shard(args: tuple) -> dict:
    t_values, slices = args
    out = SuiteResult(suite="proof-ineq", params={})

    def visit(g: Graph, t: int):
        columns = ledger(g, t)
        for v, (m_v, gamma) in enumerate(zip(columns.missing, columns.gammas)):
            q = forced_missing_edges(gamma, t)
            if m_v < q:
                out.add_violation(
                    f"packing-debt n={g.n} t={t} v={v}",
                    f"m_v={m_v} gamma={gamma}",
                    f"m_v>=q(gamma)={q}",
                    graph6=graph6_encode(g),
                )

    for w in bitslice.windows(slices):
        # w.n's table serves every size: levels past (n - 1) // t are 0.
        tables = {t: _proof_tables(w.n, t) for t in t_values}
        qs = {q for table in tables.values() for q in table if q > 0}
        out.checked += w.all.bit_count()
        m_digits = [bitslice.count_digits(w.missing_terms(v)) for v in range(w.n)]
        debts = [{q: w.count_less(digits, q) for q in qs} for digits in m_digits]
        free = {t: w.all ^ x for t, x in w.induced_k2t(t_values).items()}
        bad = dict.fromkeys(t_values, 0)
        for v in range(w.n):
            # v is no vertex of the graphs with v vertices or fewer.
            off = sum(x for n, x in w.sizes.items() if n <= v)
            for t in t_values:
                mine = free[t] & ~off if off else free[t]
                # levels[gamma]: the greedy packing has at least gamma parts.
                levels = [w.all] + w.packing_levels(v, t) + [0]
                for gamma, q in enumerate(tables[t]):
                    if q > 0:
                        bad[t] |= mine & levels[gamma] & ~levels[gamma + 1] & debts[v][q]
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
    return _run_exhaustive("proof-ineq", _proof_shard, n_max, t_values, workers, shard)


# ---------------------------------------------------------------------------
# Small Ramsey numbers
# ---------------------------------------------------------------------------


def run_ramsey_small(include_r34: bool = True) -> SuiteResult:
    """Re-prove the verified table ``known_ramsey``: R(3,3) with the 5-cycle
    as its unique critical graph, R(2,r) for r <= 8, and (optionally)
    R(3,4). ``ramsey_exact`` itself requires every witness to have no
    independent t-set and no family member, so only the values and the
    pentagon are checked here."""
    result = SuiteResult(
        suite="ramsey-small", params={"include_r34": include_r34}
    )
    queries = [(3, 3)] + [(2, r) for r in range(1, 9)] + [(3, 4)] * include_r34
    values = {}
    for t, r in queries:
        res = ramsey_exact(RamseyQuery(t=t, family=explicit_family([complete(r)])))
        values[f"R({t},{r})"] = res.exact
        result.checked += 1
        want = known_ramsey(t, r)
        if res.exact != want:
            result.add_violation(f"ramsey R({t},{r})", res.exact, want)
        elif (t, r) == (3, 3) and not is_isomorphic(res.lower_witness, cycle(5)):
            result.add_violation(
                "ramsey R(3,3) witness",
                graph6_encode(res.lower_witness),
                "a 5-cycle",
            )
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
    result.details["ramsey_ebar"] = r_value

    def visit(g: Graph, _t: int):
        if detect.contains_subgraph(g, h) is None:
            result.add_violation(
                f"triangle-thm n={g.n}",
                "H not found",
                f"H on {h.n} vertices must embed",
                graph6=graph6_encode(g),
            )

    slices = [(n, 0, 1 << math.comb(n, 2)) for n in range(2, n_max + 1)]
    # A size spread over several windows needs its Delta before its check;
    # any other size lies in one window, whose maxima give its Delta.
    deltas = {n: bitslice.delta_max(n, h, t) for n, _, hi in slices if hi > bitslice.BLOCK}
    for w in bitslice.windows(slices):
        free, allowed, found = bitslice.triangle_maxima(w, h, t)
        deltas = found | deltas
        edges = w.edge_classes()
        meets = 0
        for n in w.sizes:
            pairs, delta = math.comb(n, 2), deltas[n]
            for e in range(pairs + 1):
                if triangle_theorem_condition(n, Fraction(e, pairs), t, r_value, delta):
                    meets |= edges[e] & w.of_size(n)
        result.checked += (meets & free).bit_count()
        _recheck(result, w, {t: meets & allowed}, visit)
    result.details["delta"] = {n: deltas[n] for n, _, _ in slices}
    return result


# ---------------------------------------------------------------------------
# Induced-Turan upper bounds
# ---------------------------------------------------------------------------


@functools.cache
def _turan_bounds(n: int, t: int, omega: int) -> Optional[tuple]:
    """The bounds below which an n-vertex graph with clique number omega and
    no induced K_{2,t} must stay, or None; built once per process. With
    H = K_{omega+1}: ramsey-sqrt at R(K_t, {H - x}) = R(t, omega), then the
    power bounds of t - 1, whose hypothesis is no induced K_{2,t}."""
    r_value = known_ramsey(t, omega)
    if r_value is None:
        return None
    return tuple(induced_turan_upper(n, t, ramsey_value=r_value)) + tuple(
        induced_turan_upper(n, t - 1, v_h=omega + 1)
    )


def _turan_shard(args: tuple) -> dict:
    t_values, slices = args
    out = SuiteResult(
        suite="turan-upper", params={}, details={"skipped_no_exact_ramsey": 0}
    )

    def visit(g: Graph, t: int):
        omega = len(detect.max_clique(g))
        for entry in _turan_bounds(g.n, t, omega):
            if g.edge_count >= entry.bound:
                out.add_violation(
                    f"turan-upper {entry.formula_id} n={g.n} t={t} omega={omega}",
                    f"e={g.edge_count}",
                    f"e<{entry.bound}",
                    graph6=graph6_encode(g),
                )

    for w in bitslice.windows(slices):
        edges = w.edge_classes()
        at_least = w.clique_ladder()
        k2t = w.induced_k2t(t_values)
        bad = dict.fromkeys(t_values, 0)
        for t, n in itertools.product(t_values, w.sizes):
            free = w.of_size(n) & ~k2t[t]
            for omega in range(1, len(at_least) - 1):
                graphs = free & at_least[omega] & ~at_least[omega + 1]
                if not graphs:
                    continue
                entries = _turan_bounds(n, t, omega)
                if entries is None:
                    out.details["skipped_no_exact_ramsey"] += graphs.bit_count()
                    continue
                out.checked += graphs.bit_count()
                # An integer edge count e reaches a bound iff e >= its ceiling.
                least = math.ceil(min(entry.bound for entry in entries))
                for over in edges[least:]:
                    bad[t] |= graphs & over
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
    return _run_exhaustive("turan-upper", _turan_shard, n_max, t_values, workers, shard)


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

_ENGINE_OPTIONS = ("shard", "workers", "n_max", "t")

# Suite id -> (runner, the ``run_suite`` options it takes), in CLI order.
_SUITES = {
    "beta": (run_beta, ()),
    "clique-exhaustive": (run_clique_exhaustive, _ENGINE_OPTIONS),
    "proof-ineq": (run_proof_inequalities, _ENGINE_OPTIONS),
    "ramsey-small": (run_ramsey_small, ()),
    "polarity": (run_polarity, ()),
    "triangle-thm": (run_triangle_theorem, ("n_max", "t")),
    "turan-upper": (run_turan_upper, _ENGINE_OPTIONS),
    "witness-random": (run_witness_random, ()),
    "triangle-formula": (run_triangle_formula, ()),
}
SUITE_IDS = tuple(_SUITES)


def run_suite(
    suite_id: str,
    n_max: Optional[int] = None,
    t: Optional[int] = None,
    workers: Optional[int] = None,
    shard: Optional[tuple[int, int]] = None,
) -> SuiteResult:
    """Run one suite by id; an option left as None keeps the runner's
    default. An option the suite does not take raises ValueError naming its
    command-line flag: ``shard`` and ``workers`` outside the exhaustive
    suites, ``n_max`` and ``t`` for beta, ramsey-small, polarity,
    witness-random and triangle-formula."""
    if suite_id not in _SUITES:
        raise ValueError(
            f"unknown suite {suite_id!r}; choose from {', '.join(SUITE_IDS)}"
        )
    run, takes = _SUITES[suite_id]
    given = {"shard": shard, "workers": workers, "n_max": n_max, "t": t}
    given = {option: value for option, value in given.items() if value is not None}
    # Each option's flag is its name without underscores: n_max is --nmax.
    refused = [f"--{option.replace('_', '')}" for option in given if option not in takes]
    if refused:
        raise ValueError(f"suite {suite_id} does not take {', '.join(refused)}")
    if "t" in given and "shard" in takes:
        # The exhaustive (sharded) suites take a tuple of t values.
        given["t_values"] = (given.pop("t"),)
    return run(**given)
