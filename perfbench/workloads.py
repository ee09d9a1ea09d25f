"""The four benchmark workloads.

Each workload builds, from the seed, a fixed list of ops: closed-loop
calls into k2tlab's public entry points that the runner repeats as whole
passes. Inputs are made by the benchmark's own RNG (``random.Random``), and
the library only sees the generated graphs and numbers. Seeded choices are
stratified, so that every seed's pass does about the same amount of work
and the percentiles of op latency fall inside a cluster of like ops rather
than between two.

``check`` decides, from the outputs of one pass, which ops failed. The
runner also fails any op whose output differs between passes.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle

PINS = Path(__file__).resolve().parent / "pins.json"


@dataclass
class Op:
    label: str
    items: int
    call: Callable[[], Any]
    expect: Any = None


@dataclass
class Failure:
    op: int
    message: str
    known: bool = False
    """True for the reported ROADMAP item 2 defect: an integer guarantee
    one above the exact value. The runner names it but does not count the
    op as failed."""


def pool_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _antithetic(ranked: list, strata: int, seed: int) -> list:
    """One entry per stratum of ``ranked`` (sorted by cost): rank r in even
    strata and the mirrored rank in odd ones, with r drawn from the seed.
    Cheap and costly picks pair up, so every seed gets about the same total
    cost, and the middle picks sit near the middle of the ranking."""
    size = len(ranked) // strata
    r = random.Random(seed).randrange(size)
    return [
        ranked[j * size + (r if j % 2 == 0 else size - 1 - r)] for j in range(strata)
    ]


# ---------------------------------------------------------------------------
# verify-n7
# ---------------------------------------------------------------------------


class VerifyN7:
    name = "verify-n7"
    item = "one labelled graph streamed through one suite"
    op = "one run_suite call"
    tail_pct = 90
    suites = ("clique-exhaustive", "proof-ineq", "turan-upper")
    shards_per_suite = 8
    triangle_items = sum(1 << math.comb(n, 2) for n in range(2, 7))

    def setup(self, k, seed: int) -> list[Op]:
        pins = json.loads(PINS.read_text())["verify-n7"]
        count = pins["shards"]
        by_shard = pins["by_shard"]
        workers = pool_workers()
        picks = {}
        for suite in self.suites:
            # Shards differ by about 2x in work; each suite takes one shard
            # from each eighth of its own ranking.
            ranked = sorted(range(count), key=lambda i: (by_shard[str(i)][suite][2], i))
            picks[suite] = _antithetic(ranked, self.shards_per_suite, seed)
        ops = []
        for j in range(self.shards_per_suite):
            for suite in self.suites:
                i = picks[suite][j]
                items = sum(
                    ((1 << math.comb(n, 2)) * (i + 1) // count)
                    - ((1 << math.comb(n, 2)) * i // count)
                    for n in range(2, 8)
                )
                ops.append(
                    Op(
                        f"{suite} shard {i}/{count}",
                        items,
                        lambda suite=suite, i=i: k.suites.run_suite(
                            suite, n_max=7, workers=workers, shard=(i, count)
                        ),
                        expect=by_shard[str(i)][suite][:2],
                    )
                )
        ops.append(
            Op(
                "triangle-thm n<=6",
                self.triangle_items,
                lambda: k.suites.run_suite("triangle-thm", n_max=6),
                expect=pins["triangle-thm"],
            )
        )
        return ops

    def check(self, k, ops: list[Op], outputs: list) -> list[Failure]:
        failures = []
        for index, (op, result) in enumerate(zip(ops, outputs)):
            if result.violation_count:
                failures.append(Failure(index, f"{op.label}: {result.violation_count} violations"))
            if op.label.startswith("triangle-thm"):
                pin = op.expect
                got = {
                    "checked": result.checked,
                    "boundary_cases": result.boundary_cases,
                    "ramsey_ebar": result.details.get("ramsey_ebar"),
                    "delta": {str(n): v for n, v in result.details.get("delta", {}).items()},
                }
                if got != pin:
                    failures.append(Failure(index, f"{op.label}: {got} != pinned {pin}"))
            elif [result.checked, result.boundary_cases] != op.expect:
                failures.append(
                    Failure(
                        index,
                        f"{op.label}: checked, boundary_cases = "
                        f"{result.checked}, {result.boundary_cases}; pinned {op.expect}",
                    )
                )
        return failures


# ---------------------------------------------------------------------------
# ramsey-levels
# ---------------------------------------------------------------------------

# Level sizes of the exhaustive search (survivors per vertex count),
# ROADMAP item 5. The final 3 of R(3,4) is the number of
# (3,4)-critical graphs on 8 vertices.
PINNED_LEVELS = {  # name: (t, clique order r, survivors at 1, 2, ... vertices)
    "R(3,3)": (3, 3, [1, 2, 2, 3, 1]),
    "R(3,4)": (3, 4, [1, 2, 3, 6, 9, 15, 9, 3]),
}


class RamseyLevels:
    name = "ramsey-levels"
    item = "one Ramsey query (ramsey-small runs ten)"
    op = "one ramsey_exact call, or one ramsey-small suite call"
    tail_pct = 95
    pool_queries = 20
    pool_used = 120  # the cheapest 120 queries of the pinned pool; see setup
    # Searches that end in a bracket at the cap: (t, r, cap, (lower, upper)),
    # upper being the Erdos-Szekeres value C(r+t-2, t-1). The caps keep a
    # pass near a second, so that a run repeats every op several times.
    brackets = ((3, 5, 7, (8, 15)), (3, 6, 7, (8, 21)), (4, 4, 6, (7, 20)), (4, 5, 6, (7, 35)))

    def setup(self, k, seed: int) -> list[Op]:
        pins = json.loads(PINS.read_text())["ramsey-levels"]
        t = pins["t"]
        # The costliest pool queries are left out, so that every pool query is
        # cheaper than the ramsey-small suite and the bracket searches, and
        # the op-latency tail sits on those fixed queries whatever the seed.
        ranked = sorted(pins["pool"], key=lambda e: (e["work_s"], e["h"], e["family"]))
        picked = _antithetic(ranked[: self.pool_used], self.pool_queries, seed)
        r = k.ramsey

        def query_op(label, items, t, family, n_cap=r.DEFAULT_RAMSEY_CAP, expect=None):
            # The family is built inside the op: {H-x} and {H-ebar} are part
            # of the query. ``expect`` keeps what the check needs.
            return Op(
                label,
                items,
                lambda: r.ramsey_exact(r.RamseyQuery(t=t, family=family()), n_cap=n_cap),
                expect=(expect, t, family),
            )

        fixed = [Op("ramsey-small suite", 10, lambda: k.suites.run_suite("ramsey-small"))]
        for qt, size, cap, bracket in self.brackets:
            fixed.append(
                query_op(f"R({qt},{size}) cap {cap}", 1, qt,
                         lambda size=size: r.explicit_family([k.complete(size)]),
                         n_cap=cap, expect=bracket)
            )
        ops = []
        for j, entry in enumerate(picked):
            h = k.graph6_decode(entry["h"])
            tag = "x" if entry["family"] == "minus_vertex" else "ebar"
            ops.append(
                query_op(f"R(K{t}, {{H-{tag}}}) H={entry['h']}", 1, t,
                         lambda name=f"family_{entry['family']}", h=h: getattr(r, name)(h),
                         expect=tuple(entry["value"]))
            )
            if j % 4 == 3:
                ops.append(fixed[j // 4])
        return ops + fixed[len(picked) // 4:]

    def check(self, k, ops: list[Op], outputs: list) -> list[Failure]:
        failures = []
        want = {"R(3,3)": 6, "R(3,4)": 9, **{f"R(2,{r})": r for r in range(1, 9)}}
        for index, (op, result) in enumerate(zip(ops, outputs)):
            if op.expect is None:
                values = result.details.get("values")
                if result.violation_count or values != want:
                    failures.append(Failure(index, f"{op.label}: values {values}"))
                continue
            bracket, t, family = op.expect
            if (result.lower, result.upper) != bracket:
                failures.append(
                    Failure(index, f"{op.label}: ({result.lower}, {result.upper}) != pinned {bracket}")
                )
            # The witness must re-validate through the detectors: lower - 1
            # vertices, no independent t-set, no family member as subgraph.
            w = result.lower_witness
            members = family().members
            if (
                w is None
                or w.n != result.lower - 1
                or k.detect.find_independent_set(w, t) is not None
                or (w.n and k.detect.contains_family_member(w, members) is not None)
            ):
                failures.append(Failure(index, f"{op.label}: witness does not re-validate"))
        return failures

    def check_levels(self, k, ramsey_calls: list) -> list[str]:
        """Compare the traced level sizes of R(3,3) and R(3,4) with the pins."""
        problems = []
        for name, (t, size, levels) in PINNED_LEVELS.items():
            g6 = k.graph6_encode(k.complete(size))
            seen = [lv for qt, members, lv in ramsey_calls if qt == t and members == (g6,)]
            if not seen:
                problems.append(f"{name}: no traced search")
            elif any(lv != levels for lv in seen):
                problems.append(f"{name}: levels {seen[0]} != pinned {levels}")
        return problems


# ---------------------------------------------------------------------------
# witness-hosts
# ---------------------------------------------------------------------------


class WitnessHosts:
    name = "witness-hosts"
    item = "one host graph"
    op = "one host: graph6_decode, extract, verify_trace (polarity hosts also find_induced_k2t and max_clique)"
    tail_pct = 99.5
    gnp_settings = ((20, 0.3), (20, 0.5), (20, 0.7), (40, 0.3), (40, 0.5), (40, 0.7))
    gnp_per_setting = 19
    bipartite_hosts = 33
    # (q, t): extract on ER_q at each t; all are hypothesis-not-met.
    polarity = ((7, 2), (11, 2), (11, 3), (13, 2), (13, 3))

    def setup(self, k, seed: int) -> list[Op]:
        rng = random.Random(seed)
        h = k.complete(4)
        hosts = []  # (label, graph6, t, expected outcome, polarity)
        for n, p in self.gnp_settings:
            for j in range(self.gnp_per_setting):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                hosts.append((f"G({n},{p}) #{j}", k.graph6_encode(k.build(n, edges)), 2,
                              "induced-k2t-found", False))
        for j in range(self.bipartite_hosts):
            # Complement of a random bipartite graph: two cliques, so no
            # independent 3-set and hence no induced K_{2,3}.
            half = 20
            cross = {(u, v) for u in range(half) for v in range(half, 40) if rng.random() < 0.5}
            edges = [(u, v) for u in range(40) for v in range(u + 1, 40) if (u, v) not in cross]
            hosts.append((f"co-bipartite(40) #{j}", k.graph6_encode(k.build(40, edges)), 3,
                          "h-embedded", False))
        for q, t in self.polarity:
            hosts.append((f"ER_{q} t={t}", k.graph6_encode(k.polarity_graph(q)), t,
                          "hypothesis-not-met", True))
        rng.shuffle(hosts)
        # Warm the lazy Ramsey-threshold cache that hypothesis-not-met uses.
        for t in (2, 3):
            k.witness._family_threshold(t, h)
        return [
            Op(label, 1, lambda text=text, t=t, polar=polar: self._host(k, text, h, t, polar),
               expect=outcome)
            for label, text, t, outcome, polar in hosts
        ]

    @staticmethod
    def _host(k, text: str, h, t: int, polar: bool):
        g = k.graphs.graph6_decode(text)
        trace = k.witness.extract(g, h, t)
        ok = k.witness.verify_trace(g, trace, h, t)
        extra = None
        if polar:
            extra = (
                k.detect.find_induced_k2t(g, 2),
                k.detect.find_induced_k2t(g, 3),
                k.detect.max_clique(g),
            )
        return g, trace, ok, extra

    def check(self, k, ops: list[Op], outputs: list) -> list[Failure]:
        failures = []
        mix: dict = {}
        for index, (op, (g, trace, ok, extra)) in enumerate(zip(ops, outputs)):
            mix[trace.outcome] = mix.get(trace.outcome, 0) + 1
            problems = []
            if not ok:
                problems.append("verify_trace is False")
            if trace.outcome != op.expect:
                problems.append(f"outcome {trace.outcome}, expected {op.expect}")
            if trace.certificate is not None and not trace.certificate.check(g):
                problems.append("certificate fails check(g)")
            if extra is not None:
                k2, k3, clique = extra
                if k2 is not None or k3 is not None:
                    problems.append("polarity graph has an induced K_(2,t)")
                if len(clique) != 3 or any(
                    not g.has_edge(u, v) for u in clique for v in clique if u < v
                ):
                    problems.append(f"max_clique {sorted(clique)} is not a triangle")
            if problems:
                failures.append(Failure(index, f"{op.label}: {'; '.join(problems)}"))
        want = {
            "induced-k2t-found": len(self.gnp_settings) * self.gnp_per_setting,
            "h-embedded": self.bipartite_hosts,
            "hypothesis-not-met": len(self.polarity),
        }
        if mix != want:
            failures.append(Failure(0, f"outcome mix {mix} != pinned {want}"))
        return failures


# ---------------------------------------------------------------------------
# bounds-grid
# ---------------------------------------------------------------------------


class BoundsGrid:
    name = "bounds-grid"
    item = "one (n, alpha, t) grid point"
    op = "one grid point: clique_lower_report, clique_guarantee, induced_turan_upper"
    tail_pct = 99.5
    # beta^2 n of the heavy points: clique_guarantee probes R(2, r) once per
    # unit of beta^2 n, and the float rounding defect (ROADMAP item 2) shows
    # from about 10^6 on.
    heavy_targets = (1.0e6, 1.4e6, 2.0e6, 2.8e6)
    # Light points per t, with n log-uniform up to a cap that keeps the
    # Erdos-Szekeres probing to a few milliseconds: about beta^2 n probes at
    # t = 2 and (beta^2 n)^(1/(t-1)) above. n = 10^9 at t = 3 reaches the
    # region where the k23-log bounds apply.
    light_per_t = 61
    light_n_max = {2: 10**4, 3: 10**9, 4: 10**12, 5: 10**12}

    def setup(self, k, seed: int) -> list[Op]:
        rng = random.Random(seed)
        points = []
        for target in self.heavy_targets:
            q = rng.randrange(3, 40)
            p = rng.randrange(1, q)
            n = max(1, round(target / (q - p) ** 2)) * q * q
            points.append((n, 1 - Fraction(p, q) ** 2, 2))
        for t, n_max in self.light_n_max.items():
            kinds = ["float", "fraction", "family"] * (self.light_per_t // 3 + 1)
            rng.shuffle(kinds)
            for i in range(self.light_per_t):
                # One n from each of light_per_t equal slices of log n.
                u = (i + rng.random()) / self.light_per_t
                n = max(2, round(n_max ** u))
                if kinds[i] == "float":
                    alpha = rng.random()
                elif kinds[i] == "fraction":
                    m = rng.randrange(2, 500)
                    alpha = Fraction(rng.randrange(m + 1), m)
                else:
                    q = rng.randrange(2, 40)
                    alpha = 1 - Fraction(rng.randrange(1, q), q) ** 2
                points.append((n, alpha, t))
        # The ends of the alpha range: alpha = 1 is boundary-degenerate.
        for alpha in (Fraction(0), Fraction(1)):
            points.append((rng.randrange(2, 10**6), alpha, rng.choice((2, 3, 4, 5))))
        rng.shuffle(points)
        ops = []
        for n, alpha, t in points:
            v_h = rng.randrange(2, 11)
            r_value = rng.randrange(1, 30)
            ops.append(
                Op(
                    f"n={n} alpha={alpha} t={t}",
                    1,
                    lambda n=n, alpha=alpha, t=t, v_h=v_h, r_value=r_value: (
                        k.bounds.clique_lower_report(n, alpha, t),
                        k.bounds.clique_guarantee(n, alpha, t),
                        k.bounds.induced_turan_upper(n, t, v_h=v_h, ramsey_value=r_value),
                    ),
                    expect=(n, alpha, t, v_h, r_value),
                )
            )
        return ops

    def check(self, k, ops: list[Op], outputs: list) -> list[Failure]:
        failures = []
        for index, (op, (reports, guarantee, turan)) in enumerate(zip(ops, outputs)):
            n, alpha, t, v_h, r_value = op.expect
            exact = oracle.guarantees(n, Fraction(alpha), t)
            for report in [*reports, guarantee]:
                got = report.integer_guarantee
                if got is None:
                    continue
                bound = exact.get(report.formula_id)
                if not report.applicable or bound is None:
                    failures.append(
                        Failure(index, f"{op.label}: {report.formula_id} claims {got} where no guarantee applies")
                    )
                elif got > bound:
                    failures.append(
                        Failure(
                            index,
                            f"{op.label}: {report.formula_id} claims {got} > exact {bound}",
                            known=got == bound + 1,
                        )
                    )
            for entry in turan:
                want = oracle.turan_bound(entry.formula_id, n, t, v_h, r_value)
                if abs(entry.bound - want) > 1e-12 * abs(want):
                    failures.append(
                        Failure(index, f"{op.label}: {entry.formula_id} = {entry.bound}, exact {want}")
                    )
        return failures


WORKLOADS = {w.name: w for w in (VerifyN7(), RamseyLevels(), WitnessHosts(), BoundsGrid())}
