"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS/FAIL line (visible with pytest -s; pytest -v
reports the same per-test verdicts) and enforces the criterion's runtime
budget. The exhaustive suites take their worker count from
K2TLAB_THREADS through ``suites.default_workers`` (1 when it is unset).
"""

import math
import time

import pytest

from k2tlab.bounds import beta, beta_identity_residual
from k2tlab.constructions import complete
from k2tlab.ramsey import RamseyQuery, explicit_family, ramsey_exact
from k2tlab.suites import (
    run_beta,
    run_clique_exhaustive,
    run_polarity,
    run_proof_inequalities,
    run_ramsey_small,
    run_triangle_formula,
    run_triangle_theorem,
    run_turan_upper,
    run_witness_random,
)


def criterion(number, label, result, elapsed, budget):
    ok = result.passed and elapsed < budget
    print(
        f"{'PASS' if ok else 'FAIL'} criterion-{number} {label}: "
        f"checked={result.checked} violations={result.violation_count} "
        f"boundary={result.boundary_cases} runtime={elapsed:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    assert result.violation_count == 0, result.violations[:5]
    assert elapsed < budget
    return result


def test_criterion_1_beta_identities():
    started = time.monotonic()
    result = run_beta()
    elapsed = time.monotonic() - started
    # Residual and bracket tolerances are enforced inside the suite
    # (1e-10 and -1e-12); spot-check the closed form once more here.
    assert abs(beta(0.37, 2) - (1 - math.sqrt(0.63))) <= 1e-12
    assert beta_identity_residual(0.99, 10) <= 1e-10
    criterion(1, "beta identities on the (alpha, t) grid", result, elapsed, 1.0)


def test_criterion_2_exhaustive_clique_guarantees():
    started = time.monotonic()
    result = run_clique_exhaustive(n_max=7, t_values=(2, 3))
    elapsed = time.monotonic() - started
    criterion(2, "exhaustive clique guarantees n<=7", result, elapsed, 600.0)
    # Boundary cases (alpha = 1) are logged separately: one K_n per (n, t).
    assert result.boundary_cases == 12


def test_criterion_3_proof_internal_inequalities():
    started = time.monotonic()
    result = run_proof_inequalities(n_max=7, t_values=(2, 3))
    elapsed = time.monotonic() - started
    criterion(3, "proof-internal inequalities n<=7", result, elapsed, 600.0)
    assert result.checked == sum(1 << math.comb(n, 2) for n in range(2, 8))


def test_criterion_4_ramsey_engine():
    started = time.monotonic()
    for t, r in [(3, 3)] + [(2, r) for r in range(1, 9)]:
        ramsey_exact(RamseyQuery(t=t, family=explicit_family([complete(r)])))
    quick_elapsed = time.monotonic() - started
    assert quick_elapsed < 1.0, "R(3,3) and R(2,r) must resolve in under 1s"
    started = time.monotonic()
    result = run_ramsey_small()
    elapsed = time.monotonic() - started
    criterion(4, "ramsey engine R(3,3), R(2,r<=8), R(3,4)", result, elapsed, 600.0)
    assert result.details["values"]["R(3,3)"] == 6
    assert result.details["values"]["R(3,4)"] == 9
    assert all(result.details["values"][f"R(2,{r})"] == r for r in range(1, 9))


def test_criterion_5_polarity_graphs():
    started = time.monotonic()
    result = run_polarity()
    elapsed = time.monotonic() - started
    criterion(5, "polarity graphs q in {2,3,5,7}", result, elapsed, 30.0)
    assert result.details["stats"][7] == {
        "n": 57,
        "edges": 224,
        "degree_q": 8,
        "degree_q_plus_1": 49,
    }


def test_criterion_6_witness_extraction_end_to_end():
    started = time.monotonic()
    result = run_witness_random()
    elapsed = time.monotonic() - started
    criterion(6, "witness extraction on 1000 seeded graphs", result, elapsed, 60.0)
    assert result.checked == 1000


def test_criterion_7_triangle_theorem_condition():
    started = time.monotonic()
    result = run_triangle_theorem(n_max=6, t=2)
    elapsed = time.monotonic() - started
    criterion(7, "triangle-budget condition n<=6, H=K3", result, elapsed, 300.0)
    assert result.details["ramsey_ebar"] == 2
    assert all(v == 0 for v in result.details["delta"].values())


def test_criterion_8_triangle_bound_formula():
    started = time.monotonic()
    result = run_triangle_formula()
    elapsed = time.monotonic() - started
    criterion(8, "triangle-budget formula grid", result, elapsed, 1.0)


def test_criterion_9_turan_upper_bounds():
    started = time.monotonic()
    result = run_turan_upper(n_max=7, t_values=(2, 3))
    elapsed = time.monotonic() - started
    criterion(9, "induced-Turan upper bounds", result, elapsed, 600.0)
