import math
import random
from fractions import Fraction
from math import comb

import mpmath
import pytest

from k2tlab.bounds import (
    BoundError,
    _es_ramsey,
    beta,
    beta_identity_residual,
    clique_guarantee,
    clique_lower_report,
    induced_turan_upper,
    theorem_clique_r,
    triangle_theorem_condition,
    triangle_upper,
)
from k2tlab.detect import SelfCheckError
from k2tlab.ramsey import known_ramsey

mpmath.mp.dps = 50


def beta_oracle(alpha, t):
    """Solve the defining quadratic (t-1)(a - x)^2 = t^2 (1-a) x for
    x = beta^2 and take the root whose square root lies in the bracket
    [sqrt(t-1)/t * alpha, alpha]."""
    a = mpmath.mpf(alpha)
    if a == 0:
        return mpmath.mpf(0)
    coeffs = [
        t - 1,
        -(2 * a * (t - 1) + t * t * (1 - a)),
        (t - 1) * a * a,
    ]
    roots = mpmath.polyroots(coeffs)
    lo = mpmath.sqrt(t - 1) / t * a - mpmath.mpf("1e-30")
    hi = a + mpmath.mpf("1e-30")
    for root in roots:
        if abs(mpmath.im(root)) > mpmath.mpf("1e-30"):
            continue
        x = mpmath.re(root)
        if x < 0:
            continue
        b = mpmath.sqrt(x)
        if lo <= b <= hi:
            return b
    raise AssertionError(f"no matching root for alpha={alpha}, t={t}")


class TestBeta:
    def test_zero(self):
        for t in (2, 3, 7):
            assert beta(0, t).beta == 0.0

    def test_one(self):
        for t in (2, 3, 7):
            assert beta(1, t).beta == pytest.approx(1.0, abs=1e-12)

    def test_half_t2_against_quadratic_oracle(self):
        # Frozen from the oracle: 1 - sqrt(1/2).
        expected = float(beta_oracle(0.5, 2))
        assert expected == pytest.approx(0.29289321881345254, abs=1e-15)
        assert beta(0.5, 2).beta == pytest.approx(expected, abs=1e-12)

    def test_grid_against_quadratic_oracle(self):
        for t in (2, 3, 5, 10):
            for i in range(0, 21):
                alpha = i / 20
                b = beta(alpha, t).beta
                assert b == pytest.approx(float(beta_oracle(alpha, t)), abs=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(BoundError):
            beta(1.5, 2)
        with pytest.raises(BoundError):
            beta(0.5, 1)

    def test_residual_examples(self):
        assert beta_identity_residual(0.3, 2) <= 1e-10
        assert beta_identity_residual(0.9, 7) <= 1e-10
        assert beta_identity_residual(0, 5) == 0.0


class TestRamseyUpper:
    def test_es_t2_is_identity(self):
        for r in range(1, 30):
            assert _es_ramsey(2, r) == r

    def test_es_t3_r3(self):
        assert _es_ramsey(3, 3) == 6


class TestCliqueGuarantee:
    def test_spec_example_n100(self):
        report = clique_guarantee(100, 0.5, 2, lambda t, r: r)
        assert report.integer_guarantee == 9
        assert report.applicable

    def test_spec_example_vacuous(self):
        report = clique_guarantee(10, Fraction(1, 3), 2, lambda t, r: r)
        assert report.integer_guarantee == 1

    def test_alpha_zero(self):
        assert clique_guarantee(50, 0, 3).integer_guarantee == 1

    def test_alpha_one_boundary_degenerate(self):
        report = clique_guarantee(50, 1.0, 2)
        assert not report.applicable
        assert report.integer_guarantee is None
        assert "boundary" in report.threshold_note

    def test_holmsen_specialisation(self):
        # With R(2, r) = r the guarantee is floor(beta^2 n) + 1 whenever
        # beta^2 n >= 1.
        for n in (10, 47, 200):
            for alpha in (0.3, 0.55, 0.8, 0.95):
                b = beta(alpha, 2).beta
                if b * b * n < 1:
                    continue
                report = clique_guarantee(n, alpha, 2, lambda t, r: r)
                assert report.integer_guarantee == math.floor(b * b * n) + 1

    def test_none_returning_fn_stops_search(self):
        # Only certified values may ground a guarantee.
        def fn(t, r):
            return known_ramsey(t, r)

        report = clique_guarantee(200, 0.9, 3, fn)
        # beta_3(0.9)^2 * 200 ~ 66; known exact values stop at R(3,4)=9.
        assert report.integer_guarantee == 5


class TestCliqueLowerReport:
    def test_holmsen_at_alpha_one(self):
        reports = {r.formula_id: r for r in clique_lower_report(50, 1, 2)}
        assert reports["holmsen"].value == pytest.approx(50.0, abs=1e-9)
        assert reports["holmsen"].integer_guarantee == 50
        assert reports["ghs"].value == pytest.approx(5.0, abs=1e-9)

    def test_k23_sqrt_alpha_spec_example(self):
        reports = {
            r.formula_id: r for r in clique_lower_report(10000, 0.9, 3)
        }
        assert reports["k23-sqrt-alpha"].integer_guarantee == 60

    def test_alpha_zero_clamps_to_one(self):
        for t in (2, 3, 5):
            for report in clique_lower_report(40, 0, t):
                if report.applicable:
                    assert report.integer_guarantee == 1

    def test_large_n_forms_gated(self):
        reports = {r.formula_id: r for r in clique_lower_report(100, 0.8, 3)}
        assert not reports["k23-log-beta"].applicable
        assert reports["k23-log-beta"].integer_guarantee is None
        assert not reports["bollobas-log-beta"].applicable
        assert not reports["bollobas-log-alpha"].applicable

    def test_k23_log_applicable_past_threshold(self):
        b = beta(0.9, 3).beta
        n = int(math.exp(2 * math.e**2 / (b * b))) + 10
        reports = {r.formula_id: r for r in clique_lower_report(n, 0.9, 3)}
        assert reports["k23-log-beta"].applicable
        expected = b * math.sqrt(0.5 * n * math.log(n)) + 2
        assert reports["k23-log-beta"].value == pytest.approx(expected, rel=1e-12)

    def test_formula_sets_by_t(self):
        ids2 = {r.formula_id for r in clique_lower_report(30, 0.5, 2)}
        ids3 = {r.formula_id for r in clique_lower_report(30, 0.5, 3)}
        ids5 = {r.formula_id for r in clique_lower_report(30, 0.5, 5)}
        assert {"ghs", "holmsen"} <= ids2
        assert "ghs" not in ids3 and "k23-sqrt-beta" in ids3
        assert ids5 == {
            "es-root-beta",
            "es-root-alpha",
            "bollobas-log-beta",
            "bollobas-log-alpha",
        }

    def test_k23_beta_form_dominates_alpha_form(self):
        # beta >= sqrt(2)/3 alpha makes beta sqrt(2n) >= (2/3) alpha sqrt(n).
        for alpha in (0.2, 0.5, 0.8, 0.99):
            reports = {
                r.formula_id: r for r in clique_lower_report(5000, alpha, 3)
            }
            assert (
                reports["k23-sqrt-beta"].value
                >= reports["k23-sqrt-alpha"].value - 1e-9
            )
            assert (
                reports["k23-log-beta"].value
                >= reports["k23-log-alpha"].value - 1e-9
            )

    def test_float_floors_match_mpmath_on_suite_grid(self):
        # The exhaustive suites trust these floors; pin them against
        # 50-digit arithmetic over every (n <= 7, edge count, t) cell.
        for t in (2, 3):
            for n in range(2, 8):
                pairs = comb(n, 2)
                for e in range(pairs + 1):
                    alpha = Fraction(e, pairs)
                    b = beta_oracle(
                        mpmath.mpf(alpha.numerator) / alpha.denominator, t
                    )
                    reports = {
                        r.formula_id: r
                        for r in clique_lower_report(n, alpha, t)
                    }
                    bsqn = b * b * n
                    if t == 3:
                        exact = int(mpmath.floor(mpmath.sqrt(2 * bsqn)))
                        got = reports["k23-sqrt-beta"].integer_guarantee
                        assert got == max(1, exact)
                    exact = int(mpmath.floor((t - 1) / mpmath.e * bsqn ** (1 / mpmath.mpf(t - 1))))
                    got = reports["es-root-beta"].integer_guarantee
                    assert got == max(1, exact - t + 3)


class TestTheoremCliqueR:
    def test_monotone_in_alpha(self):
        values = [
            theorem_clique_r(500, a / 10, 2) or 0 for a in range(0, 11)
        ]
        assert values == sorted(values)

    def test_none_when_budget_below_one(self):
        assert theorem_clique_r(5, Fraction(1, 2), 2, known_ramsey) is None


class TestInducedTuranUpper:
    def test_spec_example_ramsey_sqrt(self):
        entries = induced_turan_upper(100, 2, ramsey_value=3)
        assert len(entries) == 1
        assert entries[0].formula_id == "ramsey-sqrt"
        assert entries[0].bound == pytest.approx(math.sqrt(3) * 100**1.5)
        assert entries[0].hypothesis == "no induced K_(2,2)"

    def test_spec_example_es_power(self):
        entries = {
            e.formula_id: e for e in induced_turan_upper(100, 1, v_h=3)
        }
        assert entries["es-power"].bound == pytest.approx(2.0 * 100**1.5)
        assert entries["es-power"].hypothesis == "no induced K_(2,2)"

    def test_crossover_comparable_sizes(self):
        # exp-power wins once t and v_h are large and comparable.
        entries = {
            e.formula_id: e for e in induced_turan_upper(1000, 12, v_h=12)
        }
        assert entries["exp-power"].bound < entries["es-power"].bound
        entries = {
            e.formula_id: e for e in induced_turan_upper(1000, 3, v_h=30)
        }
        assert entries["exp-power"].bound < entries["es-power"].bound

    def test_monotone_in_n_and_ramsey(self):
        small = induced_turan_upper(100, 2, ramsey_value=3)[0].bound
        assert induced_turan_upper(200, 2, ramsey_value=3)[0].bound > small
        assert induced_turan_upper(100, 2, ramsey_value=6)[0].bound > small

    def test_requires_some_parameter(self):
        with pytest.raises(BoundError):
            induced_turan_upper(100, 2)


class TestTriangleUpper:
    def test_c1_n1_below_three(self):
        f_opt, bound = triangle_upper(1.0, 1)
        assert f_opt == pytest.approx(2 ** (4 / 7))
        assert bound < 3.0

    def test_frozen_coefficient(self):
        # bound / (c^(15/7) n^(27/14)) is the constant
        # (4/3) 2^(-12/7) + 2^(9/7) ~ 2.84327; frozen via direct evaluation.
        expected = (4 / 3) * 2 ** (-12 / 7) + 2 ** (9 / 7)
        _, bound = triangle_upper(3.7, 12345)
        assert bound / (3.7 ** (15 / 7) * 12345 ** (27 / 14)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_homogeneity_in_n(self):
        _, b1 = triangle_upper(2.5, 1000)
        _, b2 = triangle_upper(2.5, 1000 * 2**14)
        assert b2 / b1 == pytest.approx(2**27, rel=1e-12)

    def test_homogeneity_in_c(self):
        _, b1 = triangle_upper(0.03, 77)
        _, b2 = triangle_upper(0.03 * 2**7, 77)
        assert b2 / b1 == pytest.approx(2**15, rel=1e-12)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(BoundError):
            triangle_upper(0.0, 5)

    def test_self_check_catches_a_broken_bound(self, monkeypatch):
        # A sabotaged square root pushes the bound past its envelope.
        monkeypatch.setattr(math, "sqrt", lambda x: 1e300)
        with pytest.raises(SelfCheckError, match="triangle_upper"):
            triangle_upper(1.0, 10)


class TestTriangleTheoremCondition:
    def test_spec_true_case(self):
        assert triangle_theorem_condition(100, 1, 2, 2, 0)

    def test_alpha_zero_false(self):
        assert not triangle_theorem_condition(100, 0, 2, 2, 0)

    def test_exact_boundary_is_strict(self):
        # alpha^2 (n-1) == rhs must be False.
        # n=5, alpha=1/2: lhs = 1 = (2-1) + 0.
        assert not triangle_theorem_condition(5, Fraction(1, 2), 2, 2, 0)
        assert triangle_theorem_condition(5, Fraction(1, 2) + Fraction(1, 100), 2, 2, 0)

    def test_delta_term_counts(self):
        # n=5: C(5,2)=10; lhs=4*alpha^2; ramsey 2 -> rhs=1+0.3*delta.
        assert triangle_theorem_condition(5, Fraction(3, 5), 2, 2, 1)
        assert not triangle_theorem_condition(5, Fraction(3, 5), 2, 2, 2)


def t2_oracle(n, alpha):
    """ceil(alpha^2 n / 10) and ceil((1 - sqrt(1 - alpha))^2 n), clamped at
    1: exactly when sqrt(1 - alpha) is rational, else at 50 digits, where
    the irrational value sits far from every integer."""
    ghs = math.ceil(alpha * alpha * n / 10)
    rest = 1 - alpha
    num, den = math.isqrt(rest.numerator), math.isqrt(rest.denominator)
    if num * num == rest.numerator and den * den == rest.denominator:
        holmsen = math.ceil((1 - Fraction(num, den)) ** 2 * n)
    else:
        x = 1 - mpmath.sqrt(mpmath.mpf(rest.numerator) / rest.denominator)
        holmsen = int(mpmath.ceil(x * x * n))
    return max(1, ghs), max(1, holmsen)


def t2_guarantees(n, alpha):
    reports = clique_lower_report(n, alpha, 2)
    by_id = {r.formula_id: r.integer_guarantee for r in reports}
    return by_id["ghs"], by_id["holmsen"]


class TestExactT2Guarantees:
    @pytest.mark.parametrize(
        "n, alpha, formula, exact",
        [
            (900000000, Fraction(5, 9), "holmsen", 100000000),
            (3247328, Fraction(195, 196), "holmsen", 2799992),
            (308789876346436637, Fraction(3, 187), "ghs", 7947350187646),
        ],
    )
    def test_former_overclaims(self, n, alpha, formula, exact):
        got = dict(zip(("ghs", "holmsen"), t2_guarantees(n, alpha)))
        assert got[formula] == exact

    def test_against_mpmath_up_to_1e15(self):
        rng = random.Random(20240)
        for _ in range(3000):
            q = rng.randrange(1, 400)
            kind = rng.randrange(3)
            if kind == 0:
                alpha = Fraction(rng.randrange(q + 1), q)
            elif kind == 1:
                # 1 - alpha a rational square: beta^2 n is rational and, for
                # n a multiple of q^2, an integer.
                alpha = 1 - Fraction(rng.randrange(q + 1), q) ** 2
            else:
                alpha = Fraction(rng.random())
            n = rng.randrange(2, 10 ** rng.randrange(1, 16) + 3)
            if kind == 1 and rng.randrange(2):
                n = max(1, n // (q * q)) * q * q
            assert t2_guarantees(n, alpha) == t2_oracle(n, alpha), (n, alpha)
