"""Closed-form bound calculators: the beta constant and its identities,
clique lower bounds, the Erdos-Szekeres Ramsey bound, induced-Turan upper
bounds, and the triangle-count budget.

All logarithms are natural. Bounds that only hold for large n are never
silently applied: each report carries an ``applicable`` flag, with the
threshold in the note when one is known and an "asymptotic-only" tag when
it is not. Guarantees derived from rational data are evaluated in exact
integer arithmetic wherever the formula permits (Fraction + isqrt), so
the exhaustive suites never trip on float dust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from . import detect

Real = Union[int, float, Fraction]


class BoundError(ValueError):
    """Invalid parameters for a bound calculator."""


@dataclass(frozen=True)
class BetaValue:
    """beta_t(alpha) with the inputs it was computed from."""

    alpha: float
    t: int
    beta: float


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound formula.

    ``integer_guarantee`` is the implied whole-number clique guarantee,
    clamped below at 1; it is present exactly when the formula is
    applicable at the given parameters.
    """

    formula_id: str
    value: Optional[float]
    integer_guarantee: Optional[int]
    applicable: bool
    threshold_note: Optional[str] = None


@dataclass(frozen=True)
class TuranBound:
    """An edge-count upper bound for graphs with no copy of H under the
    stated forbidden-induced-biclique hypothesis."""

    formula_id: str
    n: int
    hypothesis: str
    bound: float
    ramsey_value: Optional[int] = None
    v_h: Optional[int] = None


def _check_alpha_t(alpha: Real, t: int) -> float:
    a = float(alpha)
    if not 0.0 <= a <= 1.0:
        raise BoundError(f"alpha must lie in [0, 1], got {alpha}")
    if t < 2:
        raise BoundError(f"t must be >= 2, got {t}")
    return a


def beta(alpha: Real, t: int) -> BetaValue:
    """beta_t(alpha) = t/(2 sqrt(t-1)) * [sqrt(1 - (1 - 2/t)^2 alpha)
    - sqrt(1 - alpha)]."""
    a = _check_alpha_t(alpha, t)
    # The defining identity pins the endpoints exactly: beta(0) = 0 and
    # beta(1) = 1; evaluating the radicals there only leaves float dust.
    if a == 0.0:
        return BetaValue(alpha=a, t=t, beta=0.0)
    if a == 1.0:
        return BetaValue(alpha=a, t=t, beta=1.0)
    shrink = (1.0 - 2.0 / t) ** 2
    value = (t / (2.0 * math.sqrt(t - 1))) * (
        math.sqrt(1.0 - shrink * a) - math.sqrt(1.0 - a)
    )
    return BetaValue(alpha=a, t=t, beta=min(max(value, 0.0), 1.0))


def beta_identity_residual(alpha: Real, t: int) -> float:
    """|(t-1)(alpha - beta^2)^2 - t^2 (1-alpha) beta^2| at beta_t(alpha)."""
    a = _check_alpha_t(alpha, t)
    b = beta(a, t).beta
    return abs((t - 1) * (a - b * b) ** 2 - t * t * (1.0 - a) * b * b)


RamseyFn = Callable[[int, int], Optional[Union[int, float]]]


def _es_ramsey(t: int, r: int) -> int:
    """The Erdos-Szekeres bound R(t, r) <= C(r + t - 2, t - 1)."""
    return math.comb(r + t - 2, t - 1)


def theorem_clique_r(
    n: int, alpha: Real, t: int, ramsey_fn: Optional[RamseyFn] = None
) -> Optional[int]:
    """Largest r >= 1 with ramsey_fn(t, r) <= beta_t(alpha)^2 * n, or None.

    ``ramsey_fn`` must upper-bound R(t, .); returning None ends the search
    (no guarantee is claimed beyond certified values). Default: the
    Erdos-Szekeres binomial.
    """
    if n < 2:
        raise BoundError(f"need n >= 2, got n={n}")
    a = _check_alpha_t(alpha, t)
    fn = ramsey_fn if ramsey_fn is not None else _es_ramsey
    budget = beta(a, t).beta ** 2 * n
    best = None
    r = 1
    while r <= n + 1:
        value = fn(t, r)
        if value is None or value > budget:
            break
        best = r
        r += 1
    return best


def _report(
    formula_id: str,
    value: float,
    guarantee: Optional[int] = None,
    applicable: bool = True,
    note: Optional[str] = None,
) -> BoundReport:
    """The one BoundReport constructor: the guarantee is clamped below at 1
    when the formula applies, and absent when it does not."""
    return BoundReport(
        formula_id=formula_id,
        value=value,
        integer_guarantee=max(1, guarantee) if applicable else None,
        applicable=applicable,
        threshold_note=note,
    )


def clique_guarantee(
    n: int, alpha: Real, t: int, ramsey_fn: Optional[RamseyFn] = None
) -> BoundReport:
    """Clique guarantee 1 + max{r >= 1 : R(t, r) <= beta^2 n} (or 1).

    At alpha = 1 the guarantee is reported as boundary-degenerate and not
    applicable: with no missing edge the underlying averaging argument is
    empty, and applying the formula literally to K_n would claim
    omega >= n + 1.
    """
    a = _check_alpha_t(alpha, t)
    r = theorem_clique_r(n, alpha, t, ramsey_fn)
    value = 1 if r is None else r + 1
    if a == 1.0:
        note = "boundary-degenerate: alpha = 1 leaves no missing edge"
        return _report("ramsey-threshold", float(value), applicable=False, note=note)
    note = None if r is None else f"r = {r}"
    return _report("ramsey-threshold", float(value), value, note=note)


def _floor_sqrt_fraction(x: Fraction) -> int:
    """floor(sqrt(p/q)) exactly, for non-negative p/q."""
    if x < 0:
        raise BoundError("negative operand for square root")
    return math.isqrt(x.numerator * x.denominator) // x.denominator


def _ceil_holmsen(n: int, alpha: Fraction) -> int:
    """ceil((1 - sqrt(1 - alpha))^2 n) exactly. With alpha = p/q the value
    is (A - sqrt(D)) / q for A = n (2q - p) and D = 4 n^2 q (q - p); when D
    is not a square, sqrt(D) lies strictly between r = isqrt(D) and r + 1."""
    p, q = alpha.numerator, alpha.denominator
    a_term = n * (2 * q - p)
    d = 4 * n * n * q * (q - p)
    r = math.isqrt(d)
    if r * r == d:
        return -((r - a_term) // q)
    return (a_term - r - 1) // q + 1


def _ceil_real(value: float) -> int:
    # ceil with a one-sided guard: never claims more than the real bound.
    return math.ceil(value - 1e-9)


def clique_lower_report(n: int, alpha: Real, t: int) -> list[BoundReport]:
    """Every closed-form clique lower bound at (n, alpha, t).

    Emitted formulas (ids in parentheses):
      t = 2: alpha^2 n / 10 (ghs); (1 - sqrt(1-alpha))^2 n (holmsen).
      t = 3: floor(beta sqrt(2n)) (k23-sqrt-beta) and its weakening
        floor((2/3) alpha sqrt(n)) (k23-sqrt-alpha), valid for all n;
        beta sqrt(n ln n / 2) + 2 (k23-log-beta) and
        (1/3) alpha sqrt(n ln n) + 2 (k23-log-alpha), valid once
        n >= exp(2 e^2 / beta^2).
      all t: floor((t-1)/e (beta^2 n)^(1/(t-1))) - t + 3 (es-root-beta)
        and floor((t-1)/4 (alpha^2 n)^(1/(t-1))) - t + 3 (es-root-alpha),
        valid for all n; the log-lifted forms
        (1/20)(beta^2 n)^(1/(t-1)) (ln n / (t-1))^(1 - 1/(t-1))
        (bollobas-log-beta) and
        (1/(20 t))(alpha^2 n (ln n)^(t-2))^(1/(t-1)) (bollobas-log-alpha),
        asymptotic-only (threshold unquantified, never applicable).
    """
    if n < 2:
        raise BoundError(f"need n >= 2, got n={n}")
    a = _check_alpha_t(alpha, t)
    frac = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    b = beta(a, t).beta
    bsq = b * b
    reports: list[BoundReport] = []

    if t == 2:
        ghs = math.ceil(frac * frac * n / 10)
        reports.append(_report("ghs", a * a * n / 10.0, ghs))
        reports.append(_report("holmsen", bsq * n, _ceil_holmsen(n, frac)))

    if t == 3:
        reports.append(
            _report(
                "k23-sqrt-beta",
                b * math.sqrt(2.0 * n),
                math.floor(math.sqrt(2.0 * bsq * n)),
            )
        )
        reports.append(
            _report(
                "k23-sqrt-alpha",
                2.0 * a * math.sqrt(n) / 3.0,
                _floor_sqrt_fraction(Fraction(4, 9) * frac * frac * n),
            )
        )
        # Threshold n >= exp(2 e^2 / beta^2), compared in log space so a
        # tiny beta cannot overflow exp.
        log_threshold = 2.0 * math.e**2 / bsq if bsq > 0 else math.inf
        applicable = n >= 1 and math.log(n) >= log_threshold
        note = f"needs ln(n) >= 2 e^2 / beta^2 = {log_threshold:.6g}"
        for formula_id, value in (
            ("k23-log-beta", b * math.sqrt(0.5 * n * math.log(n)) + 2.0),
            ("k23-log-alpha", a * math.sqrt(n * math.log(n)) / 3.0 + 2.0),
        ):
            reports.append(
                _report(formula_id, value, _ceil_real(value), applicable, note)
            )

    root = 1.0 / (t - 1)
    value = (t - 1) / math.e * (bsq * n) ** root
    reports.append(_report("es-root-beta", value - t + 3, math.floor(value) - t + 3))
    alpha_sq_n = frac * frac * n
    if t == 2:
        raw = math.floor(alpha_sq_n / 4)
    elif t == 3:
        raw = _floor_sqrt_fraction(alpha_sq_n / 4)
    else:
        raw = math.floor((t - 1) / 4.0 * float(alpha_sq_n) ** root)
    value = (t - 1) / 4.0 * float(alpha_sq_n) ** root - t + 3
    reports.append(_report("es-root-alpha", value, raw - t + 3))

    log_n = math.log(n)
    asym = "asymptotic-only: threshold in n not quantified"
    value = 0.05 * (bsq * n) ** root * (log_n / (t - 1)) ** (1.0 - root)
    reports.append(_report("bollobas-log-beta", value, applicable=False, note=asym))
    value = (float(alpha_sq_n) * log_n ** (t - 2)) ** root / (20.0 * t)
    reports.append(_report("bollobas-log-alpha", value, applicable=False, note=asym))
    return reports


def induced_turan_upper(
    n: int,
    t: int,
    v_h: Optional[int] = None,
    ramsey_value: Optional[int] = None,
) -> list[TuranBound]:
    """Edge-count upper bounds for n-vertex graphs with no copy of H.

    With ``ramsey_value`` = R(K_t, {H - x}) supplied (t >= 2), emits the
    hypothesis "no induced K_{2,t}" bound
        t/(2 sqrt(t-1)) * ramsey_value^(1/2) * n^(3/2)        (ramsey-sqrt)
    With ``v_h`` = |V(H)| supplied (t >= 1), emits the hypothesis
    "no induced K_{2,t+1}" bounds
        (t+1)^((v_h-1)/2) * n^(3/2)                           (es-power)
        e^(v_h/2 - 1) * 2^(t-1) * n^(3/2)                     (exp-power)
    which cross over: exp-power is the smaller once t and v_h are large
    and comparable.
    """
    if n < 2:
        raise BoundError(f"need n >= 2, got n={n}")
    if v_h is None and ramsey_value is None:
        raise BoundError("supply v_h and/or ramsey_value")
    out: list[TuranBound] = []
    n32 = float(n) ** 1.5
    if ramsey_value is not None:
        if t < 2:
            raise BoundError("the ramsey-sqrt bound needs t >= 2")
        if ramsey_value < 1:
            raise BoundError(f"ramsey_value must be >= 1, got {ramsey_value}")
        out.append(
            TuranBound(
                formula_id="ramsey-sqrt",
                n=n,
                hypothesis=f"no induced K_(2,{t})",
                bound=t / (2.0 * math.sqrt(t - 1)) * math.sqrt(ramsey_value) * n32,
                ramsey_value=ramsey_value,
            )
        )
    if v_h is not None:
        if t < 1:
            raise BoundError("the power bounds need t >= 1")
        if v_h < 2:
            raise BoundError(f"v_h must be >= 2, got {v_h}")
        hyp = f"no induced K_(2,{t + 1})"
        out.append(
            TuranBound(
                formula_id="es-power",
                n=n,
                hypothesis=hyp,
                bound=(t + 1) ** ((v_h - 1) / 2.0) * n32,
                v_h=v_h,
            )
        )
        out.append(
            TuranBound(
                formula_id="exp-power",
                n=n,
                hypothesis=hyp,
                bound=math.exp(v_h / 2.0 - 1.0) * 2.0 ** (t - 1) * n32,
                v_h=v_h,
            )
        )
    return out


def triangle_upper(c: float, n: int) -> tuple[float, float]:
    """Two-term triangle budget for graphs whose every m-vertex piece has
    at most c * m^(3/2) edges.

    Returns (f_opt, bound) with f_opt = 2^(4/7) c^(2/7) n^(6/7) and
    bound = (4/3) c^3 n^(9/2) f_opt^(-3) + 2 c^2 n^(3/2) f_opt^(1/2);
    the bound always sits below the envelope 3 c^(15/7) n^(27/14).
    """
    if c <= 0:
        raise BoundError(f"need c > 0, got {c}")
    if n < 1:
        raise BoundError(f"need n >= 1, got {n}")
    f_opt = 2.0 ** (4.0 / 7.0) * c ** (2.0 / 7.0) * float(n) ** (6.0 / 7.0)
    bound = (4.0 / 3.0) * c**3 * float(n) ** 4.5 * f_opt**-3 + (
        2.0 * c**2 * float(n) ** 1.5 * math.sqrt(f_opt)
    )
    envelope = 3.0 * c ** (15.0 / 7.0) * float(n) ** (27.0 / 14.0)
    detect.require(bound < envelope, "triangle_upper: bound below its envelope")
    return f_opt, bound


def triangle_theorem_condition(
    n: int, alpha: Real, t: int, ramsey_ebar: int, delta_max: int
) -> bool:
    """True iff alpha^2 (n-1) > ramsey_ebar - 1 + 3 delta_max / C(n,2).

    Exact rational comparison (floats are converted to their exact binary
    value). When true, every graph at these parameters with no induced
    K_{2,t} must contain the H behind ``ramsey_ebar`` and ``delta_max``.
    """
    if n < 2:
        raise BoundError(f"need n >= 2, got n={n}")
    if ramsey_ebar < 0 or delta_max < 0:
        raise BoundError("ramsey_ebar and delta_max must be non-negative")
    _check_alpha_t(alpha, t)
    a = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    lhs = a * a * (n - 1)
    rhs = (ramsey_ebar - 1) + Fraction(3 * delta_max, math.comb(n, 2))
    return lhs > rhs
