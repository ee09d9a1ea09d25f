"""Independent recomputation of every integer clique guarantee that
``k2tlab bounds`` reports, used to decide whether a grid point's output
is correct.

Quantities that are rational for the given (n, alpha, t) are evaluated
exactly with ``Fraction`` and ``isqrt``. The rest are irrational (a
quadratic surd, or a value involving e or a logarithm), so they are never
integers and 50-digit ``mpmath`` arithmetic decides their floor or ceiling
without ambiguity. A reported guarantee is correct when it is at most the
value recomputed here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

import mpmath

mpmath.mp.dps = 50

Exact = Union[int, Fraction]


def _mpf(x: Exact) -> mpmath.mpf:
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _rational_root(x: Fraction, k: int) -> Optional[Fraction]:
    """The exact k-th root of x >= 0 when it is rational, else None."""
    roots = []
    for part in (x.numerator, x.denominator):
        r = _iroot(part, k)
        if r**k != part:
            return None
        roots.append(r)
    return Fraction(roots[0], roots[1])


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for an integer x >= 0."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def _floor(value: Union[Exact, mpmath.mpf]) -> int:
    if isinstance(value, (int, Fraction)):
        return math.floor(value)
    return int(mpmath.floor(value))


def _ceil(value: Union[Exact, mpmath.mpf]) -> int:
    if isinstance(value, (int, Fraction)):
        return math.ceil(value)
    return int(mpmath.ceil(value))


def beta_sq_n(alpha: Fraction, t: int, n: int) -> Union[Fraction, mpmath.mpf]:
    """beta_t(alpha)^2 * n, exact when it is rational.

    beta^2 = t^2 / (4 (t-1)) * (A + B - 2 sqrt(A B)) with
    A = 1 - (1 - 2/t)^2 alpha and B = 1 - alpha, so it is rational exactly
    when A B is the square of a rational.
    """
    a_term = 1 - Fraction(t - 2, t) ** 2 * alpha
    b_term = 1 - alpha
    scale = Fraction(t * t * n, 4 * (t - 1))
    root = _rational_root(a_term * b_term, 2)
    if root is not None:
        return scale * (a_term + b_term - 2 * root)
    return _mpf(scale) * (
        _mpf(a_term) + _mpf(b_term) - 2 * mpmath.sqrt(_mpf(a_term * b_term))
    )


def _sqrt(x: Union[Fraction, mpmath.mpf]):
    if isinstance(x, Fraction):
        root = _rational_root(x, 2)
        if root is not None:
            return root
        return mpmath.sqrt(_mpf(x))
    return mpmath.sqrt(x)


def es_clique_r(bsqn, t: int, n: int) -> Optional[int]:
    """Largest r in 1..n+1 with C(r+t-2, t-1) <= beta^2 n, or None."""

    def fits(r: int) -> bool:
        value = math.comb(r + t - 2, t - 1)
        if isinstance(bsqn, Fraction):
            return value <= bsqn
        return mpmath.mpf(value) <= bsqn

    if not fits(1):
        return None
    lo, hi = 1, n + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def guarantees(n: int, alpha: Fraction, t: int) -> dict:
    """Exact integer guarantee of every formula that ``clique_lower_report``
    and ``clique_guarantee`` (Erdos-Szekeres R) may report as applicable,
    clamped below at 1 as the library clamps. ``k23-log-*`` map to None
    when the oracle finds them not applicable."""
    out: dict = {}
    bsqn = beta_sq_n(alpha, t, n)
    if t == 2:
        out["ghs"] = _ceil(alpha * alpha * n / 10)
        out["holmsen"] = _ceil(bsqn)
    if t == 3:
        out["k23-sqrt-beta"] = _floor(_sqrt(2 * bsqn))
        out["k23-sqrt-alpha"] = _floor(_sqrt(Fraction(4, 9) * alpha * alpha * n))
        log_n = mpmath.log(n)
        bsq = _mpf(bsqn) / n if isinstance(bsqn, Fraction) else bsqn / n
        applicable = bsq > 0 and log_n >= 2 * mpmath.e**2 / bsq
        if applicable:
            out["k23-log-beta"] = _ceil(mpmath.sqrt(bsq * n * log_n / 2) + 2)
            out["k23-log-alpha"] = _ceil(_mpf(alpha) * mpmath.sqrt(n * log_n) / 3 + 2)
        else:
            out["k23-log-beta"] = None
            out["k23-log-alpha"] = None
    k = t - 1
    # e is transcendental, so this value is never an integer unless it is 0.
    out["es-root-beta"] = _floor(k / mpmath.e * _mpf_root(bsqn, k)) - t + 3
    a2n = alpha * alpha * n
    root_a = _rational_root(a2n, k)
    if root_a is not None:
        out["es-root-alpha"] = _floor(Fraction(k, 4) * root_a) - t + 3
    else:
        out["es-root-alpha"] = _floor(mpmath.mpf(k) / 4 * _mpf_root(a2n, k)) - t + 3
    if alpha < 1:
        r = es_clique_r(bsqn, t, n)
        out["ramsey-threshold"] = 1 if r is None else r + 1
    for key, value in out.items():
        if value is not None:
            out[key] = max(1, value)
    return out


def _mpf_root(x, k: int):
    x = _mpf(x) if isinstance(x, (int, Fraction)) else x
    return mpmath.root(x, k) if x > 0 else mpmath.mpf(0)


def turan_bound(formula_id: str, n: int, t: int, v_h: int, ramsey_value: int) -> float:
    """The induced-Turan edge bound ``formula_id`` at 50 digits."""
    n32 = mpmath.mpf(n) ** 1.5
    if formula_id == "ramsey-sqrt":
        value = t / (2 * mpmath.sqrt(t - 1)) * mpmath.sqrt(ramsey_value) * n32
    elif formula_id == "es-power":
        value = mpmath.mpf(t + 1) ** (mpmath.mpf(v_h - 1) / 2) * n32
    elif formula_id == "exp-power":
        value = mpmath.e ** (mpmath.mpf(v_h) / 2 - 1) * 2 ** (t - 1) * n32
    else:
        raise ValueError(f"unknown induced-Turan formula {formula_id!r}")
    return float(value)
