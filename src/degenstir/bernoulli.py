"""Deformed Bernoulli polynomials, their truncated variants, partial Bell
polynomials, and the reciprocal-series polynomials.

The order-alpha Bernoulli generating function is (t/(e(t)-1))^alpha times
the deformed exponential of x.  The truncated variant replaces e(t)-1 by
the block (the exponential without its first r coefficients) and t by t^r,
per power of the order.  The block's alpha-th power is
alpha! sum_n S_r(n, alpha) t^n / n!, column alpha of the truncated
second-kind Stirling triangle, so the quotient (t^r / block)^alpha is one
division of the unit series by that column shifted down by alpha r orders.
It is cached per order and precision, apart from x; value n picks the
precision from n alone.  The plain values are the r = 1 case and are
computed as such.

Partial Bell polynomials are computed twice on purpose, from the defining
series (whose powers are a ladder too, kept for the last few series) and by
direct enumeration of the partition multiplicity vectors; the
reciprocal-series polynomials likewise come from an alternating Bell sum
and from a plain series reciprocal.  The pairs must agree and the public
entry points check that they do.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .combinat import partitions_exact
from .core import degen_exp, one_falling
from .errors import InputTooShort, RouteDisagreement
from .field import FieldElem, as_elem, const
from .series import Series
from .stirling import _climb, stirling2r_gf


@lru_cache(maxsize=None)
def _bern_quot(r: int, alpha: int, precision: int, lam) -> Series:
    """(t^r / block)^alpha at ``precision``: the unit series over
    block^alpha / t^(alpha r), whose t^m coefficient is
    alpha! S_r(m + alpha r, alpha) / (m + alpha r)!."""
    scale = math.factorial(alpha)
    lo = alpha * r
    denom = Series(stirling2r_gf(lo + m, alpha, r, lam=lam)
                   * Fraction(scale, math.factorial(lo + m))
                   for m in range(precision + 1))
    return Series.one(precision, lam).div(denom)


@lru_cache(maxsize=None)
def _trunc_bern_series(r: int, alpha: int, x: FieldElem, precision: int, lam) -> Series:
    q = _bern_quot(r, alpha, precision, lam)
    if not x.is_zero:
        q = q.mul(degen_exp(x, precision, lam))
    return q


def trunc_degen_bernoulli(n: int, r: int, alpha: int, x=0, lam=None) -> FieldElem:
    """Truncated order-alpha value; r = 1 gives ``degen_bernoulli``."""
    x = as_elem(x, lam)
    # coefficient n needs the orders up to n; rounding the precision up to a
    # multiple of 8 lets nearby values share one cached quotient (without it
    # the pinned-sweep benchmark ran ~10% slower)
    ser = _trunc_bern_series(r, alpha, x, n + (-n) % 8, x.lam)
    return ser.coeff(n) * math.factorial(n)


def degen_bernoulli(n: int, alpha: int, x=0, lam=None) -> FieldElem:
    """Order-alpha value: n! [t^n] (t/(e(t)-1))^alpha e^x(t), the r = 1
    truncated value; x = 0 gives the plain numbers, alpha = 0 the unit
    sequence."""
    return trunc_degen_bernoulli(n, 1, alpha, x, lam)


def _prepare_xs(xs, lam):
    elems = tuple(as_elem(v, lam) for v in xs)
    mode = elems[0].lam if elems else lam
    return elems, mode


def _require_xs(xs, needed: int):
    if len(xs) < needed:
        raise InputTooShort(
            "need sequence values up to index %d, got %d" % (needed, len(xs)))


def bell_partial_enum(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial by enumerating partition multiplicities."""
    xs, mode = _prepare_xs(xs, lam)
    if 1 <= k <= n:
        _require_xs(xs, n - k + 1)
    if k == 0:
        return const(1 if n == 0 else 0, mode)
    total = const(0, mode)
    n_fact = math.factorial(n)
    for part in partitions_exact(n, k):
        mult = Counter(part)
        coef = Fraction(n_fact)
        term = const(1, mode)
        for j, m in mult.items():
            coef /= math.factorial(j) ** m * math.factorial(m)
            term = term * xs[j - 1] ** m
        total = total + coef * term
    return total


# A table row n asks for every power k <= n of one series, so its powers are
# a ladder; the next row's series is longer, so only the last few are kept.
@lru_cache(maxsize=4)
def _bell_rungs(coeffs: tuple) -> list:
    # the powers of the series with these coefficients; _climb extends the list
    return [Series.one(len(coeffs) - 1, coeffs[0].lam)]


def bell_partial_gf(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial from the defining series power, read off a
    ladder of the powers of that series."""
    xs, mode = _prepare_xs(xs, lam)
    if 1 <= k <= n:
        _require_xs(xs, n - k + 1)
    if k == 0:
        return const(1 if n == 0 else 0, mode)
    z = const(0, mode)
    coeffs = [z]
    for l in range(1, n + 1):
        if l <= len(xs):
            coeffs.append(xs[l - 1] / math.factorial(l))
        else:
            coeffs.append(z)
    coeffs = tuple(coeffs)
    ser = _climb(_bell_rungs(coeffs), k, lambda: Series(coeffs))
    return ser.coeff(n) * Fraction(math.factorial(n), math.factorial(k))


def bell_partial(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial, computed by both routes and cross-checked."""
    a = bell_partial_enum(n, k, xs, lam)
    b = bell_partial_gf(n, k, xs, lam)
    if a != b:
        raise RouteDisagreement("internal error: Bell routes disagree at (%d, %d)" % (n, k))
    return a


def k_lambda_series(n: int, xs, lam=None) -> FieldElem:
    """Reciprocal-series polynomial: n! [t^n] of the reciprocal of the
    series with coefficients (1)_l x_l / l! (constant term fixed at 1)."""
    xs, mode = _prepare_xs(xs, lam)
    _require_xs(xs, n)
    coeffs = [const(1, mode)]
    for l in range(1, n + 1):
        coeffs.append(one_falling(l, mode) * xs[l - 1] / math.factorial(l))
    rec = Series.one(n, mode).div(Series(coeffs))
    return rec.coeff(n) * math.factorial(n)


def k_lambda_bell(n: int, xs, lam=None) -> FieldElem:
    """Same polynomial from the alternating partial-Bell sum."""
    xs, mode = _prepare_xs(xs, lam)
    _require_xs(xs, n)
    if n == 0:
        return const(1, mode)
    scaled = tuple(xs[l - 1] * one_falling(l, mode) for l in range(1, n + 1))
    total = const(0, mode)
    for k in range(1, n + 1):
        sign = -1 if k % 2 else 1
        total = total + (sign * math.factorial(k)) * bell_partial_enum(n, k, scaled)
    return total


def k_lambda(n: int, xs, lam=None) -> FieldElem:
    """Reciprocal-series polynomial, both routes cross-checked."""
    a = k_lambda_bell(n, xs, lam)
    b = k_lambda_series(n, xs, lam)
    if a != b:
        raise RouteDisagreement("internal error: reciprocal routes disagree at n=%d" % (n,))
    return a
