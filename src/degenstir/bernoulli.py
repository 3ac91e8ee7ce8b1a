"""Deformed Bernoulli polynomials, their truncated variants, partial Bell
polynomials, and the reciprocal-series polynomials.

The order-alpha Bernoulli generating function is (t/(e(t)-1))^alpha times
the deformed exponential of x.  The truncated variant replaces e(t)-1 by
the Stirling module's block (the exponential without its first r
coefficients) and t by t^r, per power of the order.  The quotient
t^r / block is built once, r orders above the requested precision because
the division eats r orders, and its powers are cached as a ladder at the
requested precision: power alpha is power alpha-1 times the quotient.  The
plain values are the r = 1 case and are computed as such.

Partial Bell polynomials are computed twice on purpose, from the defining
series and by direct enumeration of the partition multiplicity vectors; the
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
from .stirling import _block, _check_precision, _climb, _pad


@lru_cache(maxsize=None)
def _bern_rungs(r: int, precision: int, lam) -> list:
    # the powers of t^r / block computed so far; _climb extends the list
    return [Series.one(precision, lam)]


def _bern_quot(r: int, alpha: int, precision: int, lam) -> Series:
    """(t^r / block)^alpha at ``precision``, from its cached ladder.  Rung 1
    is built at precision + r, and dividing by the block, whose valuation
    is r, brings it down to ``precision``."""
    p = precision + r
    return _climb(_bern_rungs(r, precision, lam), alpha,
                  lambda: Series.t_power(r, p, lam).div(_block(2, r, p, lam)))


@lru_cache(maxsize=None)
def _trunc_bern_series(r: int, alpha: int, x: FieldElem, precision: int, lam) -> Series:
    q = _bern_quot(r, alpha, precision, lam)
    if not x.is_zero:
        q = q.mul(degen_exp(x, precision, lam))
    return q


def trunc_degen_bernoulli(n: int, r: int, alpha: int, x=0, N=None, lam=None) -> FieldElem:
    """Truncated order-alpha value; r = 1 gives ``degen_bernoulli``."""
    N = n if N is None else N
    _check_precision(n, N)
    x = as_elem(x, lam)
    ser = _trunc_bern_series(r, alpha, x, _pad(N), x.lam)
    return ser.coeff(n) * math.factorial(n)


def degen_bernoulli(n: int, alpha: int, x=0, N=None, lam=None) -> FieldElem:
    """Order-alpha value: n! [t^n] (t/(e(t)-1))^alpha e^x(t), the r = 1
    truncated value; x = 0 gives the plain numbers, alpha = 0 the unit
    sequence."""
    return trunc_degen_bernoulli(n, 1, alpha, x, N, lam)


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


def bell_partial_gf(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial from the defining series power."""
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
    ser = Series(coeffs) ** k
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
