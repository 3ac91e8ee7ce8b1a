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
Every route computes on domain values (see ``field``); the public entry
points unwrap their arguments and wrap their result.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .combinat import partitions_exact
from .core import descending, exp_coeffs
from .errors import InputTooShort, RouteDisagreement
from .field import FieldElem, as_elem, domain
from .series import product, quotient, valuation
from .stirling import stirling_entry


@lru_cache(maxsize=None)
def _bern_quot(r: int, alpha: int, precision: int, dom) -> tuple:
    """(t^r / block)^alpha at ``precision``: the unit series over
    block^alpha / t^(alpha r), whose t^m coefficient is
    alpha! S_r(m + alpha r, alpha) / (m + alpha r)!."""
    scale = math.factorial(alpha)
    lo = alpha * r
    denom = [stirling_entry(2, lo + m, alpha, r, dom)
             * Fraction(scale, math.factorial(lo + m))
             for m in range(precision + 1)]
    return quotient((dom.one,) + (dom.zero,) * precision, denom, dom.inverse)


@lru_cache(maxsize=None)
def _trunc_bern_series(r: int, alpha: int, x, precision: int, dom) -> tuple:
    q = _bern_quot(r, alpha, precision, dom)
    if x:
        q = product(q, exp_coeffs(x, precision, dom), dom.zero)
    return q


def bernoulli_entry(n: int, r: int, alpha: int, x, dom):
    """Truncated order-alpha value at the ``dom`` value x, as a ``dom`` value."""
    if n < 0:
        raise IndexError("negative coefficient index")
    # coefficient n needs the orders up to n; rounding the precision up to a
    # multiple of 8 lets nearby values share one cached quotient (without it
    # the pinned-sweep benchmark ran ~10% slower)
    return _trunc_bern_series(r, alpha, x, n + (-n) % 8, dom)[n] * math.factorial(n)


def trunc_degen_bernoulli(n: int, r: int, alpha: int, x=0, lam=None) -> FieldElem:
    """Truncated order-alpha value; r = 1 gives ``degen_bernoulli``."""
    dom = domain(as_elem(x, lam).lam)
    return dom.wrap(bernoulli_entry(n, r, alpha, dom.unwrap(x), dom))


def degen_bernoulli(n: int, alpha: int, x=0, lam=None) -> FieldElem:
    """Order-alpha value: n! [t^n] (t/(e(t)-1))^alpha e^x(t), the r = 1
    truncated value; x = 0 gives the plain numbers, alpha = 0 the unit
    sequence."""
    return trunc_degen_bernoulli(n, 1, alpha, x, lam)


def _prepare_xs(xs, lam):
    # the domain comes from lam, or else from the mode of the first element
    dom = domain(as_elem(xs[0], lam).lam if xs else lam)
    return tuple(dom.unwrap(v) for v in xs), dom


def _require_xs(xs, needed: int):
    if len(xs) < needed:
        raise InputTooShort(
            "need sequence values up to index %d, got %d" % (needed, len(xs)))


def _bell_enum(n: int, k: int, xs, dom):
    if 1 <= k <= n:
        _require_xs(xs, n - k + 1)
    if k == 0:
        return dom.one if n == 0 else dom.zero
    total = dom.zero
    n_fact = math.factorial(n)
    for part in partitions_exact(n, k):
        coef = Fraction(n_fact)
        term = dom.one
        for j, m in Counter(part).items():
            coef /= math.factorial(j) ** m * math.factorial(m)
            term = term * xs[j - 1] ** m
        total = total + coef * term
    return total


def bell_partial_enum(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial by enumerating partition multiplicities."""
    xs, dom = _prepare_xs(xs, lam)
    return dom.wrap(_bell_enum(n, k, xs, dom))


# A table row n asks for every power k <= n of one series, so its powers are
# a ladder; the next row's series is longer, so only the last few are kept.
@lru_cache(maxsize=4)
def _bell_rungs(coeffs: tuple, dom) -> list:
    # rung k is the k-th power of the series with these coefficients, values
    # of dom; bell_partial_gf extends the list
    return [(dom.one,) + (dom.zero,) * (len(coeffs) - 1), coeffs]


_growing = threading.Lock()


def bell_partial_gf(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial from the defining series power, read off a
    ladder of the powers of that series.  Missing rungs are filled in a
    loop, one product each, under ``_growing`` so that threads never append
    one rung twice; reads take no lock."""
    xs, dom = _prepare_xs(xs, lam)
    if 1 <= k <= n:
        _require_xs(xs, n - k + 1)
    if k == 0:
        return dom.wrap(dom.one if n == 0 else dom.zero)
    coeffs = (dom.zero,) + tuple(xs[l - 1] / math.factorial(l) if l <= len(xs) else dom.zero
                                 for l in range(1, n + 1))
    rungs = _bell_rungs(coeffs, dom)
    v = valuation(rungs[1])
    if v is None or k * v > n:
        # the k-th power starts at t^(kv), past t^n
        return dom.wrap(dom.zero)
    if k >= len(rungs):
        with _growing:
            while len(rungs) <= k:
                rungs.append(product(rungs[-1], rungs[1], dom.zero))
    return dom.wrap(rungs[k][n] * Fraction(math.factorial(n), math.factorial(k)))


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
    xs, dom = _prepare_xs(xs, lam)
    _require_xs(xs, n)
    units = descending(dom.one, n, dom.lam, dom)
    coeffs = [dom.one] + [units[l] * xs[l - 1] / math.factorial(l) for l in range(1, n + 1)]
    rec = quotient((dom.one,) + (dom.zero,) * n, coeffs, dom.inverse)
    return dom.wrap(rec[n] * math.factorial(n))


def k_lambda_bell(n: int, xs, lam=None) -> FieldElem:
    """Same polynomial from the alternating partial-Bell sum."""
    xs, dom = _prepare_xs(xs, lam)
    _require_xs(xs, n)
    units = descending(dom.one, n, dom.lam, dom)
    scaled = tuple(xs[l - 1] * units[l] for l in range(1, n + 1))
    total = dom.one if n == 0 else dom.zero
    for k in range(1, n + 1):
        sign = -1 if k % 2 else 1
        total = total + (sign * math.factorial(k)) * _bell_enum(n, k, scaled, dom)
    return dom.wrap(total)


def k_lambda(n: int, xs, lam=None) -> FieldElem:
    """Reciprocal-series polynomial, both routes cross-checked."""
    a = k_lambda_bell(n, xs, lam)
    b = k_lambda_series(n, xs, lam)
    if a != b:
        raise RouteDisagreement("internal error: reciprocal routes disagree at n=%d" % (n,))
    return a
