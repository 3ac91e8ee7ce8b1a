"""Deformed Bernoulli polynomials, their truncated variants, partial Bell
polynomials, and the reciprocal-series polynomials.

The order-alpha Bernoulli generating function is (t/(e(t)-1))^alpha times
the deformed exponential of x.  The truncated variant replaces e(t)-1 by
the block (the exponential without its first r coefficients) and t by t^r,
per power of the order.  The block's alpha-th power is
alpha! sum_n S_r(n, alpha) t^n / n!, column alpha of the truncated
second-kind Stirling triangle, so the quotient (t^r / block)^alpha is the
reciprocal of that column shifted down by alpha r orders.  The values, n!
times the coefficients, are kept on the domain (see ``field.domain``) in one
row per (r, alpha, x) that grows on demand: at x = 0 by the reciprocal
recurrence over the column, at x != 0 by the Appell form over the x = 0
row.  The plain values are the r = 1 case and are computed as such.

Partial Bell polynomials are read off a ladder of the powers of their
defining series, and the reciprocal-series polynomials are the alternating
sum of the rungs of the scaled series' ladder.  The enumeration of the
partition multiplicity vectors and a plain series reciprocal are their
independent routes; the public entry points check that the pairs agree.
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
from .core import descending
from .errors import InputTooShort, RouteDisagreement, ZeroDivisorSeries
from .field import FieldElem, as_elem, domain
from .series import product, quotient, valuation
from .stirling import stirling_entry


_growing = threading.Lock()


class _Row:
    """The truncated order-alpha values at one x known so far, each n! times
    its t^n coefficient, and at x != 0 the descending products of x."""

    __slots__ = ("values", "prods")

    def __init__(self, x, dom):
        self.values = []
        self.prods = [dom.one] if x else None


def _row(r: int, alpha: int, x, dom) -> _Row:
    # threads that race on a cold row all get the one row that is stored
    return dom.memo.setdefault(("row", r, alpha, x), _Row(x, dom))


def _grow(row: _Row, n: int, r: int, alpha: int, x, dom):
    """Grow the row to value n under ``_growing``, so that threads never
    append one value twice; reads take no lock.  What another lock guards is
    filled first, outside this one: a row at x != 0 grows its x = 0 row
    (``_growing`` is not reentrant), and the x = 0 row column alpha of the
    Stirling triangle (under ``stirling``'s lock)."""
    if x:
        base = _row(r, alpha, dom.zero, dom)
        if n >= len(base.values):
            _grow(base, n, r, alpha, dom.zero, dom)
        with _growing:
            _appell(row, n, x, base.values, dom)
    else:
        stirling_entry(2, n + alpha * r, alpha, r, dom)
        with _growing:
            _reciprocal(row.values, n, r, alpha, dom)


def _reciprocal(vals: list, n: int, r: int, alpha: int, dom):
    # beta_m = -(1/D_0) sum_{i=1..m} C(m, i) D_i beta_{m-i} and beta_0 = 1/D_0,
    # where D_i = i! alpha! S_r(i + alpha r, alpha) / (i + alpha r)!
    lo, scale = alpha * r, math.factorial(alpha)
    if not vals:
        d0 = stirling_entry(2, lo, alpha, r, dom) * Fraction(scale, math.factorial(lo))
        if not d0:
            # at a pinned parameter the block's lowest coefficient vanishes
            # only with the whole block
            raise ZeroDivisorSeries("division by a series with no known nonzero coefficient")
        vals.append(dom.inverse(d0))
    neg = -vals[0]
    while len(vals) <= n:
        m = len(vals)
        top = math.factorial(m) * scale
        acc = dom.zero
        for i in range(1, m + 1):
            s = stirling_entry(2, i + lo, alpha, r, dom)
            b = vals[m - i]
            if s and b:
                acc = acc + Fraction(top, math.factorial(m - i) * math.factorial(i + lo)) * s * b
        vals.append(acc * neg)


def _appell(row: _Row, n: int, x, base: list, dom):
    # beta_m(x) = sum_j C(m, j) beta_j (x)_{m-j}, over the x = 0 values
    prods, vals = row.prods, row.values
    while len(prods) <= n:
        prods.append(prods[-1] * (x - (len(prods) - 1) * dom.lam))
    while len(vals) <= n:
        m = len(vals)
        acc = dom.zero
        for j in range(m + 1):
            if base[j]:
                acc = acc + math.comb(m, j) * base[j] * prods[m - j]
        vals.append(acc)


def bernoulli_entry(n: int, r: int, alpha: int, x, dom):
    """Truncated order-alpha value at the ``dom`` value x, as a ``dom`` value."""
    if n < 0:
        raise IndexError("negative coefficient index")
    row = dom.memo.get(("row", r, alpha, x)) or _row(r, alpha, x, dom)
    if n >= len(row.values):
        _grow(row, n, r, alpha, x, dom)
    return row.values[n]


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


def bell_partial_enum(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial by enumerating partition multiplicities."""
    xs, dom = _prepare_xs(xs, lam)
    if 1 <= k <= n:
        _require_xs(xs, n - k + 1)
    if k == 0:
        return dom.wrap(dom.one if n == 0 else dom.zero)
    total = dom.zero
    n_fact = math.factorial(n)
    for part in partitions_exact(n, k):
        coef = Fraction(n_fact)
        term = dom.one
        for j, m in Counter(part).items():
            coef /= math.factorial(j) ** m * math.factorial(m)
            term = term * xs[j - 1] ** m
        total = total + coef * term
    return dom.wrap(total)


# A Bell table row n, or one reciprocal polynomial of order n, reads the
# powers k <= n of one series, so its powers are a ladder; the next row's
# series is longer, so only the last few are kept.
@lru_cache(maxsize=4)
def _bell_rungs(coeffs: tuple, dom) -> list:
    # rung k is the k-th power of the series with these coefficients, values
    # of dom; _climb extends the list
    return [(dom.one,) + (dom.zero,) * (len(coeffs) - 1), coeffs]


def _climb(coeffs: tuple, k: int, dom) -> list:
    """The ladder of the series ``coeffs``, with its rungs 0..k filled in a
    loop, one product each, under ``_growing`` so that threads never append
    one rung twice; reads take no lock."""
    rungs = _bell_rungs(coeffs, dom)
    if k >= len(rungs):
        with _growing:
            while len(rungs) <= k:
                rungs.append(product(rungs[-1], rungs[1], dom.zero))
    return rungs


def bell_partial_gf(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial from the defining series power, read off the
    ladder of the powers of that series."""
    xs, dom = _prepare_xs(xs, lam)
    if 1 <= k <= n:
        _require_xs(xs, n - k + 1)
    if k == 0:
        return dom.wrap(dom.one if n == 0 else dom.zero)
    coeffs = (dom.zero,) + tuple(xs[l - 1] / math.factorial(l) if l <= len(xs) else dom.zero
                                 for l in range(1, n + 1))
    v = valuation(coeffs)
    if v is None or k * v > n:
        # the k-th power starts at t^(kv), past t^n
        return dom.wrap(dom.zero)
    rungs = _climb(coeffs, k, dom)
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
    """Same polynomial from the alternating partial-Bell sum of the scaled
    sequence (1)_l x_l: n! sum_k (-1)^k [t^n] g^k for the series
    g = sum_l (1)_l x_l t^l / l!, read off the ladder of the powers of g."""
    xs, dom = _prepare_xs(xs, lam)
    _require_xs(xs, n)
    units = descending(dom.one, n, dom.lam, dom)
    g = (dom.zero,) + tuple(xs[l - 1] * units[l] / math.factorial(l) for l in range(1, n + 1))
    v = valuation(g)
    # g^k starts at t^(kv), so the rungs past n // v add nothing at t^n
    top = 0 if v is None else n // v
    total = dom.zero
    for k, rung in enumerate(_climb(g, top, dom)[:top + 1]):
        total = total + (-1) ** k * rung[n]
    return dom.wrap(total * math.factorial(n))


def k_lambda(n: int, xs, lam=None) -> FieldElem:
    """Reciprocal-series polynomial, both routes cross-checked."""
    a = k_lambda_bell(n, xs, lam)
    b = k_lambda_series(n, xs, lam)
    if a != b:
        raise RouteDisagreement("internal error: reciprocal routes disagree at n=%d" % (n,))
    return a
