"""Deformed Bernoulli polynomials, their truncated variants, partial Bell
polynomials, and the reciprocal-series polynomials.

The order-alpha Bernoulli generating function is (t/(e(t)-1))^alpha times
the deformed exponential of x.  The truncated variant replaces e(t)-1 by
the block (the exponential without its first r coefficients) and t by t^r,
per power of the order.  The block's alpha-th power is
alpha! sum_n S_r(n, alpha) t^n / n!, column alpha of the truncated
second-kind Stirling triangle, so the quotient (t^r / block)^alpha is the
reciprocal of that column shifted down by alpha r orders.  Every
coefficient of the block has E = (1)_{r,l} = (1-l)(1-2l)...(1-(r-1)l) as a
factor, so the column is E^alpha times a polynomial, its lowest coefficient
being E^alpha / (r!)^alpha.  The values, n! times the coefficients, are
therefore kept as numerators over E^alpha, polynomials when x is a
rational, in one row per (r, alpha, x), a table of the domain (see
``field.table``) that grows on demand: at x = 0 by the reciprocal
recurrence over the column divided by E^alpha, an exact division, at
x != 0 by the Appell form over the numerators of the x = 0 row, whose
E^alpha it shares; ``numerator_row`` grows both in one block under the
domain's lock.  Each numerator is one ``sum_products`` of the domain (see
``field``), reduced once, at x = 0 on int binomial coefficients and scaled
once, so a row runs no polynomial gcd; a value is its numerator divided by
E^alpha on its first read and kept, and the verifiers that sum values of
one row sum its numerators instead.  The plain values are the r = 1 case,
where E = 1 and the numerators are the values, and are computed as such.

Partial Bell polynomials are read off a triangle that each call builds
for itself and the domain does not keep, stored by columns, column k
holding B(k + d, k) for d = 0, 1, ..., and filled by the recurrence
B(n, k) = sum_{i=1..n-k+1} C(n-1, i-1) x_i B(n-i, k-1), one
``sum_products`` per cell: a value (n, k) builds the band it reads, columns
0..k down to index n - k, and a table its rows n <= n_max.  Every cell is
checked against the power form B(n, k) = n!/k! [t^(n-k)] g^k, where
g = sum_i x_i t^(i-1)/i! (Comtet, Advanced Combinatorics, 1974, ch. 3), its
powers climbed one ``series.product`` per column.  The reciprocal-series
polynomials are n! times the coefficients of one reciprocal, to the last
order, of 1 + sum_l (1)_l x_l t^l / l!, whose coefficient n reads the first
n coefficients alone; it is checked by multiplying it back by the series,
which must give 1 to that order: O(n^2) sums, and no Bell triangle.  The
per-value entries (``bell_partial``, ``k_lambda``) and the table rows
(``bell_rows``, ``k_lambda_rows``) prepare their sequence once and build
one triangle or one reciprocal.  The enumeration of the partitions of n
into k parts (``partitions_exact``, ``bell_partial_enum``) costs more than
any polynomial in n, and no production path calls it.
Every route computes on domain values (see ``field``); the public entry
points unwrap their arguments and wrap their result.  The rows grow under
the domain's lock and are read without it; a row the domain dropped is
made afresh on its next read.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .core import descending
from .errors import InputTooShort, PoleAtLambda, RouteDisagreement
from .field import FieldElem, as_elem, domain, table
from .series import product, quotient, valuation
from .stirling import stirling_entry


class _Row:
    """The truncated order-alpha values at one x known so far, each n! times
    its t^n coefficient, as numerators over ``den`` = E^alpha: ``nums[m]`` is
    E^alpha times value m.  Every numerator is a polynomial when x is a
    rational, and at r = 1, where E = 1, it is the value.  The x = 0 row
    keeps column alpha of the Stirling triangle over E^alpha, ``quots[i]`` =
    S_r(i + alpha r, alpha) / E^alpha, and a row at x != 0 the descending
    products of x, ``prods``.  ``values`` keeps each value N_m / E^alpha
    read at r > 1, by m, from its first read on.  A row at x != 0 is given
    ``den`` by its x = 0 row, which checks r and alpha when it is made."""

    __slots__ = ("nums", "den", "quots", "prods", "values")

    def __init__(self, n, r, alpha, x, dom, den=None):
        if r < 1 or alpha < 0:
            raise ValueError("truncated Bernoulli values need r >= 1 and alpha >= 0, "
                             "got n=%d, r=%d, alpha=%d" % (n, r, alpha))
        self.nums = []
        self.den = descending(dom.one, r, dom.lam, dom)[-1] ** alpha if den is None else den
        self.values = {}
        self.quots = None if x else []
        self.prods = [dom.one] if x else None


def _exact_div(value, den, dom):
    # a quotient of polynomial values known to be a polynomial: symbolic
    # values divide their numerators, so the quotient keeps denominator 1
    if dom.mode is not None:
        return value / den
    return FieldElem.from_polys(value.num.exact_div(den.num))


def _reciprocal(row: _Row, n: int, r: int, alpha: int, dom):
    # N_m = -(r!)^alpha sum_{i=1..m} C(m, i) d_i N_{m-i} and N_0 = (r!)^alpha,
    # where d_i = i! alpha! q_i / (i + alpha r)! and q_i, the column
    # S_r(i + alpha r, alpha) over E^alpha, is a polynomial the row keeps.
    # As m!/((m-i)! (i + alpha r)!) = m!/(m + alpha r)! C(m + alpha r, i + alpha r),
    # each N_m is a sum on int binomials, scaled once
    stirling_entry(2, n + alpha * r, alpha, r, dom, False)  # so that the reads below fill nothing
    nums, quots = row.nums, row.quots
    lo, scale = alpha * r, math.factorial(alpha)
    lead = math.factorial(r) ** alpha
    if not row.den:
        # at a pinned zero of E every coefficient of the block vanishes
        raise PoleAtLambda("E = (1)_{r,lambda} vanishes at r=%d, lambda=%s" % (r, dom.mode))
    while len(quots) <= n:
        quots.append(_exact_div(stirling_entry(2, len(quots) + lo, alpha, r, dom, False),
                                row.den, dom))
    if not nums:
        nums.append(dom.const(lead))
    while len(nums) <= n:
        m = len(nums)
        total = dom.sum_products((math.comb(m + lo, i + lo), quots[i], nums[m - i])
                                 for i in range(1, m + 1))
        nums.append(total * Fraction(-math.factorial(m) * scale * lead, math.factorial(m + lo)))


def _appell(row: _Row, n: int, x, base: list, dom):
    # N_m(x) = sum_j C(m, j) N_j (x)_{m-j}, over the x = 0 numerators
    prods, nums = row.prods, row.nums
    while len(prods) <= n:
        prods.append(prods[-1] * (x - (len(prods) - 1) * dom.lam))
    while len(nums) <= n:
        m = len(nums)
        nums.append(dom.sum_products((math.comb(m, j), base[j], prods[m - j])
                                     for j in range(m + 1)))


def numerator_row(n: int, r: int, alpha: int, x, dom) -> _Row:
    """The row of the truncated order-alpha values at the ``dom`` value x,
    grown to numerator n: ``nums[m]`` is E^alpha times value m, ``den`` is
    E^alpha, and ``quots`` (at x = 0) or ``prods`` (at x != 0) is at least
    as long.  The one maker of the rows: a cold read takes the domain's lock
    once, grows the x = 0 row of (r, alpha), keyed by the int 0 so that its
    reads hash no domain value, only when it is too short, and at x != 0
    makes the x row over its E^alpha and grows it over its numerators; so
    threads never append one value twice.  A warm read takes no lock."""
    if n < 0:
        raise IndexError("negative coefficient index")
    key = ("row", r, alpha, x or 0)
    row = dom.memo.get(key)
    if row is None or n >= len(row.nums):
        with dom.lock:
            row = base = table(dom, ("row", r, alpha, 0), _Row, n, r, alpha, 0, dom)
            if n >= len(base.nums):
                _reciprocal(base, n, r, alpha, dom)
            if x:
                row = table(dom, key, _Row, n, r, alpha, x, dom, base.den)
                _appell(row, n, x, base.nums, dom)
    return row


def bernoulli_entry(n: int, r: int, alpha: int, x, dom):
    """Truncated order-alpha value at the ``dom`` value x, as a ``dom`` value:
    its numerator over E^alpha, which is 1 at r = 1, divided on its first
    read and kept."""
    row = numerator_row(n, r, alpha, x, dom)
    if r == 1:
        return row.nums[n]
    # read without the lock: two threads that both make a value's first read
    # store equal values
    value = row.values.get(n)
    if value is None:
        value = row.values[n] = row.nums[n] / row.den
    return value


def trunc_degen_bernoulli(n: int, r: int, alpha: int, x=0, lam=None) -> FieldElem:
    """Truncated order-alpha value; r = 1 gives ``degen_bernoulli``."""
    dom = domain(as_elem(x, lam).lam)
    return dom.wrap(bernoulli_entry(n, r, alpha, dom.unwrap(x), dom))


def degen_bernoulli(n: int, alpha: int, x=0, lam=None) -> FieldElem:
    """Order-alpha value: n! [t^n] (t/(e(t)-1))^alpha e^x(t), the r = 1
    truncated value; x = 0 gives the plain numbers, alpha = 0 the unit
    sequence."""
    return trunc_degen_bernoulli(n, 1, alpha, x, lam)


def _need(xs, needed: int):
    if len(xs) < needed:
        raise InputTooShort(
            "need sequence values up to index %d, got %d" % (needed, len(xs)))


def _prepare_xs(xs, lam, n: int, k: int, needed: int):
    # negative indices are refused before any work, as stirling_entry does;
    # the domain comes from lam, or else from the mode of the first element
    if n < 0 or k < 0:
        raise ValueError("Bell and reciprocal-series polynomials need n, k >= 0, "
                         "got n=%d, k=%d" % (n, k))
    dom = domain(as_elem(xs[0], lam).lam if xs else lam)
    _need(xs, needed)
    return tuple(dom.unwrap(v) for v in xs), dom


def _bell_needs(n: int, k: int) -> int:
    # B(n, k) reads x_1..x_(n-k+1), and B(n, 0) and B(n, k > n) none
    return n - k + 1 if 1 <= k <= n else 0


def partitions_exact(total: int, parts: int, max_part=None):
    """Yield nonincreasing tuples of exactly ``parts`` positive integers
    summing to total, none above max_part, the largest parts first
    (descending lexicographic order).  Iterative, so that no number of parts
    is too deep.  No production path calls it: it serves
    ``bell_partial_enum`` alone."""
    if parts <= 0:
        if total == parts == 0:
            yield ()
        return
    top = total if max_part is None else max_part
    if total < parts or top * parts < total:
        return
    a, i, rest = [0] * parts, 0, total
    while True:
        # fill parts i.. with rest, each the largest that leaves 1 to every
        # later part and is at most top
        for j in range(i, parts):
            a[j] = top = min(rest - (parts - 1 - j), top)
            rest -= top
        yield tuple(a)
        # the last part but the final one that can shrink by 1, the parts
        # from it on still summing to rest with none above it
        rest = a[-1]
        for i in range(parts - 2, -1, -1):
            rest += a[i]
            if (a[i] - 1) * (parts - i) >= rest:
                break
        else:
            return
        a[i] -= 1
        top = a[i]
        rest -= top
        i += 1


def _bell_enum(n: int, k: int, xs: tuple, dom):
    # B(n, k) of the dom values xs, a sum over the partitions of n into k parts
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
    """Partial Bell polynomial by enumerating partition multiplicities, at a
    cost that grows faster than any polynomial in n.  No production path
    calls it; it stays public as a reference route for outside checkers."""
    xs, dom = _prepare_xs(xs, lam, n, k, _bell_needs(n, k))
    return dom.wrap(_bell_enum(n, k, xs, dom))


def _bell_columns(k: int, last, xs: tuple, dom) -> list:
    """Columns 0..k of the partial Bell triangle of the ``dom`` values xs, x_i
    read as 0 past the end of xs: ``cols[j][d]`` = B(j + d, j) for d <= last(j),
    where last(j) never rises with j.  Each cell of a column j >= 1 is one
    ``sum_products`` of B(j + d, j) = sum_{i=1..d+1} C(j + d - 1, i - 1) x_i
    B(j + d - i, j - 1)."""
    cols = [[dom.one] + [dom.zero] * last(0)]  # B(d, 0) = 0 for d >= 1
    for j in range(1, k + 1):
        left = cols[-1]
        cols.append([dom.sum_products((math.comb(j + d - 1, i - 1), xs[i - 1], left[d + 1 - i])
                                      for i in range(1, min(d + 1, len(xs)) + 1))
                     for d in range(last(j) + 1)])
    return cols


def _checked_columns(k: int, last, xs: tuple, dom) -> list:
    """``_bell_columns``, every cell checked against the power route
    B(j + d, j) = (j + d)!/j! [t^d] g^j, g = sum_i x_i t^(i-1)/i!, whose
    powers climb one ``series.product`` per column, each cut to the
    column's last(j) + 1 cells."""
    cols = _bell_columns(k, last, xs, dom)
    top = last(0) + 1
    g = [x / math.factorial(i) for i, x in enumerate(xs[:top], 1)]
    g += [dom.zero] * (top - len(g))
    power = cols[0]  # g^0
    for j in range(1, k + 1):
        power = product(power[:last(j) + 1], g, dom)
        for d, coeff in enumerate(power):
            if cols[j][d] != coeff * math.perm(j + d, d):
                raise RouteDisagreement(
                    "internal error: Bell routes disagree at (%d, %d)" % (j + d, j))
    return cols


def bell_partial(n: int, k: int, xs, lam=None) -> FieldElem:
    """Partial Bell polynomial, read off the band of the triangle that it
    reads, columns 0..k down to index n - k, each cell checked against the
    power route."""
    xs, dom = _prepare_xs(xs, lam, n, k, _bell_needs(n, k))
    if k > n:
        return dom.wrap(dom.zero)
    return dom.wrap(_checked_columns(k, lambda j: n - k, xs, dom)[k][n - k])


def bell_rows(n_max: int, k_max: int, xs, lam=None) -> list:
    """The rows (n, k, B(n, k)) of a table, n <= n_max and k <= min(n,
    k_max) ascending, read off one triangle of xs, each cell checked as by
    ``bell_partial``.  A sequence too short for a cell fails at the first
    such cell, before any work."""
    xs, dom = _prepare_xs(xs, lam, n_max, k_max, 0)
    k_top = min(n_max, k_max)
    if k_top > 0 and n_max > len(xs):
        _need(xs, len(xs) + 1)  # cell (len(xs) + 1, 1)
    cols = _checked_columns(k_top, lambda j: n_max - j, xs, dom)
    return [(n, k, dom.wrap(cols[k][n - k]))
            for n in range(n_max + 1) for k in range(min(n, k_max) + 1)]


def _series(xs: tuple, dom) -> tuple:
    # the series 1 + sum_l (1)_l x_l t^l / l!, l = 1..len(xs)
    units = descending(dom.one, len(xs), dom.lam, dom)
    return (dom.one,) + tuple(x * units[l] / math.factorial(l) for l, x in enumerate(xs, 1))


def _series_reciprocal(n: int, series: tuple, dom) -> tuple:
    # the coefficients 0..n of the reciprocal of the series; coefficient m
    # depends on the series' coefficients 0..m alone, so one quotient to the
    # last order serves every lower one
    return quotient((dom.one,) + (dom.zero,) * n, series, dom)


def _k_lambda(n_max: int, xs: tuple, dom) -> list:
    # K(0..n_max) of prepared values xs, at least n_max of them: n! times
    # the coefficients of one series reciprocal, multiplied back to check
    # it.  The series' constant term is 1, so the first coefficient of the
    # product that is not the unit's is the first wrong one of the reciprocal
    series = _series(xs[:n_max], dom)
    rec = _series_reciprocal(n_max, series, dom)
    unit = product(rec, series, dom)
    bad = valuation((unit[0] - dom.one,) + unit[1:])
    if bad is not None:
        raise RouteDisagreement("internal error: reciprocal routes disagree at n=%d" % (bad,))
    return [c * math.factorial(n) for n, c in enumerate(rec)]


def k_lambda(n: int, xs, lam=None) -> FieldElem:
    """Reciprocal-series polynomial: n! [t^n] of the reciprocal of the series
    with coefficients (1)_l x_l / l! (constant term fixed at 1), read off
    the series reciprocal and checked by multiplying it back."""
    xs, dom = _prepare_xs(xs, lam, n, 0, n)
    return dom.wrap(_k_lambda(n, xs, dom)[n])


def k_lambda_rows(n_max: int, xs, lam=None) -> list:
    """The rows (n, 0, K(n)) of a table, n <= n_max ascending, on one
    series reciprocal, each value checked as by ``k_lambda``.  A sequence
    too short for a row fails at the first such row, before any work."""
    xs, dom = _prepare_xs(xs, lam, n_max, 0, 0)
    if n_max > len(xs):
        _need(xs, len(xs) + 1)  # row len(xs) + 1
    return [(n, 0, dom.wrap(value)) for n, value in enumerate(_k_lambda(n_max, xs, dom))]
