"""Deformed Stirling numbers of both kinds and their truncated variants.

The second-kind numbers are n! times the t^n coefficients of the k-th power
of the deformed exponential minus one, over k!; the first-kind numbers use
the deformed logarithm instead.  The truncated variants remove the first r
coefficients of the base series before powering, which pushes the valuation
of the k-th power up to k*r.  The plain kinds are the r = 1 case.

Every entry is read from one cached triangle per (kind, r, parameter),
filled by the triangle recurrence in n (see ``_Triangle``), column by
column: entry (n, k) grows only the columns 0..k, and column j only down to
row n - (k - j) r, the rows that entry reads.  Column k of the second
kind, read as k! sum_n S(n, k) t^n / n!, is the k-th power of the block, so
the truncated Bernoulli values read the denominator of their quotient off
the same triangle.  The defining series stays as the independent route: ``_block``
is the base series without its orders below t^r, and the tests check the
triangle against its powers.  Every entry is exact and needs no working
precision: coefficient n is fixed by the orders up to n.  The cells are
values of the mode's domain (see ``field``): ``stirling_entry`` reads one,
and the public entries wrap it.

For the truncated second kind three independent routes are implemented:

* ``stirling2r_gf``           the recurrence-filled triangle,
* ``stirling2r_composition``  brute-force sum over compositions with parts >= r,
* ``stirling2r_binomial``     an alternating binomial multiple sum.

They must return identical canonical values; the tests and the ``verify``
command lean on that redundancy.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .combinat import compositions
from .core import degen_exp, degen_log, descending, int_falling, one_falling
from .field import FieldElem, const, domain
from .series import Series


def _block(kind: int, r: int, precision: int, lam) -> Series:
    """The kind's base series (the deformed exponential for the second kind,
    the deformed logarithm of 1 + t for the first) with every coefficient
    below t^r removed.  For r >= 1 this drops the exponential's constant 1;
    the logarithm's constant term is 0 already."""
    base = degen_exp(1, precision, lam) if kind == 2 else degen_log(precision, lam)
    z = const(0, lam)
    return Series(tuple(z if i < r else base.coeffs[i] for i in range(precision + 1)))


_growing = threading.Lock()


class _Triangle:
    """The truncated Stirling numbers S(m, j) of one kind, r and parameter,
    filled by the triangle recurrence in n

        S(m+1, j) = (j*a - m*b) S(m, j) + C(m, r-1) c S(m-r+1, j-1),

    where a, b, c are 1, l, (1)_{r,l} for the second kind and l, 1,
    (l-1)(l-2)...(l-r+1) for the first.  Column j lists S(j*r..m, j), the
    rows above j*r being zero, so cell (m, j) is ``cols[j][m - j*r]`` and
    the j - 1 neighbour of a cell sits at the same index in the column before
    it.  Columns grow downward; ``fill`` grows only the columns an entry
    needs."""

    __slots__ = ("r", "zero", "one", "a", "b", "c", "cols", "factors", "coefs")

    def __init__(self, kind: int, r: int, dom):
        if kind == 2:
            self.a, self.b = dom.one, dom.lam
            self.c = descending(dom.one, r, dom.lam, dom)[-1]
        else:
            self.a, self.b = dom.lam, dom.one
            self.c = descending(dom.lam - 1, r - 1, 1, dom)[-1]
        self.r = r
        self.zero, self.one = dom.zero, dom.one
        self.cols = []     # column j: S(j*r..m, j)
        self.factors = []  # column j: j*a - m*b, the factor of its next row
        self.coefs = []    # row m: C(m, r-1) c; unused at r = 1, where it is 1

    def fill(self, n: int, k: int):
        """Grow each column j <= k down to row n - (k - j) r, the rows that
        entry (n, k) reads; the caller holds ``_growing``."""
        r, cols, zero = self.r, self.cols, self.zero
        last = n - k * r  # the same index in every column
        while r > 1 and len(self.coefs) < n:
            self.coefs.append(self.c * math.comb(len(self.coefs), r - 1))
        for j in range(k + 1):
            if j == len(cols):
                # S(0, 0) = 1; rows 0..j*r-1 of column j >= 1 are 0, unstored
                cols.append([self.one] if j == 0 else [])
                self.factors.append(self.a * j - self.b * (j * r + len(cols[j]) - 1))
            col, f = cols[j], self.factors[j]
            while len(col) <= last:
                i = len(col)
                m = j * r + i - 1
                v = f * col[-1] if i and col[-1] else zero
                left = cols[j - 1][i] if j else zero
                if left:
                    v = v + (left if r == 1 else self.coefs[m] * left)
                col.append(v)
                f = f - self.b
            self.factors[j] = f


@lru_cache(maxsize=None)
def _triangle(kind: int, r: int, lam) -> _Triangle:
    return _Triangle(kind, r, domain(lam))


def stirling_entry(kind: int, n: int, k: int, r: int, dom):
    """Entry (n, k), k being the power, of the truncated Stirling triangle of
    the kind (1 or 2) and r, as a value of ``dom``: n! [t^n] block^k / k!."""
    if n < 0 or k < 0 or r < 1:
        raise ValueError("Stirling entries need n, k >= 0 and r >= 1, got "
                         "n=%d, k=%d, r=%d" % (n, k, r))
    if k * r > n:
        return dom.zero
    tri = _triangle(kind, r, dom.mode)
    cols, i = tri.cols, n - k * r
    if k >= len(cols) or i >= len(cols[k]):
        with _growing:
            tri.fill(n, k)
    return cols[k][i]


def stirling2_degen(n: int, k: int, lam=None) -> FieldElem:
    """Second kind: n! [t^n] (e(t) - 1)^k / k!, the r = 1 truncated number."""
    return stirling2r_gf(n, k, 1, lam)


def stirling1_degen(n: int, k: int, lam=None) -> FieldElem:
    """First kind: n! [t^n] (log-series)^k / k!, the r = 1 truncated number."""
    return stirling1r_gf(n, k, 1, lam)


def stirling2r_gf(n: int, k: int, r: int, lam=None) -> FieldElem:
    """Truncated second kind, n! [t^n] block^k / k!, from its triangle."""
    dom = domain(lam)
    return dom.wrap(stirling_entry(2, n, k, r, dom))


def stirling1r_gf(n: int, k: int, r: int, lam=None) -> FieldElem:
    """Truncated first kind, n! [t^n] block^k / k!, from its triangle."""
    dom = domain(lam)
    return dom.wrap(stirling_entry(1, n, k, r, dom))


def stirling2r_composition(n: int, k: int, r: int, lam=None) -> FieldElem:
    """Truncated second kind by brute-force enumeration of the compositions
    of n into k parts, every part at least r."""
    if k == 0:
        return const(1 if n == 0 else 0, lam)
    total = const(0, lam)
    n_fact = math.factorial(n)
    for comp in compositions(n, k, r):
        coef = Fraction(n_fact)
        for part in comp:
            coef /= math.factorial(part)
        term = const(coef, lam)
        for part in comp:
            term = term * one_falling(part, lam)
        total = total + term
    return total / math.factorial(k)


def stirling2r_binomial(n: int, k: int, r: int, lam=None) -> FieldElem:
    """Truncated second kind by the alternating binomial multiple sum.

    Tuples whose partial sum exceeds n contribute nothing (the descending
    product of the residual index would need a negative length) and are
    skipped.
    """
    import itertools

    total = const(0, lam)
    n_fact = math.factorial(n)
    for m in range(k + 1):
        inner = const(0, lam)
        for ls in itertools.product(range(r), repeat=m):
            residual = n - sum(ls)
            if residual < 0:
                continue
            coef = Fraction(n_fact, math.factorial(residual))
            term = int_falling(k - m, residual, lam)
            for l in ls:
                coef /= math.factorial(l)
                term = term * one_falling(l, lam)
            inner = inner + coef * term
        sign = -1 if m % 2 else 1
        total = total + (sign * math.comb(k, m)) * inner
    return total / math.factorial(k)


# family -> (core, truncated?).  The plain kinds are the r = 1 case of the
# truncated cores.  The lambdas look their core up when called, so that a
# wrapper later bound over a module attribute (a profiler's, say) sees every
# entry.
FAMILIES = {
    "stirling1": (lambda *a: stirling1r_gf(*a), False),
    "stirling2": (lambda *a: stirling2r_gf(*a), False),
    "stirling2r": (lambda *a: stirling2r_gf(*a), True),
    "stirling1r": (lambda *a: stirling1r_gf(*a), True),
}


def _family(family: str):
    if family not in FAMILIES:
        raise ValueError("unknown Stirling family %r" % (family,))
    return FAMILIES[family]


def family_entry(family: str, n: int, k: int, r: int = 1, lam=None) -> FieldElem:
    """Entry (n, k) of a Stirling family, k being the power; the plain kinds
    take r = 1 whatever r is given."""
    core, truncated = _family(family)
    return core(n, k, r if truncated else 1, lam)


def build_triangle(family: str, n_max: int, k_max=None, r: int = 1, lam=None):
    """Rows (n, m, value) of a Stirling family, n ascending then m ascending,
    where m is the second index of the quantity itself: k for the plain
    kinds, k*r for the truncated kinds.  Plain kinds emit the classical
    region k <= n; truncated kinds emit every power up to k_max so the
    vanishing cells below the staircase (n < k*r) appear as explicit zeros."""
    _, truncated = _family(family)
    if not truncated:
        r = 1
    k_max = n_max if k_max is None else k_max
    return [(n, k * r, family_entry(family, n, k, r, lam))
            for n in range(n_max + 1)
            for k in range(k_max + 1 if truncated else min(k_max, n) + 1)]
