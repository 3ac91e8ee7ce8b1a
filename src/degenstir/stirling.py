"""Deformed Stirling numbers of both kinds and their truncated variants.

The second-kind numbers are n! times the t^n coefficients of the k-th power
of the deformed exponential minus one, over k!; the first-kind numbers use
the deformed logarithm instead.  The truncated variants power the block, the
base series without its first r coefficients, which pushes the valuation of
the k-th power up to k*r.  The plain kinds are the r = 1 case.

Every entry is read from one triangle per (kind, r), a table of the
parameter's domain (see ``field.table``) grown under the domain's lock by the
triangle recurrence in n (see ``_Triangle``): entry (n, k) grows only the
columns 0..k, and column j only down to row n - (k - j) r, the rows it reads.
Column k of the second kind, read as k! sum_n S(n, k) t^n / n!, is the k-th
power of the block, so the truncated Bernoulli values read the denominator
of their quotient off the same triangle.  The tests check the triangle
against the block's powers, the defining series.  Every entry is exact:
coefficient n is fixed by the orders up to n.

Both modes fill the triangle of the scaled cells q^(m-j) S(m, j), l being
p/q (q = 1 in the symbolic mode), which are integer polynomials in l because
the recurrence's factors and its start S(0, 0) = 1 are: the triangle stores
their int coefficients, a single integer when pinned, and fills them with
``field``'s int arithmetic alone, with no element, polynomial or Fraction
built.  ``stirling_entry`` makes a cell the mode's value on its first read:
its canonical element (``field.int_poly``) when symbolic, the reduced
Fraction when pinned; the public entries wrap it.  A table is not shared
state: ``table_text`` fills a triangle of its own row by row while the rows
are written, keeps about r rows of it, and writes each cell's canonical text
straight from its ints: symbolic, by a ``field.int_poly_writer`` of its own,
one ``%`` on the template of the cell's degree for a cell with no zero
coefficient and ``field.int_poly_str`` for any other; pinned,
``field.ratio_str`` of T / q^(m-j).  The wrap and that text are where the
modes differ.

For the truncated second kind two independent routes are implemented:

* ``stirling2r_gf``        the recurrence-filled triangle,
* ``stirling2r_binomial``  an alternating binomial multiple sum.

They must return identical canonical values; the tests and the benchmark's
checker lean on that redundancy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import int_falling, one_falling
from .field import (FieldElem, const, domain, int_add, int_add_mul, int_mul, int_poly,
                    int_poly_writer, int_scale, ratio_str, table)


class _Triangle:
    """The truncated Stirling numbers S(m, j) of one kind and r: the
    domain's table ("tri", kind, r), or a table's own.  With l = p/q (p = l,
    q = 1 in the symbolic mode) the scaled cell T(m, j) = q^(m-j) S(m, j) obeys

        T(m+1, j) = (j*a - m*b) T(m, j) + C(m, r-1) c T(m-r+1, j-1),

    where (a, b) is (q, p) for the second kind and (p, q) for the first, and
    c = (a - b)(a - 2b)...(a - (r-1)b) is q^(r-1) times (1)_{r,l} for the
    second kind and (l-1)(l-2)...(l-r+1) for the first.  The factors and the
    start T(0, 0) = 1 are integer polynomials in l, so every cell is one too:
    it is stored as its int coefficient tuple, lowest degree first (``()``
    for 0), and filled by ``field``'s int arithmetic alone.  A pinned cell is
    the constant (T(m, j),).  Column j lists T(j*r..m, j), the rows above j*r
    being zero, so cell (m, j) is ``cols[j][m - j*r]`` and the j - 1
    neighbour of a cell sits at the same index in the column before it.
    Columns grow downward, by ``fill``, one ``int_add_mul`` per cell: the
    left term plus the factor times the cell above, the left term at r > 1
    first multiplied by C(m, r-1) c, made for that cell.  Pinned, c is one
    int product, made with no tuple arithmetic.

    ``stirling_entry`` wraps a cell of the domain's triangle on the cell's
    first read and keeps it in ``values`` (unless the reader keeps its own,
    as the truncated Bernoulli rows do), which it reads without the lock:
    ``int_poly`` of the coefficients when symbolic, T(m, j) / q^(m-j) when
    pinned (``den`` is q, None in the symbolic mode)."""

    __slots__ = ("r", "den", "a", "c", "step", "cols", "factors", "values")

    def __init__(self, kind: int, r: int, dom):
        self.r = r
        lam = dom.mode
        # c is the descending product (a - b)(a - 2b)... of r - 1 factors
        if lam is None:
            self.den = None
            a, b = ((1,), (0, 1)) if kind == 2 else ((0, 1), (1,))
            step = int_scale(b, -1)
            x, c = int_add(a, step), (1,)
            for _ in range(r - 1):
                c, x = int_mul(c, x), int_add(x, step)
        else:
            p, q = lam.numerator, lam.denominator
            a, b = (q, p) if kind == 2 else (p, q)
            c = math.prod(a - i * b for i in range(1, r))  # one int product
            self.den, a, c, step = q, int_scale((1,), a), int_scale((1,), c), int_scale((1,), -b)
        self.a, self.c = a, c
        self.step = step  # a factor's change from one row to the next
        self.cols = []     # column j: T(j*r..m, j)
        self.factors = []  # column j: j*a - m*b, the factor of its next row
        self.values = {}   # (j, i) -> the value of cell i of column j

    def fill(self, n: int, k: int, whole: bool = False):
        """Grow each column j <= k down to row n - (k - j) r, the rows that
        entry (n, k) reads, or with ``whole`` down to row n; the caller holds
        the domain's lock unless the triangle is its own.  An entry grows
        every column to one index, so the walk starts at the first column
        too short; a whole row grows them all."""
        r, cols, step, c = self.r, self.cols, self.step, self.c
        last = n - k * r  # the same index in every column of an entry
        while len(cols) <= k:
            # T(0, 0) = 1; rows 0..j*r-1 of column j >= 1 are 0, unstored
            j = len(cols)
            cols.append([(1,)] if j == 0 else [])
            m = j * r + len(cols[j]) - 1  # j*a - m*b
            self.factors.append(int_add(int_scale(self.a, j), int_scale(step, m)))
        first = 0 if whole else k
        while first and len(cols[first - 1]) <= last:
            first -= 1
        for j in range(first, k + 1):
            col, f = cols[j], self.factors[j]
            stop = n - j * r if whole else last
            while len(col) <= stop:
                i = len(col)
                left = cols[j - 1][i] if j else ()
                if left and r > 1:
                    left = int_mul(int_scale(c, math.comb(j * r + i - 1, r - 1)), left)
                col.append(int_add_mul(left, f, col[-1]) if i else left)
                f = int_add(f, step)
            self.factors[j] = f


def _checked(kind: int, n: int, k: int, r: int):
    """Refuse a kind other than 1 or 2, a negative index, or r < 1."""
    if kind not in (1, 2):
        raise ValueError("Stirling numbers are of kind 1 or 2, got kind=%r" % (kind,))
    if n < 0 or k < 0 or r < 1:
        raise ValueError("Stirling entries need n, k >= 0 and r >= 1, got "
                         "n=%d, k=%d, r=%d" % (n, k, r))


def stirling_entry(kind: int, n: int, k: int, r: int, dom, keep=True):
    """Entry (n, k), k being the power, of the truncated Stirling triangle of
    the kind (1 or 2) and r, as a value of ``dom``: n! [t^n] block^k / k!,
    0 below the staircase (k*r > n).  A warm read takes no lock and writes
    nothing; a cold one grows the domain's triangle of the kind and r under
    the lock.  With ``keep`` false the triangle keeps no wrap of the cell."""
    _checked(kind, n, k, r)
    i = n - k * r
    if i < 0:
        return dom.zero
    tri = dom.memo.get(("tri", kind, r))
    if tri is None or k >= len(tri.cols) or i >= len(tri.cols[k]):
        with dom.lock:
            tri = table(dom, ("tri", kind, r), _Triangle, kind, r, dom)
            tri.fill(n, k)
    # read without the lock: two threads that both make a cell's first read
    # store equal values
    value = tri.values.get((k, i))
    if value is None:
        cell, den = tri.cols[k][i], tri.den
        value = int_poly(cell) if den is None else Fraction(cell[0] if cell else 0, den ** (n - k))
        if keep:
            tri.values[k, i] = value
    return value


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


# family -> (kind, truncated?).  The plain kinds are the r = 1 case of the
# truncated kinds.
FAMILIES = {
    "stirling1": (1, False),
    "stirling2": (2, False),
    "stirling2r": (2, True),
    "stirling1r": (1, True),
}


def _family(family: str):
    if family not in FAMILIES:
        raise ValueError("unknown Stirling family %r" % (family,))
    return FAMILIES[family]


def family_entry(family: str, n: int, k: int, r: int = 1, lam=None) -> FieldElem:
    """Entry (n, k) of a Stirling family, k being the power; the plain kinds
    take r = 1 whatever r is given."""
    kind, truncated = _family(family)
    # the entries are looked up when called, so that a wrapper later bound
    # over a module attribute (a profiler's, say) sees every entry
    entry = stirling2r_gf if kind == 2 else stirling1r_gf
    return entry(n, k, r if truncated else 1, lam)


def _region(family: str, n_max: int, k_max, r: int):
    """(kind, r, rows) of a Stirling family's table, r = 1 for the plain
    kinds: rows are the lazy (n, powers k) in row order, m being k*r, k <= n
    for the plain kinds and k <= k_max for the truncated, zero below the
    staircase (n < k*r).  The corner is refused as the entries refuse it."""
    kind, truncated = _family(family)
    if not truncated:
        r = 1
    k_max = n_max if k_max is None else k_max
    _checked(kind, n_max, k_max, r)
    rows = ((n, range(k_max + 1 if truncated else min(k_max, n) + 1))
            for n in range(n_max + 1))
    return kind, r, rows


def build_triangle(family: str, n_max: int, k_max=None, r: int = 1, lam=None):
    """Rows (n, m, value) of a Stirling family, in the order and region of
    ``_region``, each value read through ``stirling_entry``: the reference
    route of ``table_text``."""
    kind, r, rows = _region(family, n_max, k_max, r)
    dom = domain(lam)
    return [(n, k * r, dom.wrap(stirling_entry(kind, n, k, r, dom))) for n, ks in rows for k in ks]


def table_text(family: str, n_max: int, k_max=None, r: int = 1, lam=None):
    """The rows of ``build_triangle``, (n, m, text) with each value's
    canonical text.  The arguments are checked on the call; the rows are a
    generator that fills a triangle of its own, a whole row as it is read,
    and drops row n - r once row n is filled: it holds about r rows, and no
    domain table or lock.  A cell's text is written from its ints: symbolic,
    the integer polynomial's; pinned at l = p/q, T(n, k) / q^(n-k) reduced."""
    kind, r, rows = _region(family, n_max, k_max, r)
    tri = _Triangle(kind, r, domain(lam))
    cols, den = tri.cols, tri.den
    poly_text = int_poly_writer()

    def text(n, k):
        i = n - k * r
        if i < 0:
            return "0"
        cell = cols[k][i]
        if den is None:
            return poly_text(cell)
        return ratio_str(cell[0] if cell else 0, den ** (n - k))

    def texts():
        for n, ks in rows:
            tri.fill(n, min(len(ks) - 1, n // r), True)
            for j in range(min(len(cols), n // r)):
                cols[j][n - (j + 1) * r] = None  # row n - r
            for k in ks:
                yield n, k * r, text(n, k)

    return texts()
