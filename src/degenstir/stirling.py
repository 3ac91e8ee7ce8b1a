"""Deformed Stirling numbers of both kinds and their truncated variants.

The second-kind numbers are n! times the t^n coefficients of the k-th power
of the deformed exponential minus one, over k!; the first-kind numbers use
the deformed logarithm instead.  The truncated variants power the block, the
base series without its first r coefficients, which pushes the valuation of
the k-th power up to k*r.  The plain kinds are the r = 1 case.

Every entry is read from one triangle per (kind, r), a table of the
parameter's domain (see ``field.table``) filled by the triangle
recurrence in n (see ``_Triangle``), column by column: entry (n, k) grows
only the columns 0..k, and column j only down to row n - (k - j) r, the rows
that entry reads.  Column k of the second kind, read as
k! sum_n S(n, k) t^n / n!, is the k-th power of the block, so the truncated
Bernoulli values read the denominator of their quotient off the same
triangle.  The tests check the triangle against the block's powers, the
defining series.  Every entry is exact and needs no working precision:
coefficient n is fixed by the orders up to n.

``stirling_entry`` returns a value of the mode's domain (see ``field``), and
the public entries wrap it.  Both modes fill the triangle of the scaled
cells q^(m-j) S(m, j), l being p/q (q = 1 in the symbolic mode), which are
integer polynomials in l because the recurrence's factors and its start
S(0, 0) = 1 are: the triangle stores their int coefficients, a single
integer when pinned, and fills them with ``field``'s int arithmetic alone,
with no element, polynomial or Fraction built.  A cell becomes the mode's
value on its first read through ``stirling_entry``, not when it is filled:
its canonical element (``field.int_poly``) when symbolic, the reduced
Fraction when pinned.  So an entry that reads one cell deep in a column wraps
that cell alone.  A table needs no value, only text: ``table_text`` writes
each cell's canonical text straight from its ints (``field.int_poly_str``
symbolic, ``field.ratio_str`` of T / q^(m-j) pinned), so it builds and keeps
no wrap.  The wrap and that text are the two places where the modes differ.

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
                    int_poly_str, int_scale, ratio_str, table)


class _Triangle:
    """The truncated Stirling numbers S(m, j) of one kind and r, kept as the
    table ("tri", kind, r) of its domain and filled by the triangle
    recurrence in n.  With the parameter written as l = p/q (p = l, q = 1 in
    the symbolic mode) the scaled cell T(m, j) = q^(m-j) S(m, j) obeys

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
    Columns grow downward; ``fill`` grows only the columns an entry needs,
    and at r > 1 adds the left term's product into the cell in one pass,
    its factor C(m, r-1) c made for that cell.

    ``stirling_entry`` wraps a cell into the domain's value on the cell's
    first read and keeps it in ``values`` (unless the reader keeps its own,
    as the truncated Bernoulli rows do), which it reads without the lock:
    ``int_poly`` of the coefficients when symbolic, T(m, j) / q^(m-j) when
    pinned (``den`` is q, None in the symbolic mode).  ``table_text``
    renders a table's text from the cells' ints instead, and keeps nothing
    in ``values``."""

    __slots__ = ("r", "den", "a", "c", "step", "cols", "factors", "values")

    def __init__(self, kind: int, r: int, dom):
        self.r = r
        lam = dom.mode
        if lam is None:
            self.den, p, q = None, (0, 1), (1,)
        else:
            self.den = lam.denominator
            p, q = int_scale((1,), lam.numerator), (lam.denominator,)
        a, b = (q, p) if kind == 2 else (p, q)
        self.step = int_scale(b, -1)  # a factor's change from one row to the next
        # c is the descending product (a - b)(a - 2b)... of r - 1 factors
        x, c = int_add(a, self.step), (1,)
        for _ in range(r - 1):
            c, x = int_mul(c, x), int_add(x, self.step)
        self.a, self.c = a, c
        self.cols = []     # column j: T(j*r..m, j)
        self.factors = []  # column j: j*a - m*b, the factor of its next row
        self.values = {}   # (j, i) -> the value of cell i of column j

    def fill(self, n: int, k: int):
        """Grow each column j <= k down to row n - (k - j) r, the rows that
        entry (n, k) reads; the caller holds the domain's lock.  Every fill
        grows its columns to one index, so no column is longer than the one
        before it, and the walk starts at the first column too short."""
        r, cols, step = self.r, self.cols, self.step
        last = n - k * r  # the same index in every column
        while len(cols) <= k:
            # T(0, 0) = 1; rows 0..j*r-1 of column j >= 1 are 0, unstored
            j = len(cols)
            cols.append([(1,)] if j == 0 else [])
            m = j * r + len(cols[j]) - 1  # j*a - m*b
            self.factors.append(int_add(int_scale(self.a, j), int_scale(step, m)))
        first = k
        while first and len(cols[first - 1]) <= last:
            first -= 1
        for j in range(first, k + 1):
            col, f = cols[j], self.factors[j]
            while len(col) <= last:
                i = len(col)
                m = j * r + i - 1
                v = int_mul(f, col[-1]) if i else ()
                left = cols[j - 1][i] if j else ()
                if left:
                    if r == 1:
                        v = int_add(v, left)
                    else:
                        v = int_add_mul(v, int_scale(self.c, math.comb(m, r - 1)), left)
                col.append(v)
                f = int_add(f, step)
            self.factors[j] = f


def _grown(kind: int, n: int, k: int, r: int, dom, tri=None):
    """The triangle of the kind and r, grown for entry (n, k): ``tri`` if the
    caller holds one, else the domain's table; None, with nothing made, for
    an entry below the staircase (k*r > n), which is 0.  A warm read takes
    no lock and writes nothing; a cold one makes or grows the triangle under
    the domain's lock."""
    if kind not in (1, 2):
        raise ValueError("Stirling numbers are of kind 1 or 2, got kind=%r" % (kind,))
    if n < 0 or k < 0 or r < 1:
        raise ValueError("Stirling entries need n, k >= 0 and r >= 1, got "
                         "n=%d, k=%d, r=%d" % (n, k, r))
    if k * r > n:
        return None
    found = tri or dom.memo.get(("tri", kind, r))
    if found is None or k >= len(found.cols) or n - k * r >= len(found.cols[k]):
        with dom.lock:
            found = tri or table(dom, ("tri", kind, r), _Triangle, kind, r, dom)
            found.fill(n, k)
    return found


def stirling_entry(kind: int, n: int, k: int, r: int, dom, keep=True):
    """Entry (n, k), k being the power, of the truncated Stirling triangle of
    the kind (1 or 2) and r, as a value of ``dom``: n! [t^n] block^k / k!.
    With ``keep`` false the triangle keeps no wrap of the cell."""
    tri = _grown(kind, n, k, r, dom)
    if tri is None:
        return dom.zero
    i = n - k * r
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


def _table_walk(family: str, n_max: int, k_max, r: int, lam):
    """The cells of a Stirling family's table, in row order: n ascending,
    then m ascending, where m is the second index of the quantity itself, k
    for the plain kinds and k*r for the truncated kinds.  Plain kinds emit
    the classical region k <= n; truncated kinds emit every power up to
    k_max, so the vanishing cells below the staircase (n < k*r) appear as
    explicit zeros.  Every column the table reads is grown down to row n_max
    here, in the one triangle held from its first read on, so the reads in
    row order fill nothing.  Returns (kind, r, dom, tri, cells), tri the
    triangle grown, cells the lazy (n, k) in order."""
    kind, truncated = _family(family)
    if not truncated:
        r = 1
    k_max = n_max if k_max is None else k_max
    dom = domain(lam)
    # the corner entry refuses what the entries refuse, before r divides
    tri = _grown(kind, n_max, k_max, r, dom)
    for k in range(min(k_max, n_max // r) + 1):
        tri = _grown(kind, n_max, k, r, dom, tri)
    cells = ((n, k) for n in range(n_max + 1)
             for k in range(k_max + 1 if truncated else min(k_max, n) + 1))
    return kind, r, dom, tri, cells


def build_triangle(family: str, n_max: int, k_max=None, r: int = 1, lam=None):
    """Rows (n, m, value) of a Stirling family, in the order and region of
    ``_table_walk``, each value read through ``stirling_entry``."""
    kind, r, dom, _, cells = _table_walk(family, n_max, k_max, r, lam)
    return [(n, k * r, dom.wrap(stirling_entry(kind, n, k, r, dom))) for n, k in cells]


def table_text(family: str, n_max: int, k_max=None, r: int = 1, lam=None):
    """Rows (n, m, text) of a Stirling family, those of ``build_triangle``
    with each value's canonical text in place of the value.  The triangle is
    filled before this returns; the rows are a generator that writes each
    cell's text from its ints when it is read, held by the triangle the fill
    made, and builds no element, Fraction or kept wrap: symbolic, the text of
    the integer polynomial; pinned at l = p/q, T(n, k) / q^(n-k) reduced."""
    _, r, _, tri, cells = _table_walk(family, n_max, k_max, r, lam)
    cols, den = tri.cols, tri.den

    def text(n, k):
        i = n - k * r
        if i < 0:
            return "0"
        cell = cols[k][i]
        if den is None:
            return int_poly_str(cell)
        return ratio_str(cell[0] if cell else 0, den ** (n - k))

    return ((n, k * r, text(n, k)) for n, k in cells)
