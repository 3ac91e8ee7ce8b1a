"""Truncated formal power series with strict precision bookkeeping.

A series knows its coefficients for t^0 .. t^precision and nothing beyond;
no operation ever pretends an unknown coefficient is zero.  Every operation
states how much precision survives:

* sum/product: the smaller operand precision,
* quotient: the smaller precision minus the divisor's valuation,
* composition: the smaller operand precision (sound because the inner
  series must have zero constant term).

Coefficients are :class:`FieldElem` values, all in one mode per series.
``product`` and ``quotient`` work on sequences of values of a domain (see
``field``), each coefficient one ``sum_products``; the kernels call them on
domain values, and ``Series.mul`` and ``Series.div`` unwrap their
coefficients to their domain and wrap the result back.
"""

from __future__ import annotations

from .errors import (
    ModeMismatch,
    NonzeroConstantTerm,
    PrecisionExceeded,
    ValuationTooHigh,
    ZeroDivisorSeries,
)
from .field import as_elem, const, domain


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        lam = cs[0].lam
        for c in cs[1:]:
            if c.lam != lam:
                raise ModeMismatch("series coefficients span different modes")
        self.coeffs = cs

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lam(self):
        return self.coeffs[0].lam

    @classmethod
    def constant(cls, value, precision, lam=None):
        v = as_elem(value, lam)
        z = const(0, v.lam)
        return cls((v,) + (z,) * precision)

    @classmethod
    def one(cls, precision, lam=None):
        return cls.constant(1, precision, lam)

    def coeff(self, n: int):
        if n < 0:
            raise IndexError("negative coefficient index")
        if n > self.precision:
            raise PrecisionExceeded(
                "coefficient %d requested, only %d orders known" % (n, self.precision))
        return self.coeffs[n]

    def truncate(self, precision: int) -> "Series":
        if precision > self.precision:
            raise PrecisionExceeded(
                "cannot extend precision %d to %d" % (self.precision, precision))
        if precision == self.precision:
            return self
        return Series(self.coeffs[: precision + 1])

    def _check(self, other: "Series"):
        if self.lam != other.lam:
            raise ModeMismatch("series live in different modes")

    def __add__(self, other):
        if isinstance(other, Series):
            self._check(other)
            return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        s = as_elem(other, self.lam)
        return Series((self.coeffs[0] + s,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Series(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Series):
            self._check(other)
            return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))
        s = as_elem(other, self.lam)
        return Series((self.coeffs[0] - s,) + self.coeffs[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        s = as_elem(other, self.lam)
        return Series(tuple(c * s for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        s = as_elem(other, self.lam)
        return Series(tuple(c / s for c in self.coeffs))

    def mul(self, other: "Series") -> "Series":
        """Cauchy product to the shared precision."""
        return self._binary(product, other)

    def div(self, other: "Series") -> "Series":
        """Quotient; the divisor's valuation is subtracted from the precision."""
        return self._binary(quotient, other)

    def _binary(self, op, other: "Series") -> "Series":
        # op computes on the coefficients as values of the series' domain
        self._check(other)
        dom = domain(self.lam)
        a, b = (tuple(map(dom.unwrap, s.coeffs)) for s in (self, other))
        return Series(map(dom.wrap, op(a, b, dom)))

    def pow(self, k: int) -> "Series":
        """Repeated product; the zeroth power is the unit at this precision."""
        if k < 0:
            raise ValueError("negative series power")
        out = Series.one(self.precision, self.lam)
        for _ in range(k):
            out = out.mul(self)
        return out

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (which must have zero constant term) for t."""
        self._check(inner)
        if not inner.coeffs[0].is_zero:
            raise NonzeroConstantTerm("inner series has a nonzero constant term")
        p = min(self.precision, inner.precision)
        inner = inner.truncate(p)
        # Horner over the outer coefficients; orders above p cannot reach t^<=p
        acc = Series.constant(self.coeffs[p], p, self.lam)
        for idx in range(p - 1, -1, -1):
            acc = acc.mul(inner) + self.coeffs[idx]
        return acc

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.lam == other.lam and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:4])
        if self.precision >= 4:
            shown += ", ..."
        return "Series([%s], precision=%d)" % (shown, self.precision)


def valuation(coeffs):
    """Index of the first nonzero coefficient, or None if all vanish."""
    for i, c in enumerate(coeffs):
        if c:
            return i
    return None


def product(a, b, dom) -> tuple:
    """Cauchy product of two sequences of ``dom`` values, each coefficient
    one ``dom.sum_products``."""
    return tuple(dom.sum_products((1, a[i], b[n - i]) for i in range(n + 1))
                 for n in range(min(len(a), len(b))))


def quotient(f, g, dom) -> tuple:
    """Quotient of two sequences of ``dom`` values, as ``Series.div`` states
    it, each coefficient one ``dom.sum_products`` times the reciprocal of
    the divisor's first nonzero coefficient."""
    v = valuation(g)
    if v is None:
        raise ZeroDivisorSeries("division by a series with no known nonzero coefficient")
    vf = valuation(f)
    if vf is not None and vf < v:
        raise ValuationTooHigh(
            "divisor valuation %d exceeds dividend valuation %d" % (v, vf))
    p = min(len(f), len(g)) - 1 - v
    if p < 0:
        raise PrecisionExceeded("no quotient coefficients are determined")
    f = f[v: v + p + 1]
    g = g[v: v + p + 1]
    inv0 = dom.inverse(g[0])
    out = []
    for n in range(p + 1):
        terms = [(1, f[n])] + [(-1, out[i], g[n - i]) for i in range(n)]
        out.append(dom.sum_products(terms) * inv0)
    return tuple(out)
