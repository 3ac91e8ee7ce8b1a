"""Truncated formal power series with strict precision bookkeeping.

A series knows its coefficients for t^0 .. t^precision and nothing beyond;
no operation ever pretends an unknown coefficient is zero.  Every operation
states how much precision survives:

* sum/product: the smaller operand precision,
* quotient: the smaller precision minus the divisor's valuation,
* derivative: one order less,
* composition: the smaller operand precision (sound because the inner
  series must have zero constant term).

Coefficients are :class:`FieldElem` values, all in one mode per series.
``Series.mul`` and ``Series.div`` call ``product`` and ``quotient``, which
work on coefficient sequences; the kernels call them on domain values.
"""

from __future__ import annotations

from .errors import (
    ModeMismatch,
    NonzeroConstantTerm,
    PrecisionExceeded,
    ValuationTooHigh,
    ZeroDivisorSeries,
    ZeroPrecision,
)
from .field import FieldElem, as_elem, const


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
    def zero(cls, precision, lam=None):
        return cls.constant(0, precision, lam)

    @classmethod
    def one(cls, precision, lam=None):
        return cls.constant(1, precision, lam)

    @classmethod
    def t_power(cls, k, precision, lam=None):
        if k > precision:
            raise PrecisionExceeded("t^%d is not representable at precision %d" % (k, precision))
        z = const(0, lam)
        o = const(1, lam)
        return cls(tuple(o if i == k else z for i in range(precision + 1)))

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
        if isinstance(other, Series):
            return self.mul(other)
        s = as_elem(other, self.lam)
        return Series(tuple(c * s for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self.div(other)
        s = as_elem(other, self.lam)
        return Series(tuple(c / s for c in self.coeffs))

    def __pow__(self, k):
        return self.pow(k)

    def mul(self, other: "Series") -> "Series":
        """Cauchy product to the shared precision."""
        self._check(other)
        return Series(product(self.coeffs, other.coeffs, const(0, self.lam)))

    def div(self, other: "Series") -> "Series":
        """Quotient; the divisor's valuation is subtracted from the precision."""
        self._check(other)
        return Series(quotient(self.coeffs, other.coeffs, FieldElem.inverse))

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

    def derivative(self) -> "Series":
        if self.precision < 1:
            raise ZeroPrecision("derivative needs at least precision 1")
        return Series(tuple((n + 1) * c for n, c in enumerate(self.coeffs[1:])))

    def valuation(self):
        """Index of the first known nonzero coefficient, or None if all vanish."""
        return valuation(self.coeffs)

    def prefix_equal(self, other: "Series", upto=None) -> bool:
        """Agreement on every shared known order (or the first ``upto`` + 1)."""
        self._check(other)
        p = min(self.precision, other.precision)
        if upto is not None:
            p = min(p, upto)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(p + 1))

    def to_strings(self):
        """Ordered list of canonical coefficient strings."""
        return [str(c) for c in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.lam == other.lam and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(self.to_strings()[:4])
        if self.precision >= 4:
            shown += ", ..."
        return "Series([%s], precision=%d)" % (shown, self.precision)


def valuation(coeffs):
    """Index of the first nonzero coefficient, or None if all vanish."""
    for i, c in enumerate(coeffs):
        if c:
            return i
    return None


def product(a, b, zero) -> tuple:
    """Cauchy product of two coefficient sequences; ``zero`` is their zero."""
    out = []
    for n in range(min(len(a), len(b))):
        acc = zero
        for i in range(n + 1):
            ai = a[i]
            if ai:
                bj = b[n - i]
                if bj:
                    acc = acc + ai * bj
        out.append(acc)
    return tuple(out)


def quotient(f, g, inverse) -> tuple:
    """Quotient of two coefficient sequences, as ``Series.div`` states it;
    ``inverse`` is the reciprocal of their values."""
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
    inv0 = inverse(g[0])
    out = []
    for n in range(p + 1):
        acc = f[n]
        for i in range(n):
            hi = out[i]
            if hi:
                gj = g[n - i]
                if gj:
                    acc = acc - hi * gj
        out.append(acc * inv0)
    return tuple(out)
