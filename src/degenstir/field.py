"""Exact scalars: rationals, polynomials in the deformation parameter,
and the field of rational functions they generate.

Two layers over the stdlib ``fractions.Fraction`` rationals, all immutable
and exact:

* ``LambdaPoly``: dense univariate polynomials in the deformation parameter
  over the rationals, each stored as one rational content times a primitive
  integer tuple (lowest degree first, gcd 1, positive leading coefficient).
  The form is canonical, so equality and hashing are structural.  By Gauss's
  lemma a product of primitive polynomials is primitive, so a product is one
  integer convolution and one rational multiply; a sum takes one gcd pass.
  ``coeffs``, the rational coefficients, is a view derived on each read.
* ``FieldElem``: a quotient of two ``LambdaPoly`` values kept in canonical
  form (fully reduced, monic denominator), so equality is plain structural
  comparison.  Alternatively an element can be *instantiated*: the parameter
  is pinned to a specific rational, the element collapses to a single
  rational, and arithmetic gets much cheaper.  The two modes never mix;
  combining them raises :class:`ModeMismatch`.

``FieldElem`` is the public wrapper.  The kernels compute on the values of a
mode's ``domain``: plain Fractions for ``Pinned(l0)``, the symbolic elements
for ``SYMBOLIC``; both take the same operators.  A public entry point unwraps
its element arguments once, with the mode check, and wraps its result once.

The parameter prints as ``l`` in the canonical text form, for example
``(-1/2)*l^1 + 1/2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import BothZero, DivisionByZero, ModeMismatch, PoleAtLambda


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep everything exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an int or Fraction, got %r" % (value,))


def rational_str(q: Fraction) -> str:
    """Canonical text form: ``p`` for integers, else ``p/q``."""
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _primitive(ints):
    """Split an int list into (g, prim): trailing zeros dropped, prim with gcd
    1 and a positive leading coefficient, g * prim == ints; (0, ()) for 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return 0, ()
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return g, tuple(c // g for c in ints)


class LambdaPoly:
    """Polynomial in the deformation parameter; treat instances as immutable.

    Stored as ``content * prim``: ``prim`` is a tuple of ints, lowest degree
    first, with gcd 1 and a positive leading coefficient, and ``content`` is a
    nonzero rational.  The zero polynomial is content 0 with ``prim == ()``.
    """

    __slots__ = ("content", "prim")

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        g, self.prim = _primitive([c.numerator * (den // c.denominator) for c in cs])
        self.content = Fraction(g, den)

    @classmethod
    def const(cls, value):
        return cls((as_rational(value),))

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients, lowest degree first, no trailing zeros."""
        return tuple(self.content * c for c in self.prim)

    @property
    def degree(self) -> int:
        # zero polynomial has degree -1 by convention
        return len(self.prim) - 1

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def is_one(self) -> bool:
        return self.prim == (1,) and self.content == 1

    @property
    def leading(self) -> Fraction:
        if not self.prim:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def __add__(self, other):
        a, b = self.content, other.content
        den = math.lcm(a.denominator, b.denominator)
        ma = a.numerator * (den // a.denominator)
        mb = b.numerator * (den // b.denominator)
        p, q = self.prim, other.prim
        if len(p) < len(q):
            p, q, ma, mb = q, p, mb, ma
        out = [ma * c for c in p]
        for i, c in enumerate(q):
            out[i] += mb * c
        g, prim = _primitive(out)
        return _poly(Fraction(g, den), prim) if g else P_ZERO

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _poly(-self.content, self.prim)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            return _poly(self.content * q, self.prim) if q else P_ZERO
        a, b = self.prim, other.prim
        if not a or not b:
            return P_ZERO
        # Gauss's lemma: a product of primitive polynomials is primitive
        content = self.content * other.content
        if len(a) < len(b):
            a, b = b, a
        if b == (1,):  # a constant factor: only the content changes
            return _poly(content, a)
        out = [0] * (len(a) + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a, j):
                    out[i] += ca * cb
        return _poly(content, tuple(out))

    __rmul__ = __mul__

    def evaluate(self, point: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.prim):
            acc = acc * point + c
        return self.content * acc

    def monic(self):
        if self.is_zero or self.leading == 1:
            return self
        return self * (1 / self.leading)

    def exact_div(self, other):
        """The quotient of a division known to be exact: long division of the
        primitive parts, whose quotient is an integer polynomial (Gauss's
        lemma).  A step that does not divide leaves its remainder in place,
        so any inexact division ends with a nonzero remainder."""
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem, d = list(self.prim), other.prim
        dq = len(rem) - len(d)
        quot = [0] * (dq + 1)
        lead = d[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(d) - 1] // lead
            if c:
                quot[i] = c
                for j, dc in enumerate(d):
                    rem[i + j] -= c * dc
        if any(rem):
            raise ValueError("polynomial division left a remainder")
        return _poly(self.content / other.content, tuple(quot))

    def __eq__(self, other):
        return (isinstance(other, LambdaPoly) and self.prim == other.prim
                and self.content == other.content)

    def __hash__(self):
        return hash((self.content, self.prim))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return "LambdaPoly(%s)" % (poly_str(self),)


def _poly(content: Fraction, prim: tuple) -> LambdaPoly:
    # internal: a polynomial already in content * primitive form
    p = LambdaPoly.__new__(LambdaPoly)
    p.content, p.prim = content, prim
    return p


P_ZERO = LambdaPoly()
P_ONE = LambdaPoly.const(1)
P_LAM = LambdaPoly((0, 1))


def poly_str(p: LambdaPoly) -> str:
    """Terms in descending degree, ``(c)*l^k`` shape, bare rational constant."""
    if p.is_zero:
        return "0"
    parts = []
    coeffs = p.coeffs
    for k in range(p.degree, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            parts.append(rational_str(c))
        else:
            parts.append("(%s)*l^%d" % (rational_str(c), k))
    return " + ".join(parts)


def _int_prem(f, g):
    """Pseudo-remainder of f by g over the integers (content is irrelevant)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg:
        lf = f[-1]
        shift = len(f) - 1 - dg
        f = [lg * c for c in f]
        for i, c in enumerate(g):
            f[shift + i] -= lf * c
        f.pop()
        while f and f[-1] == 0:
            f.pop()
        if not f:
            break
    return f


def poly_gcd(p: LambdaPoly, q: LambdaPoly) -> LambdaPoly:
    """Monic greatest common divisor over the rationals.

    Uses primitive pseudo-remainder sequences on the primitive parts, which
    keeps coefficient growth tame at the degrees this package meets.
    """
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if p.degree == 0 or q.degree == 0:
        return P_ONE
    a, b = p.prim, q.prim
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_int_prem(a, b))[1]
    return _poly(Fraction(1, a[-1]), a)


class FieldElem:
    """Element of the rational-function field, or a pinned-parameter rational.

    ``lam is None`` marks the symbolic mode (``num``/``den`` are canonical
    polynomials); otherwise ``lam`` is the pinned rational value of the
    parameter and ``value`` holds the collapsed rational.
    """

    __slots__ = ("lam", "num", "den", "value")

    def __init__(self, *, lam, num=None, den=None, value=None):
        # internal: use const / from_polys, which canonicalize
        self.lam = lam
        self.num = num
        self.den = den
        self.value = value

    @classmethod
    def from_polys(cls, num: LambdaPoly, den: LambdaPoly = P_ONE):
        """Canonical form of num/den: reduced, monic denominator."""
        if den.is_zero:
            raise DivisionByZero("zero denominator polynomial")
        if num.is_zero:
            return cls(lam=None, num=P_ZERO, den=P_ONE)
        if not den.is_one:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lc = den.leading
            if lc != 1:
                inv = 1 / lc
                num, den = num * inv, den * inv
        return cls(lam=None, num=num, den=den)

    @property
    def is_zero(self) -> bool:
        if self.lam is None:
            return self.num.is_zero
        return not self.value

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.lam != self.lam:
                raise ModeMismatch(
                    "cannot combine mode %r with mode %r" % (self.lam, other.lam))
            return other
        return const(other, self.lam)

    def __add__(self, other):
        other = self._coerce(other)
        if self.lam is not None:
            return FieldElem(lam=self.lam, value=self.value + other.value)
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        if ad.is_one and bd.is_one:
            return FieldElem(lam=None, num=an + bn, den=P_ONE)
        if ad == bd:
            return FieldElem.from_polys(an + bn, ad)
        if ad.is_one or bd.is_one:
            # a polynomial plus a reduced quotient is already reduced
            return FieldElem(lam=None, num=an * bd + bn * ad, den=ad * bd)
        return FieldElem.from_polys(an * bd + bn * ad, ad * bd)

    __radd__ = __add__

    def __neg__(self):
        if self.lam is not None:
            return FieldElem(lam=self.lam, value=-self.value)
        return FieldElem(lam=None, num=-self.num, den=self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if self.lam is not None:
            return FieldElem(lam=self.lam, value=self.value * other.value)
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        if an.is_zero or bn.is_zero:
            return FieldElem(lam=None, num=P_ZERO, den=P_ONE)
        if ad.is_one and bd.is_one:
            return FieldElem(lam=None, num=an * bn, den=P_ONE)
        # cross-reduce so the product is born canonical
        if not bd.is_one:
            g1 = poly_gcd(an, bd)
            if g1.degree > 0:
                an = an.exact_div(g1)
                bd = bd.exact_div(g1)
        if not ad.is_one:
            g2 = poly_gcd(bn, ad)
            if g2.degree > 0:
                bn = bn.exact_div(g2)
                ad = ad.exact_div(g2)
        return FieldElem(lam=None, num=an * bn, den=ad * bd)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        if self.lam is not None:
            return FieldElem(lam=self.lam, value=1 / self.value)
        lc = self.num.leading
        if lc == 1:
            return FieldElem(lam=None, num=self.den, den=self.num)
        inv = 1 / lc
        return FieldElem(lam=None, num=self.den * inv, den=self.num * inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise DivisionByZero("division by zero field element")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = const(1, self.lam)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def instantiate(self, lam0) -> Fraction:
        """Evaluation homomorphism at a rational parameter value."""
        lam0 = as_rational(lam0)
        if self.lam is not None:
            if lam0 != self.lam:
                raise ModeMismatch("element is pinned to a different parameter value")
            return self.value
        dv = self.den.evaluate(lam0)
        if not dv:
            raise PoleAtLambda("denominator vanishes at %s" % rational_str(lam0))
        return self.num.evaluate(lam0) / dv

    def as_fraction(self) -> Fraction:
        """Unwrap a constant; raises for genuinely symbolic values."""
        if self.lam is not None:
            return self.value
        if self.den.is_one and self.num.degree <= 0:
            return self.num.content
        raise ValueError("element is not a rational constant: %s" % (self,))

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            if self.lam != other.lam:
                return False
            if self.lam is not None:
                return self.value == other.value
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            if self.lam is not None:
                return self.value == q
            return self.den.is_one and self.num.degree <= 0 and self.num.content == q
        return NotImplemented

    def __hash__(self):
        if self.lam is not None:
            return hash(self.value)
        if self.den.is_one and self.num.degree <= 0:
            return hash(self.num.content)
        return hash((self.num, self.den))

    def __str__(self):
        if self.lam is not None:
            return rational_str(self.value)
        if self.den.is_one:
            return poly_str(self.num)
        return "(%s) / (%s)" % (poly_str(self.num), poly_str(self.den))

    def __repr__(self):
        return "FieldElem(%s)" % (self,)


def const(value, lam=None) -> FieldElem:
    """A rational in the given mode: a constant polynomial, or pinned."""
    value = as_rational(value)
    if lam is None:
        return FieldElem(lam=None, num=_poly(value, (1,)) if value else P_ZERO, den=P_ONE)
    return FieldElem(lam=as_rational(lam), value=value)


def lam_elem(lam=None) -> FieldElem:
    """The deformation parameter itself, in the requested mode."""
    if lam is None:
        return FieldElem(lam=None, num=P_LAM, den=P_ONE)
    return const(lam, lam)


def as_elem(value, lam=None) -> FieldElem:
    """Coerce ints and Fractions into the given mode.  Elements pass through
    unless a pinned mode is given and they live in another mode."""
    if isinstance(value, FieldElem):
        if lam is not None and value.lam != lam:
            raise ModeMismatch("cannot combine mode %r with mode %r" % (value.lam, lam))
        return value
    return const(value, lam)



class Pinned:
    """The value domain of a pinned mode: Fractions, the parameter at ``mode``."""

    __slots__ = ("mode", "lam")
    zero, one = Fraction(0), Fraction(1)
    const = staticmethod(as_rational)

    def __init__(self, lam0):
        self.mode = self.lam = as_rational(lam0)

    def unwrap(self, value) -> Fraction:
        return as_elem(value, self.mode).value

    def wrap(self, value: Fraction) -> FieldElem:
        return FieldElem(lam=self.mode, value=value)

    @staticmethod
    def inverse(value: Fraction) -> Fraction:
        if not value:
            raise DivisionByZero("inverse of zero")
        return 1 / value


class Symbolic:
    """The value domain of the symbolic mode: the symbolic ``FieldElem`` s."""

    mode = None
    zero, one, lam = const(0), const(1), lam_elem()
    const = staticmethod(const)

    @staticmethod
    def unwrap(value) -> FieldElem:
        value = as_elem(value)
        if value.lam is not None:
            raise ModeMismatch("cannot combine mode %r with mode None" % (value.lam,))
        return value

    @staticmethod
    def wrap(value: FieldElem) -> FieldElem:
        return value

    inverse = staticmethod(FieldElem.inverse)


SYMBOLIC = Symbolic()


@lru_cache(maxsize=None)
def domain(lam=None):
    """The value domain of a mode; one object per mode, so caches key on it."""
    return SYMBOLIC if lam is None else Pinned(lam)
