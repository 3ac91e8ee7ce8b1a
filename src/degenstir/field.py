"""Exact scalars: rationals, polynomials in the deformation parameter,
and the field of rational functions they generate.

Two layers over the stdlib ``fractions.Fraction`` rationals, all immutable
and exact:

* ``LambdaPoly``: dense univariate polynomials in the deformation parameter
  over the rationals, each stored as one rational content times a primitive
  integer tuple (lowest degree first, gcd 1, positive leading coefficient).
  The form is canonical, so equality and hashing are structural.  By Gauss's
  lemma a product of primitive polynomials is primitive, so a product is one
  integer convolution (``int_mul``) and one rational multiply; a sum takes
  one gcd pass.
  ``coeffs``, the rational coefficients, is a view derived on each read;
  the text form is rendered from the integer form.
* ``FieldElem``: a quotient of two ``LambdaPoly`` values kept in canonical
  form (fully reduced, monic denominator), so equality is plain structural
  comparison.  A sum or product of two polynomials is one; any other sum or
  product is canonicalised by ``from_polys``, one gcd.  Alternatively an
  element can be *instantiated*: the parameter is pinned to a specific
  rational, the element collapses to a single rational, and arithmetic gets
  much cheaper.  The two modes never mix; combining them raises
  :class:`ModeMismatch`.

``FieldElem`` is the public wrapper.  The kernels compute on the values of a
mode's ``domain``: plain Fractions for ``Pinned(l0)``, the symbolic elements
for ``SYMBOLIC``; both take the same operators.  A public entry point unwraps
its element arguments once, with the mode check, and wraps its result once.
A kernel whose values are integer polynomials may compute on their int
coefficients instead, with ``int_add``, ``int_scale``, ``int_mul`` and
``int_add_mul`` (a sum plus a product in one pass), the one arithmetic on int
coefficient tuples, and turn each result into its element with ``int_poly``,
which splits content and primitive part on ints.
Pinned at l = p/q, such a value scaled by a power of q is an integer, the
one-coefficient tuple of the same arithmetic: the Stirling triangle fills
both modes this way.

Every sum the kernels form is a sum of products, and each domain has one
kernel for it, ``sum_products``: the sum of c v1 ... vk over tuples
(c, v1, ..., vk), c an int or Fraction.  It reduces once per sum, not once
per term.  Pinned, it multiplies numerators and denominators on ints, keeps
the sum over the lcm of the term denominators and builds one Fraction;
symbolic, it convolves the primitive parts of polynomial values and adds
them into one int coefficient list over one int denominator, split into
content and primitive part at the end, and adds a term with a genuine
quotient among its factors as elements.

A domain keeps the tables the kernels grow for its parameter in its
``memo`` by one rule, ``table``, the one place that makes and drops them:
past ``TABLES_KEPT`` the table least recently made, grown or read while
another is being made or grown, whatever its kind, is dropped.

The parameter prints as ``l`` in the canonical text form, for example
``(-1/2)*l^1 + 1/2``.  One term loop, ``int_poly_str``, writes it from
the integer form, for a polynomial and, with no element built, for an
integer polynomial given by its ints; an ``int_poly_writer`` writes the
same text of a dense integer polynomial (no zero coefficient) by one ``%``
on the template of its degree, which it keeps, and hands any other to
``int_poly_str``; ``ratio_str`` writes an int quotient, reduced once.
"""

from __future__ import annotations

import math
import threading
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


def _ratio(num: int, den: int) -> str:
    # a reduced quotient, den > 0, as ``p`` or ``p/q``
    return "%d" % num if den == 1 else "%d/%d" % (num, den)


def rational_str(q: Fraction) -> str:
    """Canonical text form: ``p`` for integers, else ``p/q``."""
    return _ratio(q.numerator, q.denominator)


def ratio_str(num: int, den: int) -> str:
    """``rational_str(Fraction(num, den))`` for den > 0, reduced by one gcd
    with no Fraction built."""
    g = math.gcd(num, den)
    return _ratio(num // g, den // g)


def _primitive(ints):
    """Split an int list into (g, prim): trailing zeros dropped, prim with gcd
    1 and a positive leading coefficient, g * prim == ints; (0, ()) for 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return 0, ()
    g = math.gcd(*ints)
    if g == 1 and ints[-1] > 0:
        return 1, tuple(ints)
    if ints[-1] < 0:
        g = -g
    return g, tuple(c // g for c in ints)


def int_add(p: tuple, q: tuple) -> tuple:
    """The sum of two int coefficient tuples (lowest degree first, ``()`` for
    0), trailing zeros dropped."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def int_scale(p: tuple, s: int) -> tuple:
    """A coefficient tuple times an int."""
    return tuple(s * c for c in p) if s else ()


def int_mul(p: tuple, q: tuple) -> tuple:
    """The product of two coefficient tuples: one shift-and-scale pass over
    the longer per nonzero coefficient of the shorter, the two passes of a
    linear factor fused into one.  Neither has trailing zeros, so neither
    has the product."""
    if not p or not q:
        return ()
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 2:
        s, t = q
        return tuple([s * c + t * d for c, d in zip(p + (0,), (0,) + p)])
    out = [0] * (len(p) + len(q) - 1)
    for j, s in enumerate(q):
        if s:
            for i, c in enumerate(p, j):
                out[i] += s * c
    return tuple(out)


def int_add_mul(acc: tuple, p: tuple, q: tuple) -> tuple:
    """acc + p q in one pass: each nonzero coefficient of p (best the shorter
    factor) adds its shift-and-scale of q into one copy of acc, so no tuple
    is built for the product; trailing zeros dropped."""
    if not p or not q:
        return acc
    out = list(acc)
    out += [0] * (len(p) + len(q) - 1 - len(out))
    for j, s in enumerate(p):
        if s:
            for i, c in enumerate(q, j):
                out[i] += s * c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


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
        return _poly(content, int_mul(a, b))

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
    """The canonical text of a polynomial: see ``int_poly_str``."""
    return int_poly_str(p.prim, p.content.numerator, p.content.denominator)


def int_poly_str(ints, num: int = 1, den: int = 1) -> str:
    """The canonical text of num/den (in lowest terms, den > 0) times the
    integer polynomial ``ints``, lowest degree first: terms in descending
    degree, ``(c)*l^k`` shape, a bare rational constant, ``0`` for no terms.
    So ``int_poly_str(cell)`` is ``str(int_poly(cell))`` with no element
    built.  Each coefficient is reduced on ints: gcd(num * c, den) ==
    gcd(c, den)."""
    parts = []
    for k in range(len(ints) - 1, -1, -1):
        c = ints[k]
        if c:
            if den != 1:
                g = math.gcd(c, den)
                text = _ratio(num * (c // g), den // g)
            else:  # nothing to reduce; skipping the gcd route saves ~9% of a symbolic table
                text = "%d" % (c if num == 1 else num * c)
            parts.append("(%s)*l^%d" % (text, k) if k else text)
    return " + ".join(parts) or "0"


def int_poly_writer():
    """A writer of ``int_poly_str(ints)`` for int tuples, which keeps one
    template per degree it has written: a dense tuple (no zero coefficient)
    of degree d is one ``%`` on ``(%d)*l^d + ... + (%d)*l^1 + %d``, made
    from the template of degree d - 1 on first need; any other goes through
    ``int_poly_str``.  A table keeps its own writer and drops it with its
    rows, so no template outlives the table."""
    templates = ["%d"]

    def write(ints):
        if not ints or 0 in ints:
            return int_poly_str(ints)
        d = len(ints) - 1
        while len(templates) <= d:
            templates.append("(%%d)*l^%d + %s" % (len(templates), templates[-1]))
        return templates[d] % ints[::-1]

    return write


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

    def _scale(self, q):
        # a rational factor scales the content of num (or the pinned value):
        # the product of a canonical element and a nonzero rational is canonical
        if self.lam is not None:
            return FieldElem(lam=self.lam, value=self.value * q)
        if not q or not self.num.prim:
            return FieldElem(lam=None, num=P_ZERO, den=P_ONE)
        return FieldElem(lam=None, num=_poly(self.num.content * q, self.num.prim), den=self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._coerce(other)
        if self.lam is not None:
            return FieldElem(lam=self.lam, value=self.value * other.value)
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        if an.is_zero or bn.is_zero:
            return FieldElem(lam=None, num=P_ZERO, den=P_ONE)
        if ad.is_one and bd.is_one:
            return FieldElem(lam=None, num=an * bn, den=P_ONE)
        return FieldElem.from_polys(an * bn, ad * bd)

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
        if isinstance(other, (int, Fraction)):
            if not other:
                raise DivisionByZero("division by zero field element")
            return self._scale(Fraction(other.denominator, other.numerator))
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


def int_poly(coeffs) -> FieldElem:
    """The symbolic element of an integer polynomial, given by its int
    coefficients, lowest degree first: its canonical form split on ints."""
    g, prim = _primitive(list(coeffs))
    return FieldElem(lam=None, num=_poly(Fraction(g), prim) if g else P_ZERO, den=P_ONE)


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
    """The value domain of a pinned mode: Fractions, the parameter at ``mode``.
    ``memo`` holds the tables kept for that parameter (see ``table``), grown
    under ``lock``."""

    __slots__ = ("mode", "lam", "memo", "lock")
    zero, one = Fraction(0), Fraction(1)
    const = staticmethod(as_rational)

    def __init__(self, lam0):
        self.mode = self.lam = as_rational(lam0)
        self.memo = {}
        self.lock = threading.RLock()

    def unwrap(self, value) -> Fraction:
        # a rational is its own value; an element is checked for its mode
        if isinstance(value, FieldElem):
            return as_elem(value, self.mode).value
        return as_rational(value)

    def wrap(self, value: Fraction) -> FieldElem:
        return FieldElem(lam=self.mode, value=value)

    @staticmethod
    def inverse(value: Fraction) -> Fraction:
        if not value:
            raise DivisionByZero("inverse of zero")
        return 1 / value

    @staticmethod
    def sum_products(terms) -> Fraction:
        """The sum of c v1 ... vk over the tuples (c, v1, ..., vk), c an int
        or Fraction: each term's numerator and denominator multiplied on
        ints, the sum kept over the lcm of the term denominators, and one
        Fraction built, reduced once."""
        num, den = 0, 1
        for term in terms:
            n = d = 1
            for v in term:
                n *= v.numerator
                d *= v.denominator
            if n:
                g = math.gcd(den, d)
                num, den = num * (d // g) + n * (den // g), den // g * d
        return Fraction(num, den)


class Symbolic:
    """The value domain of the symbolic mode: the symbolic ``FieldElem`` s."""

    mode = None
    zero, one, lam = const(0), const(1), lam_elem()
    const = staticmethod(const)
    memo, lock = {}, threading.RLock()

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

    @staticmethod
    def sum_products(terms) -> FieldElem:
        """The sum of c v1 ... vk over the tuples (c, v1, ..., vk), c an int
        or Fraction.  A term of polynomials is its contents multiplied on
        ints and its primitive parts convolved, added into one int
        coefficient list over the lcm of the term denominators, which is
        split into content and primitive part once, at the end.  A term with
        a genuine quotient among its factors is multiplied and added as
        elements."""
        acc, den, rest = (), 1, None
        for term in terms:
            c, factors = term[0], term[1:]
            num, d, prims = c.numerator, c.denominator, []
            for v in factors:
                if v.den.prim != (1,):
                    break
                content = v.num.content
                num *= content.numerator
                d *= content.denominator
                prims.append(v.num.prim)
            else:
                if num:
                    g = math.gcd(den, d)
                    if g != d:
                        acc = int_scale(acc, d // g)
                    head = (num * (den // g),)
                    den = den // g * d
                    for p in prims[:-1]:
                        head = int_mul(head, p)
                    acc = int_add_mul(acc, head, prims[-1]) if prims else int_add(acc, head)
                continue
            for v in factors:
                c = c * v
            rest = c if rest is None else rest + c
        g, prim = _primitive(list(acc))
        total = FieldElem(lam=None, num=_poly(Fraction(g, den), prim) if g else P_ZERO, den=P_ONE)
        return total if rest is None else total + rest


SYMBOLIC = Symbolic()


PINNED_KEPT = 8
_pinned = lru_cache(maxsize=PINNED_KEPT)(Pinned)  # keyed by the Fraction alone


def domain(lam=None):
    """The value domain of a mode; its ``memo`` holds all the kernels keep for
    it (see ``table``).  The symbolic domain is one object; the last
    ``PINNED_KEPT`` pinned ones used are kept, so a sweep over the parameter
    holds the tables of few domains."""
    return SYMBOLIC if lam is None else _pinned(as_rational(lam))


TABLES_KEPT = 64  # the tables a domain keeps (see ``table``)


def table(dom, key, make, *args):
    """The table under ``key`` in the domain's ``memo``, ``make(*args)`` if
    the domain holds none, moved to the back of the memo.  The caller holds
    the domain's lock and calls it to make or grow the table, or to read it
    while another is being made or grown, so that past ``TABLES_KEPT`` the
    table dropped is the one least recently made, grown or read while
    another was being made or grown.  A warm read is ``memo.get(key)``
    without the lock, and writes nothing.  A dropped table is made afresh
    on its next read, equal to before."""
    memo = dom.memo
    found = memo.pop(key, None)
    memo[key] = found = make(*args) if found is None else found
    if len(memo) > TABLES_KEPT:
        del memo[next(iter(memo))]
    return found
