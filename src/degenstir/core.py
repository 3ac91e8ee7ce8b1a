"""Primitive sequences and generating functions of the deformed calculus.

All are built from one product, the descending factorial with step l (the
deformation parameter), (x)_{n,l} = x(x-l)...(x-(n-1)l), which one loop,
``descending``, multiplies out on domain values.  The deformed exponential is
e_l^x(t) = sum_n (x)_{n,l} t^n/n!, the classical one at l = 0.  Its
compositional inverse, the deformed logarithm of 1 + t, has t^n coefficient
l^(n-1) (1)_{n,1/l}/n! = (l-1)(l-2)...(l-n+1)/n!, a polynomial in the
parameter, so it stays meaningful at every pinned rational value, zero
included.
"""

from __future__ import annotations

import math

from .field import FieldElem, as_elem, domain
from .series import Series


def descending(x, n: int, step, dom) -> list:
    """The descending products x(x-s)...(x-(k-1)s) of every length k = 0..n,
    where s is ``step``, as ``dom`` values; each is one product on the last."""
    if n < 0:
        raise ValueError("descending products need n >= 0, got n=%d" % n)
    out = [dom.one]
    for _ in range(n):
        out.append(out[-1] * x)
        x = x - step
    return out


def falling_factorial(x, n: int, lam=None) -> FieldElem:
    """Descending product with unit step: x(x-1)...(x-n+1); empty product is 1."""
    return gen_falling(x, n, 1, lam)


def gen_falling(x, n: int, step=None, lam=None) -> FieldElem:
    """Descending product x(x-s)(x-2s)...(x-(n-1)s).

    The step s defaults to the deformation parameter of x's mode; pass an
    explicit element (for example its reciprocal) to shift by something else.
    """
    dom = domain(as_elem(x, lam).lam)
    step = dom.lam if step is None else dom.unwrap(step)
    return dom.wrap(descending(dom.unwrap(x), n, step, dom)[-1])


def one_falling(n: int, lam=None) -> FieldElem:
    """The unit-argument descending product (1)(1-s)...(1-(n-1)s)."""
    return int_falling(1, n, lam)


def int_falling(base: int, n: int, lam=None) -> FieldElem:
    """Descending product for a small integer argument."""
    return gen_falling(base, n, lam=lam)


def degen_exp(x, precision: int, lam=None) -> Series:
    """Deformed exponential of argument x, to the requested precision."""
    dom = domain(as_elem(x, lam).lam)
    prods = descending(dom.unwrap(x), precision, dom.lam, dom)
    return Series(dom.wrap(p / math.factorial(k)) for k, p in enumerate(prods))


def degen_log(precision: int, lam=None) -> Series:
    """Deformed logarithm of 1 + t: the compositional inverse of the
    deformed exponential minus one.  Constant term zero; every coefficient
    is a polynomial in the parameter."""
    dom = domain(lam)
    prods = descending(dom.lam - 1, precision, 1, dom)
    coeffs = [dom.zero] + [p / math.factorial(n) for n, p in enumerate(prods[:-1], 1)]
    return Series(map(dom.wrap, coeffs))
