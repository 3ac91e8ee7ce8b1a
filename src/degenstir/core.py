"""Primitive sequences and generating functions of the deformed calculus.

All are built from one product, the descending factorial with step l (the
deformation parameter), (x)_{n,l} = x(x-l)...(x-(n-1)l), which one loop,
``_descending``, multiplies out.  The deformed exponential is
e_l^x(t) = sum_n (x)_{n,l} t^n/n!, the classical one at l = 0.  Its
compositional inverse, the deformed logarithm of 1 + t, has t^n coefficient
l^(n-1) (1)_{n,1/l}/n! = (l-1)(l-2)...(l-n+1)/n!, a polynomial in the
parameter, so it stays meaningful at every pinned rational value, zero
included.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .field import FieldElem, as_elem, const, lam_elem
from .series import Series


def _descending(x: FieldElem, n: int, step) -> list:
    """The descending products x(x-s)...(x-(k-1)s) of every length k = 0..n,
    where s is ``step``; each is one product on the one before it."""
    out = [const(1, x.lam)]
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
    x = as_elem(x, lam)
    return _descending(x, n, lam_elem(x.lam) if step is None else step)[-1]


def one_falling(n: int, lam=None) -> FieldElem:
    """The unit-argument descending product (1)(1-s)...(1-(n-1)s)."""
    return int_falling(1, n, lam)


@lru_cache(maxsize=None)
def int_falling(base: int, n: int, lam=None) -> FieldElem:
    """Descending product for a small integer argument, memoized."""
    return gen_falling(base, n, lam=lam)


def degen_exp(x, precision: int, lam=None) -> Series:
    """Deformed exponential of argument x, to the requested precision."""
    return _degen_exp_cached(as_elem(x, lam), precision)


@lru_cache(maxsize=None)
def _degen_exp_cached(x: FieldElem, precision: int) -> Series:
    prods = _descending(x, precision, lam_elem(x.lam))
    return Series(p / math.factorial(k) for k, p in enumerate(prods))


def degen_log(precision: int, lam=None) -> Series:
    """Deformed logarithm of 1 + t: the compositional inverse of the
    deformed exponential minus one.  Constant term zero; every coefficient
    is a polynomial in the parameter."""
    prods = _descending(lam_elem(lam) - 1, precision - 1, 1)
    coeffs = [p / math.factorial(n) for n, p in enumerate(prods, 1)]
    return Series([const(0, lam)] + coeffs[:precision])
