"""Primitive sequences and generating functions of the deformed calculus.

The deformed exponential is the series whose t^k coefficient is the
descending product x(x-s)(x-2s)...(x-(k-1)s) over k!, where the step s is
the deformation parameter; at s = 0 the products collapse to x^k and the
classical exponential returns.  Its compositional inverse, the deformed
logarithm of 1 + t, has t^n coefficient (s-1)(s-2)...(s-n+1)/n!, a
polynomial in the parameter, so it stays meaningful for every pinned
rational value including zero.
"""

from __future__ import annotations

from functools import lru_cache

from .field import FieldElem, as_elem, const, lam_elem
from .series import Series


def falling_factorial(x, n: int, lam=None) -> FieldElem:
    """Descending product with unit step: x(x-1)...(x-n+1); empty product is 1."""
    return gen_falling(x, n, 1, lam)


def gen_falling(x, n: int, step=None, lam=None) -> FieldElem:
    """Descending product x(x-s)(x-2s)...(x-(n-1)s).

    The step s defaults to the deformation parameter of x's mode; pass an
    explicit element (for example its reciprocal) to shift by something else.
    """
    x = as_elem(x, lam)
    s = lam_elem(x.lam) if step is None else step
    out = const(1, x.lam)
    cur = x
    for _ in range(n):
        out = out * cur
        cur = cur - s
    return out


def one_falling(n: int, lam=None) -> FieldElem:
    """The unit-argument descending product (1)(1-s)...(1-(n-1)s)."""
    return int_falling(1, n, lam)


@lru_cache(maxsize=None)
def int_falling(base: int, n: int, lam=None) -> FieldElem:
    """Descending product for a small integer argument, memoized."""
    if n == 0:
        return const(1, lam)
    return int_falling(base, n - 1, lam) * (const(base, lam) - (n - 1) * lam_elem(lam))


def degen_exp(x, precision: int, lam=None) -> Series:
    """Deformed exponential of argument x, to the requested precision."""
    return _degen_exp_cached(as_elem(x, lam), precision)


@lru_cache(maxsize=None)
def _degen_exp_cached(x: FieldElem, precision: int) -> Series:
    s = lam_elem(x.lam)
    coeffs = [const(1, x.lam)]
    acc = coeffs[0]
    cur = x
    for k in range(1, precision + 1):
        acc = acc * cur / k
        cur = cur - s
        coeffs.append(acc)
    return Series(coeffs)


@lru_cache(maxsize=None)
def degen_log(precision: int, lam=None) -> Series:
    """Deformed logarithm of 1 + t: the compositional inverse of the
    deformed exponential minus one.  Constant term zero; every coefficient
    is a polynomial in the parameter."""
    coeffs = [const(0, lam)]
    if precision >= 1:
        s = lam_elem(lam)
        acc = const(1, lam)
        coeffs.append(acc)
        for n in range(2, precision + 1):
            acc = acc * (s - (n - 1)) / n
            coeffs.append(acc)
    return Series(coeffs)
