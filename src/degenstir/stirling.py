"""Deformed Stirling numbers of both kinds and their truncated variants.

The second-kind numbers are n! times the t^n coefficients of the k-th power
of the deformed exponential minus one, over k!; the first-kind numbers use
the deformed logarithm instead.  The truncated variants remove the first r
coefficients of the base series before powering, which pushes the valuation
of the k-th power up to k*r.  Both kinds share one block-and-power core,
and the plain kinds are its r = 1 case.  A table needs every power
k = 0..n of one block, so the powers are cached as a ladder: power k is
power k-1 times the block, one series product per new power.

For the truncated second kind three independent routes are implemented:

* ``stirling2r_gf``           coefficient extraction from the power series,
* ``stirling2r_composition``  brute-force sum over compositions with parts >= r,
* ``stirling2r_binomial``     an alternating binomial multiple sum.

They must return identical canonical values; the tests and the ``verify``
command lean on that redundancy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinat import compositions
from .core import degen_exp, degen_log, int_falling, one_falling
from .errors import PrecisionExceeded
from .field import FieldElem, const
from .series import Series


def _pad(n: int) -> int:
    # round precision up so cached series are shared across nearby requests
    return n + (-n) % 8


def _block(kind: int, r: int, precision: int, lam) -> Series:
    """The kind's base series (the deformed exponential for the second kind,
    the deformed logarithm of 1 + t for the first) with every coefficient
    below t^r removed.  For r >= 1 this drops the exponential's constant 1;
    the logarithm's constant term is 0 already."""
    base = degen_exp(1, precision, lam) if kind == 2 else degen_log(precision, lam)
    z = const(0, lam)
    return Series(tuple(z if i < r else base.coeffs[i] for i in range(precision + 1)))


def _climb(rungs: list, k: int, first) -> Series:
    """Rung k of a ladder of powers held in ``rungs``, a list that starts at
    the unit series (rung 0) and grows in place.  Rung 1 is ``first()``;
    every higher rung is the rung below it times rung 1.  Missing rungs are
    filled in a loop from the highest rung held, never by one call per rung,
    so a deep power does not exhaust the stack.  A zero rung stands for
    every rung above it, which are zero as well, so the list never grows
    past the first zero however deep the power asked for."""
    if k >= 1 and len(rungs) == 1:
        rungs.append(first())
    while len(rungs) <= k:
        if rungs[-1].valuation() is None:
            return rungs[-1]
        rungs.append(rungs[-1].mul(rungs[1]))
    return rungs[k]


@lru_cache(maxsize=None)
def _block_rungs(kind: int, r: int, precision: int, lam) -> list:
    # the powers of one block computed so far; _climb extends the list
    return [Series.one(precision, lam)]


def _block_pow(kind: int, k: int, r: int, precision: int, lam) -> Series:
    """The k-th power of the block, from its cached ladder of powers."""
    return _climb(_block_rungs(kind, r, precision, lam), k,
                  lambda: _block(kind, r, precision, lam))


def _check_precision(n: int, N: int):
    if n > N:
        raise PrecisionExceeded("index %d exceeds requested precision %d" % (n, N))


def _entry(kind: int, n: int, k: int, r: int, N, lam) -> FieldElem:
    # n! [t^n] block^k / k!
    N = n if N is None else N
    _check_precision(n, N)
    ser = _block_pow(kind, k, r, _pad(N), lam)
    return ser.coeff(n) * Fraction(math.factorial(n), math.factorial(k))


def stirling2_degen(n: int, k: int, N=None, lam=None) -> FieldElem:
    """Second kind: n! [t^n] (e(t) - 1)^k / k!, the r = 1 truncated number."""
    return stirling2r_gf(n, k, 1, N, lam)


def stirling1_degen(n: int, k: int, N=None, lam=None) -> FieldElem:
    """First kind: n! [t^n] (log-series)^k / k!, the r = 1 truncated number."""
    return stirling1r_gf(n, k, 1, N, lam)


def stirling2r_gf(n: int, k: int, r: int, N=None, lam=None) -> FieldElem:
    """Truncated second kind via the defining series (the power route)."""
    return _entry(2, n, k, r, N, lam)


def stirling1r_gf(n: int, k: int, r: int, N=None, lam=None) -> FieldElem:
    """Truncated first kind via the defining series."""
    return _entry(1, n, k, r, N, lam)


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


def family_entry(family: str, n: int, k: int, r: int = 1, N=None, lam=None) -> FieldElem:
    """Entry (n, k) of a Stirling family, k being the power; the plain kinds
    take r = 1 whatever r is given."""
    core, truncated = _family(family)
    return core(n, k, r if truncated else 1, N, lam)


def build_triangle(family: str, n_max: int, k_max=None, r: int = 1, lam=None,
                   N=None):
    """Rows (n, m, value) of a Stirling family, n ascending then m ascending,
    where m is the second index of the quantity itself: k for the plain
    kinds, k*r for the truncated kinds.  Plain kinds emit the classical
    region k <= n; truncated kinds emit every power up to k_max so the
    vanishing cells below the staircase (n < k*r) appear as explicit zeros."""
    _, truncated = _family(family)
    if not truncated:
        r = 1
    k_max = n_max if k_max is None else k_max
    N = n_max if N is None else N
    return [(n, k * r, family_entry(family, n, k, r, N, lam))
            for n in range(n_max + 1)
            for k in range(k_max + 1 if truncated else min(k_max, n) + 1)]
