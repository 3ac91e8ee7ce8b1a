"""Falling factorials and the deformed exponential / logarithm."""

import math
from fractions import Fraction as F

import pytest

from degenstir import (
    const,
    degen_exp,
    degen_log,
    falling_factorial,
    gen_falling,
    int_falling,
    lam_elem,
    one_falling,
)

LAM = lam_elem()


def test_falling_factorial_examples():
    assert falling_factorial(LAM, 0) == 1
    assert falling_factorial(3, 2) == 6
    assert falling_factorial(LAM, 3) == LAM * (LAM - 1) * (LAM - 2)


def test_gen_falling_examples():
    assert gen_falling(LAM, 0) == 1
    assert gen_falling(1, 3) == (1 - LAM) * (1 - 2 * LAM)
    for k in range(6):
        # clearing denominators of the reciprocal-step product leaves a polynomial
        recip = const(1) / LAM
        cleared = LAM ** k * gen_falling(1, k + 1, step=recip)
        expect = const(1)
        for i in range(1, k + 1):
            expect = expect * (LAM - i)
        assert cleared == expect
        assert cleared.den.is_one


def test_gen_falling_zero_step_and_unit_step():
    x = const(F(5, 3))
    for n in range(5):
        assert gen_falling(x, n, step=const(0)) == F(5, 3) ** n
    lam0 = F(1)
    y = const(F(7, 2), lam0)
    for n in range(5):
        assert gen_falling(y, n) == falling_factorial(y, n)


def test_one_falling_matches_product():
    for n in range(8):
        direct = const(1)
        for i in range(n):
            direct = direct * (1 - i * LAM)
        assert one_falling(n) == direct


def test_deep_descending_product_returns():
    # far beyond the recursion limit: the product is one loop, not a call per factor
    lam0 = F(1, 3)
    deep = gen_falling(1, 3000, lam=lam0)
    assert int_falling(1, 3000, lam0) == deep
    assert one_falling(3000, lam0) == deep
    assert deep == 0  # the factor 1 - 3/3 vanishes
    lam0 = F(2, 7)  # no factor 1 - i*2/7 vanishes
    direct = F(1)
    for i in range(3000):
        direct *= 1 - i * lam0
    assert int_falling(1, 3000, lam0) == direct != 0


def test_degen_exp_coefficients():
    e = degen_exp(1, 6)
    assert e.coeff(0) == 1
    for x in (const(2), const(F(1, 2)), 1 - LAM):
        assert degen_exp(x, 4).coeff(2) == x * (x - LAM) / 2
    classical = degen_exp(1, 8, F(0))
    for k in range(9):
        assert classical.coeff(k) == F(1, math.factorial(k))


def test_degen_log_coefficients():
    lg = degen_log(6)
    assert lg.coeff(0) == 0
    assert lg.coeff(1) == 1
    assert lg.coeff(2) == (LAM - 1) / 2


@pytest.mark.parametrize("lam", [None, F(1, 3)])
def test_a_negative_precision_is_refused(lam):
    with pytest.raises(ValueError):
        degen_exp(1, -2, lam)
    with pytest.raises(ValueError):
        degen_log(-1, lam)


def test_degen_log_definitional_route_and_polynomiality():
    # coefficient n also equals s^(n-1) (1)_{n,1/s} / n!; both the equality
    # and the canonical denominator 1 must hold for n up to 32
    lg = degen_log(32)
    recip = const(1) / LAM
    for n in range(1, 33):
        definitional = LAM ** (n - 1) * gen_falling(1, n, step=recip) / math.factorial(n)
        c = lg.coeff(n)
        assert c == definitional
        assert c.den.is_one


def test_degen_log_at_pinned_zero():
    # at a pinned parameter of zero the classical log(1+t) coefficients appear
    lg = degen_log(6, F(0))
    for n in range(1, 7):
        assert lg.coeff(n) == F((-1) ** (n - 1), n)


def test_compositional_inverse_both_ways():
    n = 12
    e = degen_exp(1, n)
    lg = degen_log(n)
    left = lg.compose(e - 1)
    assert left.coeff(1) == 1
    assert all(left.coeff(i) == 0 for i in [0] + list(range(2, n + 1)))
    right = e.compose(lg)
    assert right.coeff(0) == 1 and right.coeff(1) == 1
    assert all(right.coeff(i) == 0 for i in range(2, n + 1))
