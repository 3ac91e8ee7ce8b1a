"""Truncated power series: arithmetic, precision bookkeeping, composition."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstir import (
    ModeMismatch,
    NonzeroConstantTerm,
    PrecisionExceeded,
    Series,
    ValuationTooHigh,
    ZeroDivisorSeries,
    ZeroPrecision,
    const,
    degen_exp,
    degen_log,
    lam_elem,
    stirling2r_gf,
)
from oracles import series_product_coeff

LAM = lam_elem()


def poly_series(*values):
    return Series(tuple(const(v) for v in values))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_series = st.lists(rationals, min_size=2, max_size=5).map(
    lambda cs: Series(tuple(const(c) for c in cs)))
val1_series = small_series.map(
    lambda s: Series((const(0),) + s.coeffs[1:]))


def test_coeff_reads_and_contract_boundary():
    f = poly_series(1, 2, 3)
    assert f.coeff(1) == 2
    assert f.precision == 2
    with pytest.raises(PrecisionExceeded):
        f.coeff(3)


def test_deformed_exponential_coefficient():
    assert degen_exp(1, 4).coeff(2) == (1 - LAM) / 2


def test_mul_examples():
    f = poly_series(1, 1, 0)
    g = poly_series(1, -1, 0)
    assert f.mul(g) == poly_series(1, 0, -1)
    e = degen_exp(1, 5)
    assert e.mul(Series.one(5)) == e


def test_mul_reproduces_shifted_single_block():
    # the single-power truncated series equals t^r times the shifted
    # coefficient sequence S(n+r, r) n!/(n+r)! / n!
    for r in (2, 3):
        n_top = 8
        e = degen_exp(1, n_top)
        z = const(0)
        block = Series(tuple(z if k < r else e.coeffs[k] for k in range(n_top + 1)))
        tail = Series(tuple(
            stirling2r_gf(n + r, 1, r) / math.factorial(n + r)
            for n in range(n_top - r + 1)))
        shifted = Series.t_power(r, n_top).mul(
            Series(tail.coeffs + (z,) * r))
        assert shifted.prefix_equal(block)


def test_min_precision_rule():
    f = poly_series(1, 1, 1, 1)
    g = poly_series(1, 1)
    assert f.mul(g).precision == 1
    assert (f + g).precision == 1


def test_div_examples():
    e = degen_exp(1, 3)
    t = Series.t_power(1, 3)
    q = t.div(e - 1)
    assert q.precision == 2
    assert q.coeff(0) == 1
    assert q.coeff(1) == (LAM - 1) / 2
    assert q.coeff(2) == (1 - LAM * LAM) / 12  # hand-inverted 1 + at + bt^2
    f = poly_series(2, 5, 1)
    assert f.div(f).prefix_equal(Series.one(2))
    with pytest.raises(ValuationTooHigh):
        Series.one(3).div(Series.t_power(1, 3))
    with pytest.raises(ZeroDivisorSeries):
        f.div(Series.zero(2))


def test_div_then_mul_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        v = rng.randrange(0, 3)
        fp = rng.randrange(v + 1, 8)
        gp = rng.randrange(v + 1, 8)
        f = Series(tuple(const(0) for _ in range(v)) +
                   tuple(const(F(rng.randrange(-4, 5), rng.randrange(1, 4)))
                         for _ in range(fp - v + 1)))
        g_lead = F(rng.randrange(1, 5))
        g = Series(tuple(const(0) for _ in range(v)) + (const(g_lead),) +
                   tuple(const(F(rng.randrange(-4, 5), rng.randrange(1, 4)))
                         for _ in range(gp - v)))
        h = f.div(g)
        upto = h.precision + v
        for m in range(upto + 1):
            got = series_product_coeff(h.coeffs, g.coeffs, m)
            want = f.coeff(m) if m <= f.precision else None
            if want is not None and got is not None:
                assert got == want


def test_pow_examples():
    assert poly_series(1, 1, 0).pow(2) == poly_series(1, 2, 1)
    e = degen_exp(1, 5)
    z = const(0)
    tail = Series(tuple(z if k < 2 else e.coeffs[k] for k in range(6)))
    sq = tail.pow(2)
    assert sq.valuation() == 4
    assert sq.coeff(4) == (1 - LAM) * (1 - LAM) / 4
    f = poly_series(3, 1, 4)
    assert f.pow(0) == Series.one(2)


def test_compose_examples():
    e = degen_exp(1, 12)
    lg = degen_log(12)
    c = e.compose(lg)
    assert c.coeff(0) == 1 and c.coeff(1) == 1
    assert all(c.coeff(i) == 0 for i in range(2, 13))
    f = poly_series(2, 3, 5)
    assert f.compose(Series.t_power(1, 2)) == f
    with pytest.raises(NonzeroConstantTerm):
        f.compose(poly_series(1, 1))


def test_derivative_examples():
    assert poly_series(1, 1, 1).derivative() == poly_series(1, 2)
    with pytest.raises(ZeroPrecision):
        poly_series(5).derivative()


def test_derivative_of_block_power():
    # d/dt (e(t)-1-t)^k / k! = (e(t)-1-t)^(k-1) (e^{1-l}(t)-1) / (k-1)!
    n_top = 10
    k = 3
    e = degen_exp(1, n_top)
    base = e - 1 - Series.t_power(1, n_top)
    lhs = (base.pow(k) / math.factorial(k)).derivative()
    shifted = degen_exp(1 - LAM, n_top) - 1
    rhs = base.pow(k - 1).mul(shifted) / math.factorial(k - 1)
    assert lhs.prefix_equal(rhs)


def test_coefficient_shift_rule_on_random_series():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.randrange(1, 7)
        f = Series(tuple(const(F(rng.randrange(-9, 10), rng.randrange(1, 5)))
                         for _ in range(p + 1)))
        d = f.derivative()
        for n in range(p):
            assert d.coeff(n) == (n + 1) * f.coeff(n + 1)


def test_valuation_examples():
    assert poly_series(0, 0, 1, 1).valuation() == 2
    for r in (1, 2, 3):
        e = degen_exp(1, 6)
        z = const(0)
        block = Series(tuple(z if k < r else e.coeffs[k] for k in range(7)))
        assert block.valuation() == r
    assert Series.zero(4).valuation() is None


def test_mode_mismatch_between_series():
    sym = Series.one(3)
    inst = Series.one(3, F(1, 2))
    with pytest.raises(ModeMismatch):
        sym.mul(inst)


def test_serialization_is_coefficient_strings():
    e = degen_exp(1, 2)
    assert e.to_strings() == ["1", "1", "(-1/2)*l^1 + 1/2"]


@settings(max_examples=40, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_laws(f, g, h):
    assert f.mul(g).prefix_equal(g.mul(f))
    assert f.mul(g.mul(h)).prefix_equal(f.mul(g).mul(h))
    assert f.mul(g + h).prefix_equal(f.mul(g) + f.mul(h))


@settings(max_examples=40, deadline=None)
@given(small_series, small_series)
def test_derivative_is_linear_and_leibniz(f, g):
    p = min(f.precision, g.precision)
    f, g = f.truncate(p), g.truncate(p)
    if p < 1:
        return
    assert (f + g).derivative() == f.derivative() + g.derivative()
    prod_rule = f.derivative().mul(g.truncate(p - 1)) + f.truncate(p - 1).mul(g.derivative())
    assert f.mul(g).derivative().prefix_equal(prod_rule)


@settings(max_examples=25, deadline=None)
@given(small_series, val1_series, val1_series)
def test_compose_is_associative(f, g, h):
    assert f.compose(g).compose(h).prefix_equal(f.compose(g.compose(h)))
