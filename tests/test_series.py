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
    const,
    degen_exp,
    degen_log,
    lam_elem,
    stirling2r_gf,
)
from degenstir.series import valuation
from oracles import derivative, prefix_equal, series_product_coeff, t_power

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
        shifted = t_power(r, n_top).mul(
            Series(tail.coeffs + (z,) * r))
        assert prefix_equal(shifted, block)


def test_the_operators_scale_and_the_products_are_named():
    # * and / take a scalar; the product and quotient of two series are
    # Series.mul and Series.div
    f = poly_series(2, 4, 6)
    assert f * F(1, 2) == f / 2 == poly_series(1, 2, 3)
    assert 3 * f == poly_series(6, 12, 18)
    with pytest.raises(TypeError):
        f * f
    with pytest.raises(TypeError):
        f / f


def test_min_precision_rule():
    f = poly_series(1, 1, 1, 1)
    g = poly_series(1, 1)
    assert f.mul(g).precision == 1
    assert (f + g).precision == 1


def test_div_examples():
    e = degen_exp(1, 3)
    t = t_power(1, 3)
    q = t.div(e - 1)
    assert q.precision == 2
    assert q.coeff(0) == 1
    assert q.coeff(1) == (LAM - 1) / 2
    assert q.coeff(2) == (1 - LAM * LAM) / 12  # hand-inverted 1 + at + bt^2
    f = poly_series(2, 5, 1)
    assert prefix_equal(f.div(f), Series.one(2))
    with pytest.raises(ValuationTooHigh):
        Series.one(3).div(t_power(1, 3))
    with pytest.raises(ZeroDivisorSeries):
        f.div(Series.constant(0, 2))


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
    assert valuation(sq.coeffs) == 4
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
    assert f.compose(t_power(1, 2)) == f
    with pytest.raises(NonzeroConstantTerm):
        f.compose(poly_series(1, 1))


def test_derivative_examples():
    assert derivative(poly_series(1, 1, 1)) == poly_series(1, 2)


def test_derivative_of_block_power():
    # d/dt (e(t)-1-t)^k / k! = (e(t)-1-t)^(k-1) (e^{1-l}(t)-1) / (k-1)!
    n_top = 10
    k = 3
    e = degen_exp(1, n_top)
    base = e - 1 - t_power(1, n_top)
    lhs = derivative(base.pow(k) / math.factorial(k))
    shifted = degen_exp(1 - LAM, n_top) - 1
    rhs = base.pow(k - 1).mul(shifted) / math.factorial(k - 1)
    assert prefix_equal(lhs, rhs)


def test_coefficient_shift_rule_on_random_series():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.randrange(1, 7)
        f = Series(tuple(const(F(rng.randrange(-9, 10), rng.randrange(1, 5)))
                         for _ in range(p + 1)))
        d = derivative(f)
        for n in range(p):
            assert d.coeff(n) == (n + 1) * f.coeff(n + 1)


def test_valuation_examples():
    assert valuation(poly_series(0, 0, 1, 1).coeffs) == 2
    for r in (1, 2, 3):
        e = degen_exp(1, 6)
        z = const(0)
        block = Series(tuple(z if k < r else e.coeffs[k] for k in range(7)))
        assert valuation(block.coeffs) == r
    assert valuation(Series.constant(0, 4).coeffs) is None


def test_mode_mismatch_between_series():
    sym = Series.one(3)
    inst = Series.one(3, F(1, 2))
    with pytest.raises(ModeMismatch):
        sym.mul(inst)


def test_serialization_is_coefficient_strings():
    e = degen_exp(1, 2)
    assert [str(c) for c in e.coeffs] == ["1", "1", "(-1/2)*l^1 + 1/2"]


@settings(max_examples=40, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_laws(f, g, h):
    assert prefix_equal(f.mul(g), g.mul(f))
    assert prefix_equal(f.mul(g.mul(h)), f.mul(g).mul(h))
    assert prefix_equal(f.mul(g + h), f.mul(g) + f.mul(h))


@settings(max_examples=40, deadline=None)
@given(small_series, small_series)
def test_derivative_is_linear_and_leibniz(f, g):
    p = min(f.precision, g.precision)
    f, g = f.truncate(p), g.truncate(p)
    if p < 1:
        return
    assert derivative(f + g) == derivative(f) + derivative(g)
    prod_rule = derivative(f).mul(g.truncate(p - 1)) + f.truncate(p - 1).mul(derivative(g))
    assert prefix_equal(derivative(f.mul(g)), prod_rule)


@settings(max_examples=25, deadline=None)
@given(small_series, val1_series, val1_series)
def test_compose_is_associative(f, g, h):
    assert prefix_equal(f.compose(g).compose(h), f.compose(g.compose(h)))


@pytest.mark.parametrize("lam", [None, F(1, 3)])
def test_negation_reflected_subtraction_and_hash_follow_the_coefficients(lam):
    cs = [F(1, 2), F(-3), F(0), F(5, 7)]
    s = Series(tuple(const(c, lam) for c in cs))
    assert (-s).coeffs == tuple(const(-c, lam) for c in cs)
    assert (2 - s).coeffs == tuple(const(c, lam) for c in [2 - cs[0]] + [-c for c in cs[1:]])
    same = Series(tuple(const(c, lam) for c in cs))
    assert hash(s) == hash(same) and {s, same} == {s}
    # a plain number is not a series: the comparison is left to the other side
    assert s.__eq__(1) is NotImplemented and s != 1 and s != cs


def test_repr_shows_the_first_four_coefficients():
    assert repr(poly_series(1, F(1, 2))) == "Series([1, 1/2], precision=1)"
    assert repr(poly_series(1, F(1, 2), 0, -3, 4)) == "Series([1, 1/2, 0, -3, ...], precision=4)"


def test_malformed_series_and_out_of_range_requests_are_refused():
    with pytest.raises(ValueError, match="needs at least its constant coefficient"):
        Series(())
    with pytest.raises(ModeMismatch):
        Series((const(1), const(1, F(1, 2))))
    f = poly_series(1, 2, 3)
    with pytest.raises(IndexError, match="negative coefficient index"):
        f.coeff(-1)
    with pytest.raises(PrecisionExceeded, match="cannot extend precision 2 to 3"):
        f.truncate(3)
    with pytest.raises(ValueError, match="negative series power"):
        f.pow(-1)
    # the divisor's valuation 2 is above the dividend's one known order
    with pytest.raises(PrecisionExceeded, match="no quotient coefficients are determined"):
        poly_series(0, 0).div(poly_series(0, 0, 1))
