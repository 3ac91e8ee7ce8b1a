"""Bernoulli values (plain, higher order, truncated), Bell polynomials,
and the reciprocal-series polynomials."""

import math
from fractions import Fraction as F

import pytest

from degenstir import (
    InputTooShort,
    Series,
    as_elem,
    bell_partial,
    bell_partial_enum,
    bell_partial_gf,
    const,
    degen_bernoulli,
    degen_exp,
    k_lambda,
    k_lambda_bell,
    k_lambda_series,
    lam_elem,
    one_falling,
    stirling2_degen,
    stirling2r_gf,
    trunc_degen_bernoulli,
)
from degenstir import bernoulli
from degenstir.bernoulli import _bern_quot, _trunc_bern_series
from degenstir.field import domain
from degenstir.stirling import _block
from oracles import bernoulli_numbers

LAM = lam_elem()


def test_plain_values():
    assert degen_bernoulli(0, 1, 0) == 1
    assert degen_bernoulli(1, 1, 0) == (LAM - 1) / 2
    for n in range(5):
        assert degen_bernoulli(n, 0, 0) == (1 if n == 0 else 0)


def test_classical_limit_against_reciprocal_series_oracle():
    oracle = bernoulli_numbers(10)
    for n in range(11):
        assert degen_bernoulli(n, 1, 0, lam=F(0)) == oracle[n]
    assert degen_bernoulli(2, 1, 0, lam=F(0)) == F(1, 6)


def test_polynomial_argument():
    # first-order polynomial: x - (1-s)/2 at any sample
    for x in (0, 1, F(7, 3)):
        assert degen_bernoulli(1, 1, x) == const(x) - (1 - LAM) / 2


def test_truncated_base_cases():
    for r in (1, 2, 3):
        assert trunc_degen_bernoulli(0, r, 1, 0) == \
            math.factorial(r) / one_falling(r)
    assert trunc_degen_bernoulli(1, 2, 1, 0) == \
        (2 / (1 - LAM)) * (-(1 - 2 * LAM) / 3)


def test_truncation_depth_one_reduces_to_plain():
    for alpha in (1, 2, 3):
        for n in range(7):
            assert trunc_degen_bernoulli(n, 1, alpha, 0) == \
                degen_bernoulli(n, alpha, 0)
    for x in (1, F(1, 2)):
        for n in range(5):
            assert trunc_degen_bernoulli(n, 1, 1, x) == degen_bernoulli(n, 1, x)


def _one_division_series(r, alpha, x, precision, lam):
    # t^(alpha r) / block^alpha built at precision + alpha r, where the
    # division leaves the requested precision
    p = precision + alpha * r
    q = Series.t_power(alpha * r, p, lam).div(_block(2, r, p, lam).pow(alpha))
    if not x.is_zero:
        q = q.mul(degen_exp(x, precision, lam))
    return q


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_triangle_quotient_equals_the_one_division_form(lam):
    _bern_quot.cache_clear()
    _trunc_bern_series.cache_clear()
    dom = domain(lam)
    for r in (1, 2, 3):
        for alpha in (3, 1, 2):
            for x in (as_elem(0, lam), as_elem(F(1, 2), lam)):
                got = _trunc_bern_series(r, alpha, dom.unwrap(x), 6, dom)
                assert Series(map(dom.wrap, got)) == \
                    _one_division_series(r, alpha, x, 6, lam), (r, alpha, str(x))


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_negative_indices_are_refused(lam):
    # a plain read q[-1] of the coefficient list would return its last entry
    with pytest.raises(IndexError, match="negative coefficient index"):
        trunc_degen_bernoulli(-1, 1, 1, lam=lam)
    with pytest.raises(ValueError):
        stirling2r_gf(-1, 0, 1, lam=lam)


def _closed_beta2_derived(r, x):
    lead = const(math.factorial(r)) / one_falling(r)
    g = 1 - r * LAM
    h = 1 - (r + 1) * LAM
    xe = const(x) if not hasattr(x, "lam") else x
    return lead * (xe * (xe - LAM) - 2 * xe * g / (r + 1)
                   + 2 * g * g / (r + 1) ** 2 - 2 * g * h / ((r + 1) * (r + 2)))


def test_second_value_closed_form():
    for r in (1, 2, 3):
        for x in (0, 1, 2):
            assert trunc_degen_bernoulli(2, r, 1, x) == _closed_beta2_derived(r, x)


def test_published_beta2_display_has_flipped_signs():
    # the printed display negates the three non-quadratic terms; at the
    # classical limit it would give -1/6 for the second Bernoulli number
    lead = const(math.factorial(1)) / one_falling(1)
    g = 1 - LAM
    h = 1 - 2 * LAM
    printed = lead * (const(0) * (const(0) - LAM) + 2 * const(0) * g / 2
                      - 2 * g * g / 4 + 2 * g * h / 6)
    actual = trunc_degen_bernoulli(2, 1, 1, 0)
    assert printed != actual
    assert printed.instantiate(F(0)) == F(-1, 6)
    assert actual.instantiate(F(0)) == F(1, 6)


def test_bell_examples():
    xs = [const(F(p, 2)) for p in (3, 5, 7, 11, 13, 17)]
    for n in range(1, 6):
        assert bell_partial(n, 1, xs) == xs[n - 1]
        assert bell_partial(n, n, xs) == xs[0] ** n
    assert bell_partial(3, 2, xs) == 3 * xs[0] * xs[1]
    assert bell_partial(0, 0, xs) == 1
    assert bell_partial(3, 5, xs) == 0


def test_bell_routes_agree_on_symbolic_inputs():
    xs = [LAM + l for l in range(1, 11)]
    for n in range(11):
        for k in range(n + 1):
            assert bell_partial_enum(n, k, xs) == bell_partial_gf(n, k, xs)


def test_bell_row_climbs_one_ladder(monkeypatch):
    xs = [LAM + l for l in range(1, 11)]
    product = bernoulli.product
    calls = []

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(bernoulli, "product", counted)
    bernoulli._bell_rungs.cache_clear()
    for n in range(11):
        before = len(calls)
        row = [bell_partial_gf(n, k, xs) for k in range(n + 1)]
        # from scratch the row would take 0 + 1 + ... + n products
        assert len(calls) - before <= n
        ser = Series([const(0)] + [xs[l - 1] / math.factorial(l) for l in range(1, n + 1)])
        for k, value in enumerate(row):
            assert value == ser.pow(k).coeff(n) * F(math.factorial(n), math.factorial(k))
    assert calls  # the rungs are products
    # one ladder per row, and only the last few rows are kept
    info = bernoulli._bell_rungs.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 11


def test_bell_input_too_short():
    with pytest.raises(InputTooShort):
        bell_partial(5, 2, [const(1), const(2)])


def test_reciprocal_polynomials():
    xs = [const(F(l + 2, 3)) for l in range(10)]
    assert k_lambda(0, xs) == 1
    assert k_lambda(1, xs) == -xs[0]
    with pytest.raises(InputTooShort):
        k_lambda_series(4, xs[:2])


def test_reciprocal_routes_agree():
    sym = [LAM + l for l in range(1, 11)]
    for n in range(11):
        assert k_lambda_bell(n, sym) == k_lambda_series(n, sym)


def test_reciprocal_all_ones_specialization():
    for n in range(11):
        ones = [1] * max(n, 1)
        expect = const(0)
        for k in range(n + 1):
            sign = -1 if k % 2 else 1
            expect = expect + sign * math.factorial(k) * stirling2_degen(n, k)
        assert k_lambda(n, ones) == expect
