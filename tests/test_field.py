"""Exact scalar layer: rationals, parameter polynomials, rational functions."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstir import (
    BothZero,
    DivisionByZero,
    FieldElem,
    LambdaPoly,
    ModeMismatch,
    PoleAtLambda,
    bell_partial,
    const,
    degen_bernoulli,
    degen_exp,
    gen_falling,
    k_lambda,
    lam_elem,
    poly_gcd,
)
from oracles import poly_divmod, poly_gcd_monic, poly_mul

LAM = lam_elem()

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(rationals, max_size=4).map(LambdaPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
elems = st.tuples(polys, nonzero_polys).map(lambda nd: FieldElem.from_polys(*nd))


def test_rational_addition():
    assert const(F(1, 2)) + const(F(1, 3)) == F(5, 6)


def test_inverse_cancellation():
    assert (1 - LAM) * (1 / (1 - LAM)) == 1


def test_polynomial_quotient_reduces():
    # oracle: long division of 1 - l^2 by 1 - l
    quot, rem = poly_divmod([1, 0, -1], [1, -1])
    assert rem == [] and quot == [1, 1]
    e = FieldElem.from_polys(LambdaPoly((1, 0, -1)), LambdaPoly((1, -1)))
    assert e == 1 + LAM


def test_field_operators():
    a, b = const(F(3, 4)), const(F(1, 4))
    assert a + b == 1
    assert a - b == F(1, 2)
    assert a * b == F(3, 16)
    assert a / b == 3


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        const(1) / const(0)
    with pytest.raises(DivisionByZero):
        const(0).inverse()


def test_mode_mismatch():
    sym = const(1)
    inst = const(1, F(1, 2))
    with pytest.raises(ModeMismatch):
        sym + inst
    with pytest.raises(ModeMismatch):
        const(1, F(1, 2)) * const(1, F(1, 3))


def test_gcd_examples():
    g = poly_gcd(LambdaPoly((-1, 0, 1)), LambdaPoly((-1, 1)))
    assert g == LambdaPoly((-1, 1))  # hand Euclid: l^2 - 1 = (l + 1)(l - 1)
    p = LambdaPoly((2, 5, 7))
    assert poly_gcd(p, LambdaPoly.const(1)) == LambdaPoly.const(1)
    assert poly_gcd(LambdaPoly(), LambdaPoly((0, 1))) == LambdaPoly((0, 1))
    assert poly_gcd(LambdaPoly(), LambdaPoly((0, 3))) == LambdaPoly((0, 1))
    with pytest.raises(BothZero):
        poly_gcd(LambdaPoly(), LambdaPoly())


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both_and_is_monic(p, q):
    g = poly_gcd(p, q)
    assert g.leading == 1
    assert p.exact_div(g) * g == p
    assert q.exact_div(g) * g == q


def test_instantiate_examples():
    assert (1 - LAM).instantiate(F(1, 2)) == F(1, 2)
    assert (2 / (1 - LAM)).instantiate(F(1, 3)) == 3
    with pytest.raises(PoleAtLambda):
        (1 / (1 - LAM)).instantiate(F(1))


def test_canonicalization_idempotent():
    e = (3 - 3 * LAM ** 2) / (2 - 2 * LAM)
    again = FieldElem.from_polys(e.num, e.den)
    assert again.num == e.num and again.den == e.den
    assert e == F(3, 2) * (1 + LAM)


def test_canonical_denominator_is_monic():
    e = 1 / (2 - 2 * LAM)
    assert e.den.leading == 1
    assert e == F(-1, 2) / (LAM - 1)


@settings(max_examples=60, deadline=None)
@given(elems, elems, elems)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if not a.is_zero:
        assert a * a.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(elems, elems, st.sampled_from(["add", "sub", "mul"]),
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_instantiation_is_a_homomorphism(a, b, op, lam0):
    combined = {"add": a + b, "sub": a - b, "mul": a * b}[op]
    try:
        left = combined.instantiate(lam0)
        ra = a.instantiate(lam0)
        rb = b.instantiate(lam0)
    except PoleAtLambda:
        return
    right = {"add": ra + rb, "sub": ra - rb, "mul": ra * rb}[op]
    assert left == right


def test_structural_equality():
    a = (1 - LAM ** 2) / (1 - LAM)
    b = 1 + LAM
    assert a == b and hash(a) == hash(b)
    assert (1 / (1 - LAM)) != (1 / (1 + LAM))


def test_equality_with_plain_numbers():
    assert const(3) == 3
    assert const(F(1, 2), F(1, 7)) == F(1, 2)
    assert (LAM - LAM) == 0
    assert LAM != 1


def test_instantiated_mode_arithmetic():
    lam0 = F(1, 2)
    x = lam_elem(lam0)
    assert x + x == 1
    assert x.instantiate(lam0) == lam0
    with pytest.raises(ModeMismatch):
        x.instantiate(F(1, 3))


def test_canonical_string_forms():
    assert str((1 - LAM) / 2) == "(-1/2)*l^1 + 1/2"
    assert str(const(7)) == "7"
    assert str(const(0)) == "0"
    assert str(LAM ** 2 * 2 - 3 * LAM + 1) == "(2)*l^2 + (-3)*l^1 + 1"
    assert str(2 / (1 - LAM)) == "(-2) / ((1)*l^1 + -1)"
    assert str(const(F(-7, 3), F(1, 5))) == "-7/3"


def test_pow_and_negative_pow():
    assert (1 + LAM) ** 0 == 1
    assert (1 + LAM) ** 3 == (1 + LAM) * (1 + LAM) * (1 + LAM)
    assert (1 - LAM) ** -2 == 1 / ((1 - LAM) * (1 - LAM))


# The kernel stores a polynomial as a rational content times a primitive
# integer tuple; these compare it with plain Fraction coefficient lists at
# the sizes the symbolic routes reach (degree 16, coefficients of ~100 bits).
big_rationals = st.builds(F, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 40))
big_coeffs = st.lists(st.one_of(st.just(F(0)), big_rationals), max_size=13)
small_coeffs = st.lists(big_rationals, min_size=1, max_size=5)


def _strip(cs):
    cs = [F(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _assert_canonical(p):
    # content * prim with gcd(prim) == 1 and a positive leading coefficient
    if p.prim:
        assert p.content and p.prim[-1] > 0 and math.gcd(*p.prim) == 1
        assert all(type(c) is int for c in p.prim)
    else:
        assert p.content == 0


def _horner(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


@settings(max_examples=150, deadline=None)
@given(big_coeffs, big_coeffs, big_rationals)
def test_kernel_matches_fraction_lists(a, b, x):
    pa, pb = LambdaPoly(a), LambdaPoly(b)
    assert pa.coeffs == tuple(_strip(a))
    longest = max(len(a), len(b))
    pad = lambda cs: cs + [F(0)] * (longest - len(cs))
    for got, want in ((pa + pb, [u + v for u, v in zip(pad(a), pad(b))]),
                      (pa - pb, [u - v for u, v in zip(pad(a), pad(b))]),
                      (pa * pb, poly_mul(a, b)),
                      (-pa, [-c for c in a])):
        _assert_canonical(got)
        assert got.coeffs == tuple(_strip(want))
    assert pa.evaluate(x) == _horner(a, x)


@settings(max_examples=100, deadline=None)
@given(big_coeffs, small_coeffs, small_coeffs)
def test_kernel_division_and_gcd_match_fraction_lists(a, b, c):
    pa, pb, pc = LambdaPoly(a), LambdaPoly(b), LambdaPoly(c)
    if not pb.is_zero:
        quot, rem = poly_divmod(_strip(a), _strip(b))
        if rem:
            with pytest.raises(ValueError):
                pa.exact_div(pb)
        else:
            assert pa.exact_div(pb).coeffs == tuple(_strip(quot))
        # a multiple divides back exactly
        got = (pa * pb).exact_div(pb)
        _assert_canonical(got)
        assert got == pa
    # a common factor c, so the gcd is not 1 whenever c is not a constant
    ac, bc = poly_mul(a, c), poly_mul(b, c)
    if not ac and not bc:
        return
    g = poly_gcd(LambdaPoly(ac), LambdaPoly(bc))
    _assert_canonical(g)
    assert g.coeffs == tuple(poly_gcd_monic(ac, bc))


@settings(max_examples=100, deadline=None)
@given(big_coeffs, big_rationals.filter(bool))
def test_kernel_form_is_canonical(cs, c):
    by_constructor = LambdaPoly([c * x for x in cs])
    by_scaling = LambdaPoly(cs) * c
    assert by_constructor.content == by_scaling.content
    assert by_constructor.prim == by_scaling.prim
    assert by_constructor == by_scaling
    assert hash(by_constructor) == hash(by_scaling)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.just(F(0)), big_rationals))
def test_constant_elements_equal_and_hash_like_their_fraction(q):
    e = const(q)
    assert e == q and hash(e) == hash(q) and e.as_fraction() == q
    # the direct constant equals the one built through the constructor
    built = FieldElem.from_polys(LambdaPoly((q,)))
    assert built.num == e.num and built == e and hash(built) == hash(e)


# each entry point coerces its arguments through as_elem
_ELEMENT_ENTRY_POINTS = [
    ("degen_bernoulli", lambda x, lam=None: degen_bernoulli(2, 1, x=x, lam=lam)),
    ("bell_partial", lambda x, lam=None: bell_partial(3, 2, [x, x], lam=lam)),
    ("k_lambda", lambda x, lam=None: k_lambda(2, [x, x], lam=lam)),
    ("gen_falling", lambda x, lam=None: gen_falling(x, 3, lam=lam)),
    ("degen_exp", lambda x, lam=None: degen_exp(x, 4, lam=lam).coeff(2)),
]


@pytest.mark.parametrize("name,call", _ELEMENT_ENTRY_POINTS)
def test_an_explicit_lambda_refuses_an_element_of_another_mode(name, call):
    for x in (lam_elem(), const(1, F(1, 3))):
        with pytest.raises(ModeMismatch):
            call(x, lam=F(1, 2))
    # an element of the given mode, or any element without one, is taken as is
    pinned = const(3, F(1, 3))
    assert call(pinned, lam=F(1, 3)) == call(pinned)
    assert call(pinned).lam == F(1, 3)
    assert call(lam_elem()).lam is None
