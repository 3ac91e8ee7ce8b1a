"""Exact scalar layer: rationals, parameter polynomials, rational functions."""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
    poly_str,
    trunc_degen_bernoulli,
)
from degenstir import field
from degenstir.field import (domain, int_add, int_add_mul, int_mul, int_poly, int_poly_str,
                             int_poly_writer, int_scale, ratio_str, rational_str)
from oracles import poly_divmod, poly_gcd_monic, poly_mul, poly_text, quotient_text, rational_text

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


def _canonical(e):
    # equality is structural, so it proves a law only between canonical forms
    assert poly_gcd(e.num, e.den).degree == 0 and e.den.leading == 1
    return e


@settings(max_examples=60, deadline=None)
@given(elems, elems, elems)
def test_field_axioms(a, b, c):
    def add(x, y):
        return _canonical(x + y)

    def mul(x, y):
        return _canonical(x * y)

    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, -a) == 0
    if not a.is_zero:
        assert mul(a, a.inverse()) == 1


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


# int coefficient tuples as the int kernel takes them: no trailing zeros, of
# length 0..12 with gaps and entries of some 130 bits, or linear, the factor
# the product fuses into one pass
big_ints = st.integers(-2 ** 130, 2 ** 130)
int_tuples = st.one_of(
    st.lists(st.one_of(st.just(0), big_ints), max_size=12).map(lambda cs: tuple(_strip(cs))),
    st.tuples(big_ints, big_ints.filter(bool)))


@settings(max_examples=200, deadline=None)
@given(int_tuples, int_tuples, big_ints)
def test_int_kernel_matches_list_oracles(p, q, s):
    assert int_mul(p, q) == int_mul(q, p) == tuple(poly_mul(p, q))
    longest = max(len(p), len(q))
    pad = lambda cs: list(cs) + [0] * (longest - len(cs))
    assert int_add(p, q) == tuple(_strip([u + v for u, v in zip(pad(p), pad(q))]))
    assert int_scale(p, s) == tuple(_strip([s * c for c in p]))
    assert int_add(p, int_scale(p, -1)) == ()


@settings(max_examples=200, deadline=None)
@given(int_tuples, int_tuples, int_tuples)
def test_a_sum_plus_a_product_in_one_pass_matches_the_two_steps(acc, p, q):
    assert int_add_mul(acc, p, q) == int_add_mul(acc, q, p) == int_add(acc, int_mul(p, q))
    # a sum that cancels drops every trailing zero
    assert int_add_mul(int_scale(int_mul(p, q), -1), p, q) == ()


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


# The canonical text is rendered from the integer form; the oracle renders
# the rational coefficients one Fraction at a time.
gappy_ints = st.lists(st.one_of(st.just(0), st.integers(-10 ** 40, 10 ** 40)), max_size=13)
big_contents = st.builds(F, st.integers(-2 ** 200, 2 ** 200).filter(bool),
                         st.integers(1, 2 ** 200))
big_quotients = st.tuples(
    st.lists(big_rationals, max_size=4).map(LambdaPoly),
    st.lists(big_rationals, min_size=1, max_size=4).map(LambdaPoly).filter(lambda p: p.prim),
).map(lambda nd: FieldElem.from_polys(*nd))


@settings(max_examples=150, deadline=None)
@given(st.one_of(big_coeffs, gappy_ints), big_contents)
def test_poly_text_matches_the_coefficient_oracle(cs, q):
    # zero and negative coefficients, gaps, and contents of some 200 bits
    for scale in (1, q):
        p = LambdaPoly(cs) * scale
        want = poly_text([F(c) * scale for c in cs])
        assert poly_str(p) == str(p) == poly_text(p.coeffs) == want


# an integer cell: zeros, both signs and coefficients past 2^200, which the
# text route writes straight from its ints
cell_ints = st.lists(st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 210, 2 ** 210)),
                     max_size=10).map(tuple)


@settings(max_examples=200, deadline=None)
@given(cell_ints)
@example(())
@example((0, 0, 5))
@example((-3, 0, 6, -9))
@example((2 ** 201 * 35, 0, -(2 ** 205) * 35))
def test_an_int_polys_text_is_that_of_its_canonical_element(cell):
    # content times primitive part gives the ints back, so no coefficient
    # text differs
    assert int_poly_str(cell) == str(int_poly(cell)) == poly_text(cell)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 210, 2 ** 210)),
                min_size=1, max_size=60).map(tuple))
@example((5,))
@example((-1, 1))
@example((0, 7))
@example((7, 0))
@example((3025, -34776, 164346, -408240, 561225, -403704, 118124))
@example(tuple(range(1, 61)))
@example(tuple(2 ** 201 + i for i in range(60)))
def test_an_int_poly_writer_writes_the_text_of_int_poly_str(cell):
    # a dense tuple is one % on the template of its degree; a tuple with a
    # zero goes to int_poly_str.  One writer writes the tuple, a shorter
    # prefix from a template it already holds, then the whole tuple again
    write = int_poly_writer()
    with mock.patch.object(field, "int_poly_str", wraps=int_poly_str) as fallback:
        for ints in (cell, cell[:(len(cell) + 1) // 2], cell):
            before = fallback.call_count
            assert write(ints) == int_poly_str(ints) == poly_text(ints)
            assert fallback.call_count - before == (0 in ints)


def test_an_int_poly_writer_writes_a_degree_6_stirling_cell():
    # S(9, 3) of the second kind, whose value at l = 0 is the classical 3025
    cell = (3025, -34776, 164346, -408240, 561225, -403704, 118124)
    assert int_poly_writer()(cell) == ("(118124)*l^6 + (-403704)*l^5 + (561225)*l^4 + "
                                       "(-408240)*l^3 + (164346)*l^2 + (-34776)*l^1 + 3025")
    assert int_poly_writer()(()) == "0"


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 210, 2 ** 210)),
       st.integers(1, 7), st.integers(0, 40))
@example(0, 7, 5)
@example(-2384640 * 7, 7, 6)
@example(-(2 ** 205), 1, 9)
@example(12, 2, 3)
def test_a_scaled_int_over_a_power_texts_as_its_reduced_fraction(t, q, s):
    # a pinned cell T over q^s, reduced by one gcd with no Fraction built
    assert ratio_str(t, q ** s) == rational_str(F(t, q ** s)) == rational_text(F(t, q ** s))


@settings(max_examples=100, deadline=None)
@given(st.one_of(elems, big_quotients), big_contents)
def test_element_text_matches_the_coefficient_oracle(e, q):
    for x in (e, e * q, e / q):
        assert str(x) == quotient_text(x.num.coeffs, x.den.coeffs)
    assert str(const(q, F(2, 7))) == rational_text(q)


def test_quotient_text_of_a_truncated_bernoulli_value():
    e = trunc_degen_bernoulli(1, 2, 1)
    assert str(e) == quotient_text(e.num.coeffs, e.den.coeffs) == \
        "((-4/3)*l^1 + 2/3) / ((1)*l^1 + -1)"
    e = trunc_degen_bernoulli(4, 2, 2, x=F(-3, 5))
    assert not e.den.is_one
    assert str(e) == quotient_text(e.num.coeffs, e.den.coeffs)


pinned_elems = st.builds(const, rationals, st.sampled_from([F(-5, 3), F(0), F(2, 7)]))
scalars = st.one_of(st.just(0), st.just(F(0)), st.integers(-30, 30),
                  st.fractions(-4, 4, max_denominator=6))


def _canonical_in_mode(e):
    if e.lam is None:
        return _canonical(e)
    assert type(e.value) is F and e.num is None and e.den is None
    return e


@settings(max_examples=150, deadline=None)
@given(st.one_of(elems, pinned_elems), scalars)
def test_rational_factors_match_constant_elements(e, q):
    # an int or Fraction scales the element directly, with no constant
    # element and no cross-reduction; the result is the one const(q) gives
    c = const(q, e.lam)
    assert _canonical_in_mode(e * q) == e * c
    assert _canonical_in_mode(q * e) == e * c
    if q:
        assert _canonical_in_mode(e / q) == e / c
    else:
        zero = _canonical_in_mode(e * q)
        assert zero == const(0, e.lam) and zero.is_zero
        if e.lam is None:
            assert (zero.num, zero.den) == (LambdaPoly(), LambdaPoly.const(1))
        for divisor in (0, F(0)):
            with pytest.raises(DivisionByZero, match="^division by zero field element$"):
                e / divisor


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


# sum_products takes (c, v1, ..., vk) tuples: an int or Fraction coefficient
# and k domain values; symbolic values mix polynomials with genuine quotients
sum_coefs = st.one_of(st.just(0), st.integers(-30, 30), st.fractions(-4, 4, max_denominator=6))
symbolic_values = st.one_of(st.just(const(0)), polys.map(FieldElem.from_polys), elems)
pinned_values = st.one_of(st.just(F(0)), rationals)


def _products(values):
    term = st.tuples(sum_coefs, st.lists(values, max_size=3)).map(lambda cv: (cv[0], *cv[1]))
    return st.lists(term, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_products_matches_the_term_by_term_loop(data):
    lam = data.draw(st.sampled_from([None, F(-3, 7), F(0), F(5, 2)]))
    dom = domain(lam)
    terms = data.draw(_products(symbolic_values if lam is None else pinned_values))
    acc = dom.zero
    for c, *factors in terms:
        term = c
        for v in factors:
            term = term * v
        acc = acc + term
    got = dom.sum_products(iter(terms))
    assert type(got) is type(acc)
    assert got == acc and hash(got) == hash(acc)
    if lam is None:
        assert (got.num, got.den) == (acc.num, acc.den)
        _assert_canonical(_canonical(got).num)


def test_sum_products_of_no_terms_is_the_domain_zero():
    for lam in (None, F(-3, 7)):
        dom = domain(lam)
        for terms in ([], [(0, dom.lam)], [(F(1, 2), dom.zero, dom.lam)]):
            got = dom.sum_products(terms)
            assert got == dom.zero and hash(got) == hash(dom.zero) and not got


def test_polynomial_repr_and_the_refusals_on_zero():
    p = LambdaPoly((F(1, 2), 0, F(-3, 4)))
    assert repr(p) == "LambdaPoly((-3/4)*l^2 + 1/2)" and p.leading == F(-3, 4)
    with pytest.raises(ValueError, match="the zero polynomial has no leading coefficient"):
        LambdaPoly().leading
    with pytest.raises(DivisionByZero, match="polynomial division by zero"):
        p.exact_div(LambdaPoly())
    with pytest.raises(DivisionByZero, match="zero denominator polynomial"):
        FieldElem.from_polys(p, LambdaPoly())


def test_equality_across_modes_and_with_other_types():
    sym, pinned = const(F(1, 2)), const(F(1, 2), F(1, 3))
    # equal rationals in two modes are unequal elements, either way round
    assert (sym == pinned) is False and (pinned == sym) is False
    assert sym.__eq__("1/2") is NotImplemented and sym != "1/2"
    assert pinned.__eq__(0.5) is NotImplemented


def test_a_constant_unwraps_to_its_fraction_and_a_function_of_l_does_not():
    assert const(F(2, 3)).as_fraction() == F(2, 3)
    assert const(F(2, 3), F(1, 3)).as_fraction() == F(2, 3)
    for value in (LAM, 1 / (LAM + 1)):
        with pytest.raises(ValueError, match="element is not a rational constant"):
            value.as_fraction()


def test_the_domains_refuse_a_zero_inverse_and_another_modes_element():
    pinned = domain(F(1, 3))
    assert pinned.inverse(F(-2, 5)) == F(-5, 2)
    with pytest.raises(DivisionByZero, match="inverse of zero"):
        pinned.inverse(F(0))
    assert domain().unwrap(F(1, 2)) == const(F(1, 2))
    with pytest.raises(ModeMismatch, match="cannot combine mode Fraction\\(1, 3\\) with mode None"):
        domain().unwrap(const(1, F(1, 3)))
