"""An outside oracle: the truncated Stirling numbers of both kinds and the
truncated Bernoulli values from the paper's closed forms, expanded by sympy
rather than by this package.

e_l(t) = (1 + l t)^(1/l) and log_l(1 + t) = ((1 + t)^l - 1)/l are expanded
with ``sympy.series``; their truncated blocks are powered in the polynomial
ring Q[l, t], cut at t^N.  The Bernoulli values are the coefficients of
(t^r / block)^alpha e_l^x(t), with e_l^x(t) = (1 + l t)^(x/l), the
reciprocal taken term by term in the field Q(l).  Every route in the
package starts from the same descending products, so this is the one check
that does not.
"""

import math
from fractions import Fraction as F

import pytest

sp = pytest.importorskip("sympy")
from sympy.polys.fields import field  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from degenstir import stirling1r_gf, stirling2r_gf, trunc_degen_bernoulli  # noqa: E402

N = 7
R, L, T = ring("l,t", sp.QQ)


def _series_coeffs(expr, t):
    # the t^0..t^N coefficients of expr as elements of Q[l, t]
    expanded = sp.expand(sp.series(expr, t, 0, N + 1).removeO())
    return [R(sp.expand(sp.cancel(expanded.coeff(t, i)))) for i in range(N + 1)]


def _cut(p):
    return R({m: c for m, c in p.items() if m[1] <= N})


@pytest.fixture(scope="module")
def oracle():
    """(kind, r, n, k) -> the value as {degree in l: rational coefficient}."""
    l, t = sp.symbols("l t")
    bases = {2: _series_coeffs((1 + l * t) ** (1 / l), t),
             1: _series_coeffs(((1 + t) ** l - 1) / l, t)}
    out = {}
    for kind, coeffs in bases.items():
        for r in (1, 2, 3):
            block = sum((c * T ** i for i, c in enumerate(coeffs) if i >= r), R(0))
            power = R(1)
            for k in range(N + 1):
                for n in range(N + 1):
                    scale = F(math.factorial(n), math.factorial(k))
                    out[kind, r, n, k] = {
                        m[0]: F(int(c.numerator), int(c.denominator)) * scale
                        for m, c in power.items() if m[1] == n}
                power = _cut(power * block)
    return out


ENTRY = {1: stirling1r_gf, 2: stirling2r_gf}


def _poly(elem):
    assert elem.den.is_one
    return {i: c for i, c in enumerate(elem.num.coeffs) if c}


@pytest.mark.parametrize("kind", [1, 2])
def test_symbolic_values_match_the_closed_forms(oracle, kind):
    for r in (1, 2, 3):
        for n in range(N + 1):
            for k in range(n + 1):
                got = _poly(ENTRY[kind](n, k, r))
                assert got == oracle[kind, r, n, k], (kind, r, n, k)


@pytest.mark.parametrize("lam", [F(-5, 3), F(0)])
def test_pinned_values_match_the_closed_forms(oracle, lam):
    for kind in (1, 2):
        for r in (1, 2, 3):
            for n in range(N + 1):
                for k in range(n + 1):
                    want = sum(c * lam ** i for i, c in oracle[kind, r, n, k].items())
                    assert ENTRY[kind](n, k, r, lam=lam) == want, (kind, r, n, k)


NB = 6
XS = (F(0), F(1, 2))
K, _ = field("l", sp.QQ)


def _cauchy(a, b):
    return [sum((a[i] * b[n - i] for i in range(n + 1)), K(0)) for n in range(NB + 1)]


def _reciprocal(a):
    out = [1 / a[0]]
    for n in range(1, NB + 1):
        out.append(-sum((a[i] * out[n - i] for i in range(1, n + 1)), K(0)) / a[0])
    return out


@pytest.fixture(scope="module")
def bernoulli_oracle():
    """(r, alpha, x, n) -> n! [t^n] (t^r / block)^alpha e^x(t), in Q(l)."""
    l, t = sp.symbols("l t")

    def coeffs(expr, top):
        expanded = sp.expand(sp.series(expr, t, 0, top + 1).removeO())
        return [K.from_expr(sp.cancel(expanded.coeff(t, i))) for i in range(top + 1)]

    base = coeffs((1 + l * t) ** (1 / l), NB + 3)
    exps = {x: coeffs((1 + l * t) ** (sp.Rational(x.numerator, x.denominator) / l), NB)
            for x in XS}
    out = {}
    for r in (1, 2, 3):
        shifted = base[r:r + NB + 1]  # block / t^r
        power = [K(1)] + [K(0)] * NB
        for alpha in (1, 2, 3):
            power = _cauchy(power, shifted)
            quotient = _reciprocal(power)
            for x, ex in exps.items():
                for n, c in enumerate(_cauchy(quotient, ex)):
                    out[r, alpha, x, n] = c * math.factorial(n)
    return out


def _ring_poly(poly):
    return K.ring.from_dict({(i,): sp.QQ(c.numerator, c.denominator)
                             for i, c in enumerate(poly.coeffs) if c})


def _rational(v):
    return F(int(v.numerator), int(v.denominator))


def test_symbolic_bernoulli_values_match_the_closed_form(bernoulli_oracle):
    for (r, alpha, x, n), want in bernoulli_oracle.items():
        got = trunc_degen_bernoulli(n, r, alpha, x)
        assert _ring_poly(got.num) * want.denom == want.numer * _ring_poly(got.den), \
            (r, alpha, x, n)


@pytest.mark.parametrize("lam", [F(-5, 3), F(0)])
def test_pinned_bernoulli_values_match_the_closed_form(bernoulli_oracle, lam):
    at = sp.QQ(lam.numerator, lam.denominator)
    for (r, alpha, x, n), want in bernoulli_oracle.items():
        value = _rational(want.numer(at)) / _rational(want.denom(at))
        assert trunc_degen_bernoulli(n, r, alpha, x, lam=lam) == value, \
            (r, alpha, x, n)
