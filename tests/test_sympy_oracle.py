"""An outside oracle: the truncated Stirling numbers of both kinds from the
paper's closed forms, expanded by sympy rather than by this package.

e_l(t) = (1 + l t)^(1/l) and log_l(1 + t) = ((1 + t)^l - 1)/l are expanded
with ``sympy.series``; their truncated blocks are powered in the polynomial
ring Q[l, t], cut at t^N.  Every route in the package starts from the same
descending products, so this is the one check that does not.
"""

import math
from fractions import Fraction as F

import pytest

sp = pytest.importorskip("sympy")
from sympy.polys.rings import ring  # noqa: E402

from degenstir import stirling1r_gf, stirling2r_gf  # noqa: E402

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
                got = _poly(ENTRY[kind](n, k, r, N=N))
                assert got == oracle[kind, r, n, k], (kind, r, n, k)


@pytest.mark.parametrize("lam", [F(-5, 3), F(0)])
def test_pinned_values_match_the_closed_forms(oracle, lam):
    for kind in (1, 2):
        for r in (1, 2, 3):
            for n in range(N + 1):
                for k in range(n + 1):
                    want = sum(c * lam ** i for i, c in oracle[kind, r, n, k].items())
                    assert ENTRY[kind](n, k, r, N=N, lam=lam) == want, (kind, r, n, k)
