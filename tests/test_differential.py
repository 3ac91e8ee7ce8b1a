"""Differential check of the two modes: a value computed with the parameter
pinned to a rational equals the symbolic value evaluated there, and so do
the two sides of every identity report.

The pinned values are never poles: every denominator in the library is a
product of unit descending products 1(1-s)...(1-(j-1)s), which vanish only
at s = 1/i, and each pinned value here has a numerator of size at least 2.
The Stirling values have no denominator, so they are also checked at those
poles and at the other parameters where the pinned triangle fill meets a
zero factor.
"""

from argparse import Namespace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstir import IDENTITY_TAGS, cli, sweep

PINNED = (F(-5, 3), F(7, 2))
# l = 0, where the pinned Stirling fill's p is 0, and the l where a factor
# of the fill's c = (a - b)(a - 2b)... vanishes at some r <= 4: l = 1/i for
# the second kind and l = i for the first, i < r
FILL_ZEROS = (F(0), F(1), F(-1), F(2), F(3), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3))
XS = [F(1, 2), F(-3), F(2, 5), F(4), F(-1, 7), F(5, 3)]


def _grid(family, n_max, rs=(1,), alphas=(1,), xs_of_x=(F(0),), triangle=True):
    """(args, n, k) triples for one family: every row a table would emit."""
    out = []
    for r in rs:
        for alpha in alphas:
            for x in xs_of_x:
                args = Namespace(family=family, r=r, alpha=alpha, x=x, xs=XS)
                out += [(args, n, k) for n in range(n_max + 1)
                        for k in (range(n + 1) if triangle else (0,))]
    return out


CASES = {
    "stirling1": _grid("stirling1", 7),
    "stirling2": _grid("stirling2", 7),
    "stirling1r": _grid("stirling1r", 7, (1, 2, 3, 4)),
    "stirling2r": _grid("stirling2r", 7, (1, 2, 3, 4)),
    "bernoulli": _grid("bernoulli", 5, (1,), (1, 2, 3), (F(0), F(1, 2)), False),
    "trunc-bernoulli": _grid("trunc-bernoulli", 5, (1, 2, 3), (1, 2, 3), (F(0), F(1, 2)),
                             False),
    "bell": _grid("bell", 6),
    "klambda": _grid("klambda", 6, triangle=False),
}


def test_every_family_is_covered():
    assert set(CASES) == set(cli.FAMILIES)


@pytest.mark.parametrize("family", sorted(CASES))
def test_pinned_equals_instantiated_symbolic(family):
    value = cli.FAMILIES[family][0]
    lams = PINNED + FILL_ZEROS if family.startswith("stirling") else PINNED
    for args, n, k in CASES[family]:
        symbolic = value(Namespace(**vars(args), lam=None), n, k)
        for lam0 in lams:
            pinned = value(Namespace(**vars(args), lam=lam0), n, k)
            assert pinned.lam == lam0
            assert symbolic.instantiate(lam0) == pinned.instantiate(lam0), \
                (family, vars(args), n, k, lam0)


# lambda0 = +-p/q with 2 <= p, q <= 9.  Reduced forms with numerator 1, such
# as 2/4 = 1/2 or 3/3 = 1, are the poles 1/i and are filtered out.
_RANDOM_LAMBDA = st.builds(
    lambda sign, p, q: sign * F(p, q),
    st.sampled_from((1, -1)), st.integers(2, 9), st.integers(2, 9),
).filter(lambda lam0: abs(lam0.numerator) >= 2)

RANDOM_CASES = {
    "stirling2r": _grid("stirling2r", 6, (1, 2, 3)),
    "stirling1r": _grid("stirling1r", 6, (1, 2, 3)),
    "trunc-bernoulli": _grid("trunc-bernoulli", 6, (1, 2, 3), (1, 2, 3), (F(0), F(1, 2)),
                             False),
}


@settings(max_examples=40, deadline=None)
@given(lam0=_RANDOM_LAMBDA)
def test_pinned_equals_instantiated_symbolic_at_random_lambda(lam0):
    for family, cases in RANDOM_CASES.items():
        value = cli.FAMILIES[family][0]
        for args, n, k in cases:
            symbolic = value(Namespace(**vars(args), lam=None), n, k)
            pinned = value(Namespace(**vars(args), lam=lam0), n, k)
            assert pinned.lam == lam0
            assert symbolic.instantiate(lam0) == pinned.instantiate(lam0), \
                (family, vars(args), n, k, lam0)


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_pinned_reports_equal_instantiated_symbolic_reports(tag):
    bounds = {"n_max": 3, "k_max": 2, "r_max": 2, "alpha_max": 2}
    symbolic = sweep(tag, **bounds)
    assert symbolic
    for lam0 in PINNED:
        pinned = sweep(tag, lam=lam0, **bounds)
        assert [(p.identity, p.variant, p.params, p.equal) for p in pinned] == \
            [(s.identity, s.variant, s.params, s.equal) for s in symbolic]
        for p, s in zip(pinned, symbolic):
            assert p.lhs.lam == p.rhs.lam == lam0
            assert p.lhs.instantiate(lam0) == s.lhs.instantiate(lam0), (tag, p.params)
            assert p.rhs.instantiate(lam0) == s.rhs.instantiate(lam0), (tag, p.params)
