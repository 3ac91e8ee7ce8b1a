"""Differential check of the two modes: a value computed with the parameter
pinned to a rational equals the symbolic value evaluated there.

The pinned values are never poles: every denominator in the library is a
product of unit descending products 1(1-s)...(1-(j-1)s), which vanish only
at s = 1/i, and each pinned value here has a numerator of size at least 2.
"""

from argparse import Namespace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenstir import cli

PINNED = (F(-5, 3), F(7, 2))
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
    "stirling1r": _grid("stirling1r", 7, (1, 2, 3)),
    "stirling2r": _grid("stirling2r", 7, (1, 2, 3)),
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
    for args, n, k in CASES[family]:
        symbolic = value(Namespace(**vars(args), lam=None), n, k, None)
        for lam0 in PINNED:
            pinned = value(Namespace(**vars(args), lam=lam0), n, k, None)
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
            symbolic = value(Namespace(**vars(args), lam=None), n, k, None)
            pinned = value(Namespace(**vars(args), lam=lam0), n, k, None)
            assert pinned.lam == lam0
            assert symbolic.instantiate(lam0) == pinned.instantiate(lam0), \
                (family, vars(args), n, k, lam0)
