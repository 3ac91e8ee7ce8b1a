"""Stirling triangles: both kinds, truncation, and the three-route check."""

from fractions import Fraction as F

import pytest

from degenstir import (
    PrecisionExceeded,
    Series,
    build_triangle,
    const,
    falling_factorial,
    gen_falling,
    lam_elem,
    stirling1_degen,
    stirling1r_gf,
    stirling2_degen,
    stirling2r_binomial,
    stirling2r_composition,
    stirling2r_gf,
)
from degenstir import stirling
from degenstir.stirling import _block, _block_pow
from oracles import classic_stirling1, classic_stirling2

LAM = lam_elem()


def test_second_kind_examples():
    for k in range(6):
        assert stirling2_degen(k, k) == 1
    assert stirling2_degen(2, 1) == 1 - LAM
    with pytest.raises(PrecisionExceeded):
        stirling2_degen(5, 2, N=4)


def test_second_kind_classical_limit():
    table = classic_stirling2(12)
    for n in range(13):
        for k in range(n + 1):
            assert stirling2_degen(n, k, N=12, lam=F(0)) == table[(n, k)]


def test_first_kind_examples():
    for k in range(6):
        assert stirling1_degen(k, k) == 1
    assert stirling1_degen(2, 1) == LAM - 1


def test_first_kind_classical_limit():
    table = classic_stirling1(10)
    for n in range(11):
        for k in range(n + 1):
            assert stirling1_degen(n, k, N=10, lam=F(0)) == table[(n, k)]


def test_triangles_are_inverse_matrices():
    top = 10
    for n in range(top + 1):
        for m in range(top + 1):
            acc = const(0)
            for k in range(top + 1):
                acc = acc + stirling1_degen(n, k, N=top) * stirling2_degen(k, m, N=top)
            assert acc == (1 if n == m else 0)
            acc = const(0)
            for k in range(top + 1):
                acc = acc + stirling2_degen(n, k, N=top) * stirling1_degen(k, m, N=top)
            assert acc == (1 if n == m else 0)


def test_basis_change_identities():
    # second kind: the deformed product expands over plain falling factorials;
    # first kind: the mirror statement
    for n in range(9):
        for x in range(n + 1):
            xe = const(x)
            rhs = const(0)
            for k in range(n + 1):
                rhs = rhs + stirling2_degen(n, k, N=n) * falling_factorial(xe, k)
            assert gen_falling(xe, n) == rhs
            rhs = const(0)
            for k in range(n + 1):
                rhs = rhs + stirling1_degen(n, k, N=n) * gen_falling(xe, k)
            assert falling_factorial(xe, n) == rhs


def test_truncated_gf_examples():
    for n in range(9):
        for k in range(n + 1):
            assert stirling2r_gf(n, k, 1, N=n) == stirling2_degen(n, k, N=n)
    assert stirling2r_gf(3, 1, 2) == (1 - LAM) * (1 - 2 * LAM)
    assert stirling2r_gf(4, 2, 2) == 3 * (1 - LAM) ** 2


def test_truncated_vanishing_region_from_the_series_itself():
    for r in (1, 2, 3):
        for k in range(5):
            for n in range(k * r):
                assert stirling2r_gf(n, k, r, N=max(n, 1)) == 0


def test_composition_route_examples():
    for k in (1, 2, 3):
        for r in (1, 2, 3):
            if k * r - 1 >= 0:
                assert stirling2r_composition(k * r - 1, k, r) == 0
    assert stirling2r_composition(4, 2, 2) == 3 * (1 - LAM) ** 2
    for n in range(9):
        for k in range(9):
            assert stirling2r_composition(n, k, 1) == stirling2_degen(n, k, N=n)


def test_binomial_route_examples():
    assert stirling2r_binomial(1, 1, 2) == 0
    assert stirling2r_binomial(4, 2, 2) == 3 * (1 - LAM) ** 2
    assert stirling2r_binomial(2, 1, 2) == 1 - LAM


def test_three_routes_agree():
    for r in (1, 2, 3):
        for k in range(4):
            for n in range(9):
                a = stirling2r_gf(n, k, r, N=n)
                assert a == stirling2r_composition(n, k, r)
                assert a == stirling2r_binomial(n, k, r)


def test_first_kind_truncated():
    for n in range(9):
        for k in range(n + 1):
            assert stirling1r_gf(n, k, 1, N=n) == stirling1_degen(n, k, N=n)
    assert stirling1r_gf(2, 1, 2) == LAM - 1
    assert stirling1r_gf(1, 1, 2) == 0
    for k in (1, 2):
        for n in range(2 * k):
            assert stirling1r_gf(n, k, 2, N=max(n, 1)) == 0


def test_triangle_construction():
    rows = build_triangle("stirling2", 4, lam=F(0))
    entries = {(n, m): v for n, m, v in rows}
    assert entries[(4, 2)] == 7
    assert entries[(3, 3)] == 1
    rows2 = build_triangle("stirling2r", 6, k_max=2, r=2)
    entries2 = {(n, m): v for n, m, v in rows2}
    assert entries2[(3, 2)] == (1 - LAM) * (1 - 2 * LAM)
    assert rows2[0] == (0, 0, 1)
    keys = [(n, m) for n, m, _ in rows2]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        build_triangle("bell", 4)


def test_diagonal_is_one_for_plain_kinds():
    entries = {(n, m): v for n, m, v in build_triangle("stirling2", 6)}
    for n in range(7):
        assert entries[(n, n)] == 1


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_block_power_ladder_equals_the_repeated_product(lam):
    stirling._block_rungs.cache_clear()
    for kind in (1, 2):
        for r in (1, 2, 3):
            # the highest power first, then lower ones and the unit
            for k in (6, 2, 0, 5, 1, 3, 4):
                assert _block_pow(kind, k, r, 8, lam) == _block(kind, r, 8, lam).pow(k), \
                    (kind, r, k)


def test_ladder_stops_growing_at_its_first_zero_rung():
    # at precision 8 every power of the r = 1 block above the 8th is zero
    lam = F(1, 3)
    stirling._block_rungs.cache_clear()
    assert _block_pow(2, 5000, 1, 8, lam) == Series.zero(8, lam)
    assert len(stirling._block_rungs(2, 1, 8, lam)) == 10


def test_triangle_builds_each_block_power_with_one_product(monkeypatch):
    # repeated products from scratch would take 0 + 1 + ... + 16 = 136
    n_max = 16
    stirling._block_rungs.cache_clear()
    mul = Series.mul
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Series, "mul", counted)
    build_triangle("stirling2", n_max)
    assert len(calls) <= n_max + 1
