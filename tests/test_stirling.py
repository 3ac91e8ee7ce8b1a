"""Stirling triangles: both kinds, truncation, and the three-route check."""

import math
import os
import sys
import threading
from fractions import Fraction as F

import pytest

from degenstir import (
    FieldElem,
    Series,
    bell_partial_gf,
    build_triangle,
    const,
    falling_factorial,
    gen_falling,
    lam_elem,
    one_falling,
    stirling1_degen,
    stirling1r_gf,
    stirling2_degen,
    stirling2r_binomial,
    stirling2r_composition,
    stirling2r_gf,
    trunc_degen_bernoulli,
)
from degenstir import bernoulli, stirling
from degenstir.field import SYMBOLIC
from degenstir.stirling import _block
from oracles import classic_stirling1, classic_stirling2

LAM = lam_elem()


def test_second_kind_examples():
    for k in range(6):
        assert stirling2_degen(k, k) == 1
    assert stirling2_degen(2, 1) == 1 - LAM


def test_second_kind_classical_limit():
    table = classic_stirling2(12)
    for n in range(13):
        for k in range(n + 1):
            assert stirling2_degen(n, k, lam=F(0)) == table[(n, k)]


def test_first_kind_examples():
    for k in range(6):
        assert stirling1_degen(k, k) == 1
    assert stirling1_degen(2, 1) == LAM - 1


def test_first_kind_classical_limit():
    table = classic_stirling1(10)
    for n in range(11):
        for k in range(n + 1):
            assert stirling1_degen(n, k, lam=F(0)) == table[(n, k)]


def test_triangles_are_inverse_matrices():
    top = 10
    for n in range(top + 1):
        for m in range(top + 1):
            acc = const(0)
            for k in range(top + 1):
                acc = acc + stirling1_degen(n, k) * stirling2_degen(k, m)
            assert acc == (1 if n == m else 0)
            acc = const(0)
            for k in range(top + 1):
                acc = acc + stirling2_degen(n, k) * stirling1_degen(k, m)
            assert acc == (1 if n == m else 0)


def test_basis_change_identities():
    # second kind: the deformed product expands over plain falling factorials;
    # first kind: the mirror statement
    for n in range(9):
        for x in range(n + 1):
            xe = const(x)
            rhs = const(0)
            for k in range(n + 1):
                rhs = rhs + stirling2_degen(n, k) * falling_factorial(xe, k)
            assert gen_falling(xe, n) == rhs
            rhs = const(0)
            for k in range(n + 1):
                rhs = rhs + stirling1_degen(n, k) * gen_falling(xe, k)
            assert falling_factorial(xe, n) == rhs


def test_truncated_gf_examples():
    for n in range(9):
        for k in range(n + 1):
            assert stirling2r_gf(n, k, 1) == stirling2_degen(n, k)
    assert stirling2r_gf(3, 1, 2) == (1 - LAM) * (1 - 2 * LAM)
    assert stirling2r_gf(4, 2, 2) == 3 * (1 - LAM) ** 2


def test_truncated_vanishing_region_from_the_series_itself():
    for r in (1, 2, 3):
        for k in range(5):
            for n in range(k * r):
                assert stirling2r_gf(n, k, r) == 0


def test_composition_route_examples():
    for k in (1, 2, 3):
        for r in (1, 2, 3):
            if k * r - 1 >= 0:
                assert stirling2r_composition(k * r - 1, k, r) == 0
    assert stirling2r_composition(4, 2, 2) == 3 * (1 - LAM) ** 2
    for n in range(9):
        for k in range(9):
            assert stirling2r_composition(n, k, 1) == stirling2_degen(n, k)


def test_binomial_route_examples():
    assert stirling2r_binomial(1, 1, 2) == 0
    assert stirling2r_binomial(4, 2, 2) == 3 * (1 - LAM) ** 2
    assert stirling2r_binomial(2, 1, 2) == 1 - LAM


def test_three_routes_agree():
    for r in (1, 2, 3):
        for k in range(4):
            for n in range(9):
                a = stirling2r_gf(n, k, r)
                assert a == stirling2r_composition(n, k, r)
                assert a == stirling2r_binomial(n, k, r)


def test_first_kind_truncated():
    for n in range(9):
        for k in range(n + 1):
            assert stirling1r_gf(n, k, 1) == stirling1_degen(n, k)
    assert stirling1r_gf(2, 1, 2) == LAM - 1
    assert stirling1r_gf(1, 1, 2) == 0
    for k in (1, 2):
        for n in range(2 * k):
            assert stirling1r_gf(n, k, 2) == 0


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


def _bell_ladder(xs):
    # the ladder that bell_partial_gf(len(xs), k, xs) climbs, keyed by the
    # coefficients of its series and their domain
    coeffs = (const(0),) + tuple(x / math.factorial(l) for l, x in enumerate(xs, 1))
    return bernoulli._bell_rungs(coeffs, SYMBOLIC)


def test_ladder_stops_growing_at_its_first_zero_rung():
    # the k-th power of a series of valuation v starts at t^(kv), so row n
    # reads zero from every rung with k*v > n and the ladder never grows it
    xs = [const(F(l, l + 1)) for l in range(1, 9)]
    bernoulli._bell_rungs.cache_clear()
    assert bell_partial_gf(8, 5000, xs) == 0
    assert len(_bell_ladder(xs)) == 2
    # with x_1 = 0 the valuation is 2, so row 8 climbs only to rung 4
    xs[0] = const(0)
    row = [bell_partial_gf(8, k, xs) for k in range(9)]
    assert row[5:] == [0] * 4 and row[4] != 0
    assert len(_bell_ladder(xs)) == 5


@pytest.mark.parametrize("lam", [None, F(-5, 3), F(0), F(7, 2)])
def test_recurrence_triangle_equals_the_block_power_ladder(lam):
    stirling._triangle.cache_clear()
    # the highest (n, k) first, then the rest in a scrambled order
    cells = [(n, k) for n in range(15) for k in range(15)]
    cells = cells[::-1][:1] + cells[::7] + cells[3::7] + cells[5::7] + cells
    for kind, entry in ((1, stirling1r_gf), (2, stirling2r_gf)):
        for r in (1, 2, 3, 4):
            # block^k as a running product, one product per power
            block = _block(kind, r, 16, lam)
            powers = [Series.one(16, lam)]
            for _ in range(14):
                powers.append(powers[-1].mul(block))
            for n, k in cells:
                ladder = powers[k].coeff(n) * F(math.factorial(n), math.factorial(k))
                assert entry(n, k, r, lam=lam) == ladder, (kind, r, n, k)


def test_an_entry_grows_only_the_columns_up_to_its_own():
    lam = F(2, 7)
    stirling._triangle.cache_clear()
    # S(n, 1) is the descending product (1)_{n,l} at r = 1
    assert stirling2r_gf(3000, 1, 1, lam=lam) == one_falling(3000, lam)
    tri = stirling._triangle(2, 1, lam)
    # S(3000, 1) reads column 0 only down to row 2999; column 1 starts at row 1
    assert [len(col) for col in tri.cols] == [3000, 3000]
    # k*r > n: zero, without a cache lookup or any growth
    info = stirling._triangle.cache_info()
    assert stirling2r_gf(8, 1500, 1, lam=lam) == 0
    assert stirling2r_gf(5, 3, 2, lam=lam) == 0
    assert stirling._triangle.cache_info() == info
    assert [len(col) for col in tri.cols] == [3000, 3000]


def test_a_deep_bernoulli_order_grows_only_a_band_of_each_column():
    # the quotient at precision 8 reads S(3000..3008, 1500), which reach
    # column j only down to row 2j + 8: 9 computed cells per column, where
    # filling every column to row 3008 would compute about 2.3 million.
    # Column j is stored from row 2j on, so its zero rows take no slots.
    lam, r = F(1, 3), 2
    stirling._triangle.cache_clear()
    trunc_degen_bernoulli(3, r, 1500, lam=lam)
    cols = stirling._triangle(2, r, lam).cols
    assert len(cols) == 1501
    for j, col in enumerate(cols):
        assert len(col) <= 9, j
    assert sum(len(col) for col in cols) < 10 * len(cols)


def test_entries_refuse_negative_indices_and_r_below_one():
    for n, k, r in ((-1, 0, 1), (3, -1, 1), (3, 1, 0)):
        with pytest.raises(ValueError):
            stirling2r_gf(n, k, r)
        with pytest.raises(ValueError):
            stirling1r_gf(n, k, r)


def test_triangle_makes_about_one_product_per_cell(monkeypatch):
    # measured: 156 products for the 153 cells; the ladder route makes 866
    n_max = 16
    stirling._triangle.cache_clear()
    mul = FieldElem.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElem, "__mul__", counted)
    monkeypatch.setattr(FieldElem, "__rmul__", counted)
    assert len(build_triangle("stirling2", n_max)) == 153
    assert len(calls) <= 156


def _threads_agree_with_one_thread(clear, work, check):
    expect = work()
    workers = (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            clear()
            barrier = threading.Barrier(workers)
            results = [None] * workers

            def run(i):
                barrier.wait(timeout=60)
                results[i] = work()

            threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [expect] * workers
            check()
    finally:
        sys.setswitchinterval(interval)


def test_threads_filling_one_cold_triangle_agree_with_one_thread():
    # without a guard on growth two threads append the same row
    def check():
        tri = stirling._triangle(2, 1, None)
        # column j holds rows j..16
        assert [len(col) for col in tri.cols] == [17 - j for j in range(17)]

    _threads_agree_with_one_thread(
        stirling._triangle.cache_clear,
        lambda: [stirling2r_gf(n, k, 1) for n in range(17) for k in range(n + 1)],
        check)


def test_threads_climbing_one_cold_ladder_agree_with_one_thread():
    # without a guard on growth two threads append the same rung
    xs = [const(F(l, l + 1)) for l in range(1, 17)]

    def check():
        assert len(_bell_ladder(xs)) == 17

    _threads_agree_with_one_thread(
        bernoulli._bell_rungs.cache_clear,
        lambda: [bell_partial_gf(16, k, xs) for k in range(17)],
        check)
