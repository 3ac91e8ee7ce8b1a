"""Stirling triangles: both kinds, truncation, and the three-route check."""

import itertools
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstir import (
    FieldElem,
    LambdaPoly,
    Series,
    bell_partial,
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
    stirling2r_gf,
    trunc_degen_bernoulli,
)
from degenstir import bernoulli, stirling
from degenstir.field import SYMBOLIC, domain, table
from degenstir.stirling import stirling_entry
from oracles import block, classic_stirling1, classic_stirling2
from test_acceptance import stirling2r_composition
from threads import threads_agree_with_one_thread


def _triangle(kind, r, dom):
    # the domain's triangle of the kind and r, made if it is cold
    return table(dom, ("tri", kind, r), stirling._Triangle, kind, r, dom)


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


def test_bell_cells_past_the_diagonal_read_no_triangle(monkeypatch):
    # B(n, k) = 0 for k > n, so row 8 at k = 5000 builds no column
    def refuse(*args):
        raise AssertionError("a triangle was built")

    xs = [const(F(l, l + 1)) for l in range(1, 9)]
    with monkeypatch.context() as patched:
        patched.setattr(bernoulli, "_bell_columns", refuse)
        assert bell_partial(8, 5000, xs) == 0
    assert bell_partial(8, 8, xs) == xs[0] ** 8
    # with x_1 = 0 every B(8, k) with 2k > 8 vanishes
    xs[0] = const(0)
    row = [bell_partial(8, k, xs) for k in range(9)]
    assert row[5:] == [0] * 4 and row[4] != 0


@pytest.mark.parametrize("lam", [None, F(-5, 3), F(0), F(7, 2)])
def test_recurrence_triangle_equals_the_block_power_ladder(lam):
    domain(lam).memo.clear()
    # the highest (n, k) first, then the rest in a scrambled order
    cells = [(n, k) for n in range(15) for k in range(15)]
    cells = cells[::-1][:1] + cells[::7] + cells[3::7] + cells[5::7] + cells
    for kind, entry in ((1, stirling1r_gf), (2, stirling2r_gf)):
        for r in (1, 2, 3, 4):
            # block^k as a running product, one product per power
            base = block(kind, r, 16, lam)
            powers = [Series.one(16, lam)]
            for _ in range(14):
                powers.append(powers[-1].mul(base))
            for n, k in cells:
                ladder = powers[k].coeff(n) * F(math.factorial(n), math.factorial(k))
                assert entry(n, k, r, lam=lam) == ladder, (kind, r, n, k)


def test_an_entry_grows_only_the_columns_up_to_its_own():
    lam = F(2, 7)
    dom = domain(lam)
    dom.memo.clear()
    # S(n, 1) is the descending product (1)_{n,l} at r = 1
    assert stirling2r_gf(3000, 1, 1, lam=lam) == one_falling(3000, lam)
    tri = _triangle(2, 1, dom)
    # S(3000, 1) reads column 0 only down to row 2999; column 1 starts at row 1
    assert [len(col) for col in tri.cols] == [3000, 3000]
    # k*r > n: zero, without a new triangle or any growth
    memo = dict(dom.memo)
    assert stirling2r_gf(8, 1500, 1, lam=lam) == 0
    assert stirling2r_gf(5, 3, 2, lam=lam) == 0
    assert dom.memo == memo
    assert [len(col) for col in tri.cols] == [3000, 3000]


def test_a_deep_bernoulli_order_grows_only_a_band_of_each_column():
    # the value n = 3 reads S(3000..3003, 1500), which reach column j only
    # down to row 2j + 3: 4 computed cells per column, where filling every
    # column to row 3003 would compute about 2.3 million.  Column j is
    # stored from row 2j on, so its zero rows take no slots.
    lam, r = F(1, 3), 2
    domain(lam).memo.clear()
    trunc_degen_bernoulli(3, r, 1500, lam=lam)
    cols = _triangle(2, r, domain(lam)).cols
    assert len(cols) == 1501
    for j, col in enumerate(cols):
        assert len(col) <= 4, j
    assert sum(len(col) for col in cols) <= 4 * len(cols)


def test_entries_refuse_negative_indices_and_r_below_one():
    for n, k, r in ((-1, 0, 1), (3, -1, 1), (3, 1, 0)):
        with pytest.raises(ValueError):
            stirling2r_gf(n, k, r)
        with pytest.raises(ValueError):
            stirling1r_gf(n, k, r)
    # a kind other than 1 or 2 is refused before any triangle is made
    memos = {lam: dict(domain(lam).memo) for lam in (None, F(2, 7))}
    for kind in (0, 3):
        for lam in (None, F(2, 7)):
            with pytest.raises(ValueError, match="kind"):
                stirling_entry(kind, 5, 2, 1, domain(lam))
    assert {lam: domain(lam).memo for lam in memos} == memos


@pytest.mark.parametrize("lam", [None, F(2, 7)])
@pytest.mark.parametrize("n_max, k_max, r", [(4, None, 0), (4, None, -1), (4, 2, 0),
                                              (-1, None, 2), (4, -1, 2)])
def test_tables_refuse_what_the_entries_refuse_before_any_triangle(lam, n_max, k_max, r):
    # r < 1 or a negative bound raises the entries' ValueError when the table
    # is asked for, not a ZeroDivisionError or an IndexError mid-output, and
    # puts no triangle in the domain's tables
    memo = dict(domain(lam).memo)
    for family in ("stirling2r", "stirling1r"):
        with pytest.raises(ValueError, match="r >= 1"):
            build_triangle(family, n_max, k_max, r, lam)
        with pytest.raises(ValueError, match="r >= 1"):
            stirling.table_text(family, n_max, k_max, r, lam)
    assert domain(lam).memo == memo


@pytest.mark.parametrize("lam", [None, F(2, 7)])
@pytest.mark.parametrize("args", [("stirling2", 80), ("stirling1r", 80, 26, 3)])
def test_a_table_holds_about_r_rows_and_leaves_the_domain_as_it_found_it(lam, args):
    # a table fills a triangle of its own and drops each row its next fill
    # no longer reads: symbolic, keeping the whole triangle in the domain
    # traced 6.2 MB and 3.5 MB here, holding about r rows 0.61 and 0.66 MB
    dom = domain(lam)
    memo = list(dom.memo.items())
    tracemalloc.start()
    try:
        rows = sum(1 for _ in stirling.table_text(*args, lam=lam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == (81 * 82 // 2 if len(args) == 2 else 81 * 27)
    assert peak < 1.5e6
    assert list(dom.memo.items()) == memo


@pytest.mark.parametrize("lam", [None, F(2, 7)])
def test_triangle_makes_about_one_product_per_cell(monkeypatch, lam):
    # measured for the 153 cells: 136 products of coefficient tuples in
    # either mode, one per cell below the top of its column, each fused with
    # its sum (int_add_mul); the ladder route makes 866
    n_max = 16
    domain(lam).memo.clear()
    calls = []
    for name in ("int_mul", "int_add_mul"):
        def counted(*args, product=getattr(stirling, name)):
            calls.append(1)
            return product(*args)

        monkeypatch.setattr(stirling, name, counted)
    assert len(build_triangle("stirling2", n_max, lam=lam)) == 153
    assert len(calls) <= 156


def test_a_table_looks_up_its_domain_once(monkeypatch):
    # the table fills its triangle once and reads every cell on that domain
    calls = []
    lookup = stirling.domain

    def counted(*args):
        calls.append(1)
        return lookup(*args)

    monkeypatch.setattr(stirling, "domain", counted)
    lam = F(-2, 7)
    rows = build_triangle("stirling2r", 20, 6, 3, lam=lam)
    assert len(rows) == 21 * 7 and len(calls) == 1
    assert [v for _, _, v in rows] == [stirling2r_gf(n, k, 3, lam) for n in range(21)
                                       for k in range(7)]


def test_a_cold_pinned_triangle_makes_no_fraction_arithmetic(monkeypatch):
    # the pinned cells are filled on ints, as the symbolic ones are, so a
    # fill makes no Fraction product or sum
    lam = F(2, 7)
    inside, calls = [], []
    fill = stirling._Triangle.fill

    def recorded(tri, n, k):
        inside.append(1)
        try:
            return fill(tri, n, k)
        finally:
            inside.pop()

    monkeypatch.setattr(stirling._Triangle, "fill", recorded)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(x, y, op=getattr(F, name)):
            if inside:
                calls.append(1)
            return op(x, y)

        monkeypatch.setattr(F, name, counted)
    domain(lam).memo.clear()
    assert len(build_triangle("stirling2", 40, lam=lam)) == 861
    assert len(build_triangle("stirling1r", 40, 13, 3, lam=lam)) == 41 * 14
    assert calls == []


def test_a_table_in_row_order_walks_no_column_long_enough_already():
    # every column step reads that column's next factor once; walking the
    # columns 0..k on every miss takes C(43, 3) = 12,341 steps here
    lam = F(1, 3)
    dom = domain(lam)
    dom.memo.clear()
    steps = []

    class Factors(list):
        def __getitem__(self, j):
            steps.append(j)
            return list.__getitem__(self, j)

    _triangle(2, 1, dom).factors = Factors()
    assert len(build_triangle("stirling2", 40, lam=lam)) == 861
    assert sum(map(len, _triangle(2, 1, dom).cols)) == 861
    assert len(steps) <= 861


def test_a_cold_symbolic_triangle_makes_no_polynomial_product(monkeypatch):
    # the symbolic cells are filled on int tuples; a cell becomes an element
    # only when it is read, and wrapping multiplies nothing
    SYMBOLIC.memo.clear()
    calls = []
    mul = LambdaPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LambdaPoly, "__mul__", counted)
    monkeypatch.setattr(LambdaPoly, "__rmul__", counted)
    assert len(build_triangle("stirling1r", 16, 8, 2)) == 17 * 9
    assert calls == []


@st.composite
def _cells(draw):
    kind, r = draw(st.sampled_from((1, 2))), draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    return kind, n, draw(st.integers(0, n // r)), r


# S_2(2, 1) = 1 - l and S_2(3, 2) = 3 - 3l have negative leading
# coefficients, the contents -1 and -3; S_1r(7, 2) at r = 3 has content 35
# and coefficients of both signs
_CONTENT_EXAMPLES = {(2, 2, 1, 1): -1, (2, 3, 2, 1): -3, (1, 7, 2, 3): 35}


def test_the_wrap_examples_have_a_content_other_than_one():
    for (kind, n, k, r), content in _CONTENT_EXAMPLES.items():
        assert stirling_entry(kind, n, k, r, SYMBOLIC).num.content == content


@settings(max_examples=60, deadline=None)
@given(_cells(), st.fractions(-3, 3, max_denominator=5))
@example((2, 2, 1, 1), F(1, 2))
@example((2, 3, 2, 1), F(2, 7))
@example((1, 7, 2, 3), F(-5, 3))
def test_a_wrapped_cell_is_the_canonical_element_of_its_coefficients(cell, lam0):
    kind, n, k, r = cell
    value = stirling_entry(kind, n, k, r, SYMBOLIC)
    coeffs = _triangle(kind, r, SYMBOLIC).cols[k][n - k * r]
    # the canonical form, checked on its definition: content times a
    # primitive tuple with gcd 1 and a positive leading coefficient
    assert value.num.coeffs == coeffs and value.den.is_one
    assert not coeffs or (value.num.prim[-1] > 0 and math.gcd(*value.num.prim) == 1)
    expect = FieldElem.from_polys(LambdaPoly(coeffs))
    assert (value.num.content, value.num.prim, value.den) == \
        (expect.num.content, expect.num.prim, expect.den)
    assert value == expect and hash(value) == hash(expect)
    # a second read returns the kept element
    assert stirling_entry(kind, n, k, r, SYMBOLIC) is value
    # pinned at l = p/q the cell is the scaled integer T = q^(n-k) S(n, k),
    # and its first read keeps the reduced Fraction T / q^(n-k)
    pinned = domain(lam0)
    kept = stirling_entry(kind, n, k, r, pinned)
    cell = _triangle(kind, r, pinned).cols[k][n - k * r]
    (scaled,) = cell or (0,)
    assert type(kept) is F and kept == F(scaled, lam0.denominator ** (n - k))
    assert stirling_entry(kind, n, k, r, pinned) is kept
    assert value.instantiate(lam0) == kept


def _at(coeffs, lam0):
    # the integer polynomial of an int coefficient tuple, at l = lam0
    return sum(c * lam0 ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("lam0", [F(0), F(1, 2), F(1), F(-2, 7), F(5, 3)])
@pytest.mark.parametrize("kind", [1, 2])
def test_a_pinned_triangle_is_the_symbolic_triangle_at_its_lambda(kind, lam0):
    # pinned at l = p/q, c is q^(r-1) times the symbolic c at l, stored as
    # () where it vanishes (the second kind at l = 1/2 from r = 3 on, both
    # kinds at l = 1 from r = 2 on), and every scaled cell T(m, j) is
    # q^(m-j) times the symbolic cell at l
    q, n_max = lam0.denominator, 14
    for r in range(1, 7):
        symbolic, pinned = (stirling._Triangle(kind, r, dom) for dom in (SYMBOLIC, domain(lam0)))
        c = _at(symbolic.c, lam0) * q ** (r - 1)
        assert c.denominator == 1 and pinned.c == ((c,) if c else ()), r
        for tri in (symbolic, pinned):
            tri.fill(n_max, n_max // r, True)
        assert list(map(len, pinned.cols)) == list(map(len, symbolic.cols))
        for j, (col, want) in enumerate(zip(pinned.cols, symbolic.cols)):
            for i, (cell, coeffs) in enumerate(zip(col, want)):
                value = _at(coeffs, lam0) * q ** (j * r + i - j)
                assert value.denominator == 1 and cell == ((value,) if value else ()), (r, j, i)
    if (kind, lam0) == (2, F(1, 2)):
        assert stirling._Triangle(2, 3, domain(lam0)).c == ()


def test_a_deep_pinned_triangle_makes_its_c_with_no_tuple_product(monkeypatch):
    # pinned, c = (a - b)(a - 2b)...(a - (r-1)b) is one int product, where a
    # loop of r - 1 tuple products and sums made each triangle cost O(r)
    # before its first cell; the symbolic c keeps that loop
    calls = []
    product = stirling.int_mul
    monkeypatch.setattr(stirling, "int_mul", lambda x, y: calls.append(1) or product(x, y))
    lam = domain(F(1, 3))
    # second kind: (3 - 1)(3 - 2)(3 - 3)... vanishes; first kind: (1 - 3)(1 - 6)...
    assert stirling._Triangle(2, 1000, lam).c == ()
    assert stirling._Triangle(1, 1000, lam).c == (math.prod(1 - 3 * i for i in range(1, 1000)),)
    assert calls == []
    stirling._Triangle(2, 5, SYMBOLIC)
    assert len(calls) == 4


def test_threads_filling_one_cold_triangle_agree_with_one_thread(monkeypatch):
    # without a guard on growth two threads append the same row, and without
    # one stored triangle per key they fill triangles of their own
    filled = []
    fill = stirling._Triangle.fill

    def recorded(tri, n, k):
        filled.append(tri)
        return fill(tri, n, k)

    monkeypatch.setattr(stirling._Triangle, "fill", recorded)

    def clear():
        SYMBOLIC.memo.clear()
        filled.clear()

    def check():
        tri = _triangle(2, 1, SYMBOLIC)
        # column j holds rows j..16
        assert [len(col) for col in tri.cols] == [17 - j for j in range(17)]
        assert filled and all(t is tri for t in filled)

    threads_agree_with_one_thread(
        clear,
        lambda: [stirling2r_gf(n, k, 1) for n in range(17) for k in range(n + 1)],
        check)


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_threads_making_the_first_reads_of_a_triangle_agree_with_one_thread(lam):
    # a filled triangle none of whose cells was read: the threads race to
    # wrap each cell, and every racer must get, and leave, the canonical value
    kind, r, n_max = 1, 3, 24
    dom = domain(lam)
    made = []

    def filled_and_unread():
        dom.memo.clear()
        tri = _triangle(kind, r, dom)
        made[:] = [tri]
        with dom.lock:
            for k in range(n_max // r + 1):
                tri.fill(n_max, k)

    def check():
        tri = _triangle(kind, r, dom)
        assert tri is made[0]
        assert [len(col) for col in tri.cols] == [n_max - j * r + 1 for j in range(n_max // r + 1)]
        assert len(tri.values) == sum(len(col) for col in tri.cols)
        for (j, i), value in tri.values.items():
            cell = tri.cols[j][i]
            if lam is None:
                assert value == FieldElem.from_polys(LambdaPoly(cell))
            else:
                # cell (j*r + i, j) scaled by q^(j*r + i - j)
                (scaled,) = cell or (0,)
                assert value == F(scaled, lam.denominator ** (j * (r - 1) + i))

    threads_agree_with_one_thread(
        filled_and_unread,
        lambda: [stirling_entry(kind, n, k, r, dom)
                 for n in range(n_max + 1) for k in range(n // r + 1)],
        check)


@pytest.mark.parametrize("lam", [None, F(2, 7)])
def test_threads_reading_table_rows_agree_with_threads_reading_entries(lam):
    # a table takes no lock and shares no triangle: its rows are read in
    # every other thread while the rest grow the domain's triangle of the
    # same kind and r, entry by entry, and every thread gets the same text
    dom = domain(lam)
    turns = itertools.count()

    def work():
        if next(turns) % 2:
            return [(n, m, str(v)) for n, m, v in build_triangle("stirling1r", 24, 8, 2, lam)]
        return list(stirling.table_text("stirling1r", 24, 8, 2, lam))

    def check():
        assert list(dom.memo) == [("tri", 1, 2)]

    threads_agree_with_one_thread(dom.memo.clear, work, check)


def test_threads_reading_bell_cells_agree_with_one_thread():
    # each call builds its own triangle and the domain keeps none, so threads
    # reading the cells of one sequence share nothing
    xs = [const(F(l, l + 1)) for l in range(1, 17)]

    def check():
        assert "bell" not in SYMBOLIC.memo

    threads_agree_with_one_thread(
        SYMBOLIC.memo.clear,
        lambda: ([bell_partial(16, k, xs) for k in range(17)]
                 + bernoulli.bell_rows(16, 16, xs)),
        check)
