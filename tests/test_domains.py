"""Parameter domains: one per parameter value, a bounded number kept, each
keeping a bounded number of tables, and values that read the same after
their domain or their table was dropped."""

import gc
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import pytest

from degenstir import (
    as_elem,
    bell_partial,
    k_lambda,
    stirling1r_gf,
    stirling1_degen,
    stirling2_degen,
    stirling2r_gf,
    trunc_degen_bernoulli,
)
from degenstir import bernoulli, stirling
from degenstir.field import PINNED_KEPT, TABLES_KEPT, domain
from threads import threads_agree_with_one_thread


def test_one_domain_per_parameter_value():
    # an int and the Fractions equal to it name one domain, so one triangle
    assert domain(0) is domain(F(0)) is domain(F(0, 5))
    dom = domain(0)
    dom.memo.clear()
    assert stirling2r_gf(5, 2, 2, lam=0) == stirling2r_gf(5, 2, 2, lam=F(0))
    assert domain(F(0)) is dom
    assert list(dom.memo) == [("tri", 2, 2)]


def _sweep_one(lam):
    # both Stirling kinds for n <= 12 and a truncated Bernoulli row at x = 0, 1
    for n in range(13):
        for k in range(n + 1):
            stirling2_degen(n, k, lam)
            stirling1_degen(n, k, lam)
    for x in (0, 1):
        trunc_degen_bernoulli(12, 2, 2, x, lam)


def test_a_sweep_over_the_parameter_holds_bounded_memory():
    # 200 values l = +-2/(2q+1), q = 2..201, signs alternating.  Tracing
    # slows every allocation several-fold, so it is on for the last 50
    # values only.  A domain made before it started is freed untraced, so
    # the first reading waits until every kept domain was made under it.
    # Keeping every domain grows about 35 KB per value, 1.4 MB over the 40
    # values between the readings.
    lams = [F((-1) ** q * 2, 2 * q + 1) for q in range(2, 202)]
    for lam in lams[:150]:
        _sweep_one(lam)
    tracemalloc.start()
    try:
        for lam in lams[150:150 + PINNED_KEPT + 2]:
            _sweep_one(lam)
        settled = tracemalloc.get_traced_memory()[0]
        for lam in lams[150 + PINNED_KEPT + 2:]:
            _sweep_one(lam)
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert end - settled <= 250_000, (settled, end)


def test_many_sequences_at_one_parameter_hold_bounded_memory():
    # 1,000 distinct sequences at one pinned l, each read by both Bell routes
    # and both reciprocal routes; the domain keeps nothing of either, so
    # memory settles once tracing has seen a few sequences.  A full
    # collection empties the interpreter's free lists, which fill over the
    # first few hundred sequences.
    lam = F(-2, 9)
    dom = domain(lam)
    seqs = [[F(q, l + 1) - l for l in range(8)] for q in range(1, 1001)]
    tracemalloc.start()
    try:
        for i, xs in enumerate(seqs):
            bell_partial(8, 3, xs, lam)
            k_lambda(8, xs, lam)
            if i == 99:
                gc.collect()
                settled = tracemalloc.get_traced_memory()[0]
        gc.collect()
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not dom.memo
    assert end - settled <= 50_000, (settled, end)


def test_many_x_at_one_parameter_hold_bounded_memory():
    # 1,000 distinct x at one pinned l, one truncated value each; the domain
    # keeps the last TABLES_KEPT tables made only, where keeping every row
    # grows about 3.5 KB per x, 3.1 MB over the 900 x between the readings
    lam = F(1, 3)
    dom = domain(lam)
    dom.memo.clear()
    tracemalloc.start()
    try:
        for q in range(1, 1001):
            trunc_degen_bernoulli(12, 2, 2, F(1, q), lam)
            if q == 100:
                gc.collect()
                settled = tracemalloc.get_traced_memory()[0]
        gc.collect()
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dom.memo) == TABLES_KEPT
    assert ("row", 2, 2, F(1, 1000)) in dom.memo
    assert end - settled <= 100_000, (settled, end)


def _growth(steps, read, lam):
    # the memory a loop of reads at one pinned l holds at its last step more
    # than at step 100, and the tables its domain then keeps.  Tracing starts
    # at step 100, so what was made before it counts for nothing.
    dom = domain(lam)
    dom.memo.clear()
    try:
        for step in range(1, steps + 1):
            read(step)
            if step == 100:
                gc.collect()
                tracemalloc.start()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return grown, len(dom.memo)


def test_a_sweep_over_the_depth_holds_bounded_memory():
    # one triangle per r = 1..1,000: keeping every triangle grows 9.7 MB
    # between r = 100 and r = 1,000, keeping the last TABLES_KEPT about 77 KB
    lam = F(1, 3)
    grown, kept = _growth(1000, lambda r: stirling2r_gf(2 * r + 3, 2, r, lam), lam)
    assert kept <= TABLES_KEPT
    assert grown <= 500_000, grown


def test_a_sweep_over_the_order_holds_bounded_memory():
    # one x = 0 row per alpha = 1..400, all reading the one r = 2 triangle,
    # whose band spans columns 0..alpha: keeping every row grows 1.6 MB
    # between alpha = 100 and alpha = 400, keeping TABLES_KEPT tables about
    # 0.55 MB, mostly the triangle's columns, whose cells have more digits
    # as alpha grows
    lam = F(1, 3)
    grown, kept = _growth(400, lambda alpha: trunc_degen_bernoulli(2, 2, alpha, 0, lam), lam)
    assert kept <= TABLES_KEPT
    assert grown <= 1_000_000, grown


def _made(monkeypatch):
    # the number of times each table was made, by key
    made = Counter()

    def counted(module, name, key):
        make = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: made.update([key(*args)]) or make(*args))

    counted(bernoulli, "_Row", lambda n, r, alpha, x, dom, den=None: ("row", r, alpha, x))
    counted(stirling, "_Triangle", lambda kind, r, dom: ("tri", kind, r))
    return made


@pytest.mark.parametrize("lam, read, steps, tables", [
    # 1,000 x rows, each reading the x = 0 row as it is made, which read the
    # triangle as it grew
    (F(1, 3), lambda q: trunc_degen_bernoulli(12, 2, 2, F(1, q), F(1, 3)), 1000, 1002),
    # 400 x = 0 rows, each growing the r = 2 triangle by a column
    (F(2, 5), lambda alpha: trunc_degen_bernoulli(2, 2, alpha, 0, F(2, 5)), 400, 401),
], ids=["x", "alpha"])
def test_a_table_that_newer_tables_read_is_made_once(monkeypatch, lam, read, steps, tables):
    # past TABLES_KEPT the table dropped is the one least recently made,
    # grown or read by a table being made, so a table the loop keeps
    # reading is never dropped and made again
    dom = domain(lam)
    dom.memo.clear()
    made = _made(monkeypatch)
    for step in range(1, steps + 1):
        read(step)
    assert made[("tri", 2, 2)] == 1 and set(made.values()) == {1}, made.most_common(2)
    assert len(made) == tables and len(dom.memo) == TABLES_KEPT


def _values(lam, x):
    # Stirling cells of both kinds, truncated Bernoulli values at 0 and x,
    # and the Bell and reciprocal-series polynomials of one sequence
    xs = [F(l - 3, l + 1) for l in range(1, 9)]
    return ([entry(n, k, r, lam) for entry in (stirling1r_gf, stirling2r_gf)
             for r in (1, 2) for n in range(9) for k in range(n // r + 1)],
            [trunc_degen_bernoulli(n, 2, 2, v, lam) for v in (0, x) for n in range(9)],
            [bell_partial(n, k, xs, lam) for n in range(8) for k in range(n + 1)],
            [k_lambda(n, xs, lam) for n in range(8)])


def test_a_dropped_domain_reads_the_same_values_again():
    lam = F(-2, 5)
    first = domain(lam)
    half = as_elem(F(1, 2), lam)
    before = _values(lam, half)
    for q in range(2 * PINNED_KEPT):
        stirling2r_gf(6, 2, 2, lam=F(3, q + 7))
    # the first domain was dropped and a fresh one answers
    again = domain(lam)
    assert again is not first and again.memo == {}
    assert _values(lam, half) == before
    assert again.memo[("tri", 2, 2)] is not first.memo[("tri", 2, 2)]
    # an element pinned before the drop still combines with new results
    value = stirling2r_gf(7, 3, 2, lam)
    assert (half + value) - value == half and (half * value).lam == lam
    assert trunc_degen_bernoulli(4, 2, 2, half, lam) == before[1][9 + 4]


def _tables(lam, count):
    # values read off count + 5 tables of one domain: the rows at count
    # values x != 0, their x = 0 row and r = 2 triangle, then the triangles
    # of both kinds at r = 1, 2 read cell by cell
    xs = [as_elem(F(1, q), lam) for q in range(1, count + 1)]
    return ([trunc_degen_bernoulli(n, 2, 2, x, lam) for x in xs for n in range(5)],
            [entry(n, k, r, lam) for entry in (stirling1r_gf, stirling2r_gf)
             for r in (1, 2) for n in range(9) for k in range(n // r + 1)])


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_a_dropped_table_reads_the_same_values_again(lam):
    # a triangle and rows of both kinds read, then dropped by TABLES_KEPT
    # newer tables, then made afresh: every value reads as before
    dom = domain(lam)
    dom.memo.clear()
    half = as_elem(F(1, 2), lam)
    before = _values(lam, half)
    first = dict(dom.memo)
    assert ("tri", 2, 2) in first and ("row", 2, 2, dom.unwrap(half)) in first
    for r in range(3, 3 + TABLES_KEPT):
        stirling2r_gf(r, 1, r, lam)
    assert len(dom.memo) == TABLES_KEPT and not set(first) & set(dom.memo)
    assert _values(lam, half) == before
    assert set(first) <= set(dom.memo)
    assert all(dom.memo[key] is not table for key, table in first.items())


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_threads_reading_more_tables_than_are_kept_agree_with_one_thread(lam):
    # each thread reads TABLES_KEPT + 5 tables, so the tables it reads are
    # dropped by the ones it and the others make, and made again
    dom = domain(lam)

    def check():
        assert len(dom.memo) == TABLES_KEPT

    threads_agree_with_one_thread(
        dom.memo.clear, lambda: _tables(lam, TABLES_KEPT), check)
