"""Parameter domains: one per parameter value, a bounded number kept, and
values that read the same after their domain was dropped."""

import gc
import tracemalloc
from fractions import Fraction as F

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
from degenstir import stirling
from degenstir.bernoulli import X_ROWS_KEPT
from degenstir.field import PINNED_KEPT, domain


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
    # keeps the rows of the last X_ROWS_KEPT x only, where keeping every row
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
    x_rows = [key for key in dom.memo if key[0] == "row" and key[3]]
    assert x_rows == [("row", 2, 2, F(1, q)) for q in range(1001 - X_ROWS_KEPT, 1001)]
    assert ("row", 2, 2, 0) in dom.memo
    assert end - settled <= 100_000, (settled, end)


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
    assert stirling._triangle(2, 2, again) is not stirling._triangle(2, 2, first)
    # an element pinned before the drop still combines with new results
    value = stirling2r_gf(7, 3, 2, lam)
    assert (half + value) - value == half and (half * value).lam == lam
    assert trunc_degen_bernoulli(4, 2, 2, half, lam) == before[1][9 + 4]
