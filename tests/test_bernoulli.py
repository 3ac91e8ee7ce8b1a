"""Bernoulli values (plain, higher order, truncated), Bell polynomials,
and the reciprocal-series polynomials."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstir import (
    InputTooShort,
    Series,
    as_elem,
    bell_partial,
    bell_partial_enum,
    const,
    degen_bernoulli,
    degen_exp,
    gen_falling,
    k_lambda,
    lam_elem,
    one_falling,
    stirling2_degen,
    stirling2r_gf,
    trunc_degen_bernoulli,
)
from degenstir import bernoulli, cli, field, identities, series
from degenstir.field import domain
from oracles import (
    bell_enum,
    bell_power,
    bernoulli_numbers,
    bernoulli_values,
    block,
    classic_stirling2,
    k_lambda_series,
    partitions_exact,
    t_power,
)
from threads import threads_agree_with_one_thread

LAM = lam_elem()


def test_plain_values():
    assert degen_bernoulli(0, 1, 0) == 1
    assert degen_bernoulli(1, 1, 0) == (LAM - 1) / 2
    for n in range(5):
        assert degen_bernoulli(n, 0, 0) == (1 if n == 0 else 0)


def test_classical_limit_against_reciprocal_series_oracle():
    oracle = bernoulli_numbers(10)
    for n in range(11):
        assert degen_bernoulli(n, 1, 0, lam=F(0)) == oracle[n]
    assert degen_bernoulli(2, 1, 0, lam=F(0)) == F(1, 6)


def test_polynomial_argument():
    # first-order polynomial: x - (1-s)/2 at any sample
    for x in (0, 1, F(7, 3)):
        assert degen_bernoulli(1, 1, x) == const(x) - (1 - LAM) / 2


def test_truncated_base_cases():
    for r in (1, 2, 3):
        assert trunc_degen_bernoulli(0, r, 1, 0) == \
            math.factorial(r) / one_falling(r)
    assert trunc_degen_bernoulli(1, 2, 1, 0) == \
        (2 / (1 - LAM)) * (-(1 - 2 * LAM) / 3)


def test_truncation_depth_one_reduces_to_plain():
    for alpha in (1, 2, 3):
        for n in range(7):
            assert trunc_degen_bernoulli(n, 1, alpha, 0) == \
                degen_bernoulli(n, alpha, 0)
    for x in (1, F(1, 2)):
        for n in range(5):
            assert trunc_degen_bernoulli(n, 1, 1, x) == degen_bernoulli(n, 1, x)


def _one_division_series(r, alpha, x, precision, lam):
    # t^(alpha r) / block^alpha built at precision + alpha r, where the
    # division leaves the requested precision
    p = precision + alpha * r
    q = t_power(alpha * r, p, lam).div(block(2, r, p, lam).pow(alpha))
    if not x.is_zero:
        q = q.mul(degen_exp(x, precision, lam))
    return q


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_triangle_quotient_equals_the_one_division_form(lam):
    domain(lam).memo.clear()
    for r in (1, 2, 3):
        for alpha in (3, 1, 2):
            for x in (as_elem(0, lam), as_elem(F(1, 2), lam)):
                want = _one_division_series(r, alpha, x, 12, lam)
                # one value far down the row first, then the row from its start
                for n in (7,) + tuple(range(13)):
                    assert trunc_degen_bernoulli(n, r, alpha, x, lam) == \
                        want.coeff(n) * math.factorial(n), (r, alpha, str(x), n)


_X = st.fractions(-3, 3, max_denominator=4)


def _unit_power(r, alpha, dom):
    # E^alpha, E = (1 - l)(1 - 2l)...(1 - (r-1)l), multiplied out here
    e = dom.one
    for i in range(1, r):
        e = e * (dom.one - i * dom.lam)
    return e ** alpha


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 12), _X)
@example(3, 2, 3, F(0))
def test_numerators_over_e_alpha_are_polynomials_of_degree_at_most_n(r, alpha, n, x):
    dom = domain(None)
    xv = dom.unwrap(x)
    num = bernoulli_values(n, r, alpha, xv, dom)[n] * _unit_power(r, alpha, dom)
    assert num.den.is_one and num.num.degree <= n, (r, alpha, n, x, str(num))
    assert bernoulli.numerator_row(n, r, alpha, xv, dom).nums[n] == num


def test_a_reduced_denominator_can_be_a_proper_divisor_of_e_alpha():
    # at r = 3, alpha = 2, n = 3 the value's numerator over E^2 shares a
    # factor with it: the reduced denominator has degree 3, not 4
    value = trunc_degen_bernoulli(3, 3, 2)
    assert value.den.degree == 3
    assert value * _unit_power(3, 2, domain(None)) == \
        bernoulli.numerator_row(3, 3, 2, const(0), domain(None)).nums[3]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([None, F(-5, 3), F(2, 7)]), st.integers(1, 4), st.integers(0, 3), _X)
@example(None, 3, 2, F(0))
@example(F(2, 7), 3, 2, F(1, 2))
def test_rows_agree_with_the_value_recurrence_in_value_and_hash(lam, r, alpha, x):
    dom = domain(lam)
    xv = dom.unwrap(const(x, lam))
    want = bernoulli_values(10, r, alpha, xv, dom)
    got = [trunc_degen_bernoulli(n, r, alpha, x, lam) for n in range(11)]
    assert got == [dom.wrap(v) for v in want]
    assert [hash(v) for v in got] == [hash(dom.wrap(v)) for v in want]
    den = _unit_power(r, alpha, dom)
    assert bernoulli.numerator_row(10, r, alpha, xv, dom).nums[:11] == [den * v for v in want]


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_rows_divide_no_series(monkeypatch, lam):
    quotient = series.quotient
    calls = []

    def counted(*args):
        calls.append(1)
        return quotient(*args)

    monkeypatch.setattr(series, "quotient", counted)
    monkeypatch.setattr(bernoulli, "quotient", counted)
    domain(lam).memo.clear()
    for x in (0, F(1, 2)):
        for n in range(13):
            trunc_degen_bernoulli(n, 2, 3, x, lam)
    assert calls == []


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
@pytest.mark.parametrize("x", [0, F(1, 2)])
def test_threads_growing_one_cold_row_agree_with_one_thread(monkeypatch, lam, x):
    # without a guard on growth two threads append the same value, and
    # without one stored row per key they grow rows of their own
    dom = domain(lam)
    grown = []

    def recorder(grow):
        def recorded(row, *args):
            grown.append(row)
            return grow(row, *args)
        return recorded

    for name in ("_appell", "_reciprocal"):
        monkeypatch.setattr(bernoulli, name, recorder(getattr(bernoulli, name)))

    def check():
        row = dom.memo[("row", 2, 2, dom.unwrap(x))]
        assert len(row.nums) == 13
        base = dom.memo[("row", 2, 2, dom.zero)]
        if x:
            assert len(row.prods) == 13
            assert len(base.nums) == 13
        assert grown and all(g is row or g is base for g in grown)

    def clear():
        dom.memo.clear()
        grown.clear()

    threads_agree_with_one_thread(
        clear, lambda: [trunc_degen_bernoulli(n, 2, 2, x, lam) for n in range(13)], check)


@pytest.mark.parametrize("lam", [None, "-2/5"])
def test_a_cold_table_grows_every_table_under_its_own_domains_lock(monkeypatch, capsys, lam):
    # the x = 1/2 row and its x = 0 row grow in one block under the one
    # reentrant lock of the table's domain, and the Stirling column that the
    # x = 0 row reads fills inside it; no other domain's lock is taken
    doms = {"symbolic": domain(), "-2/5": domain(F(-2, 5)), "1/3": domain(F(1, 3))}
    assert len({id(dom.lock) for dom in doms.values()}) == len(doms)
    depths, taken = [], []

    class Recorder:
        def __init__(self, name, lock):
            self.name, self.lock, self.depth = name, lock, 0

        def __enter__(self):
            self.lock.acquire()
            self.depth += 1
            taken.append(self.name)
            depths.append(self.depth)

        def __exit__(self, *exc):
            self.depth -= 1
            self.lock.release()

    for name, dom in doms.items():
        monkeypatch.setattr(dom, "lock", Recorder(name, dom.lock))
    own = "symbolic" if lam is None else lam
    doms[own].memo.clear()
    argv = ["table", "trunc-bernoulli", "--n-max", "10", "--r", "2", "--alpha", "3", "--x", "1/2"]
    assert cli.main(argv + ([] if lam is None else ["--lambda=" + lam])) == 0
    capsys.readouterr()
    assert set(taken) == {own}
    # the rows' block and the Stirling column inside it
    assert max(depths) == 2


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_a_cold_row_at_x_reads_no_table_while_a_row_is_made(monkeypatch, lam):
    # a row at x != 0 is given the denominator of its x = 0 row, which
    # numerator_row reads first: no row reads a table while it is made
    dom = domain(lam)
    dom.memo.clear()
    x = dom.unwrap(const(F(1, 2), lam))
    warm = bernoulli.numerator_row(6, 2, 2, x, dom)
    want = warm.nums[6] / warm.den
    dom.memo.clear()
    table, row = bernoulli.table, bernoulli._Row
    making, made, nested = [], [], []

    def read(*args):
        if making:
            nested.append(args[1])
        return table(*args)

    def make(*args):
        made.append(args[3])
        making.append(args[3])
        try:
            return row(*args)
        finally:
            making.pop()

    monkeypatch.setattr(bernoulli, "table", read)
    monkeypatch.setattr(bernoulli, "_Row", make)
    cold = bernoulli.numerator_row(6, 2, 2, x, dom)
    assert cold.nums[6] / cold.den == want
    assert made == [0, x] and nested == []


@pytest.mark.parametrize("lam", [None, F(1, 3)])
def test_a_warm_read_of_the_plain_numbers_hashes_no_fraction(monkeypatch, lam):
    # the x = 0 row is keyed by the int 0, so the reads of the plain numbers
    # that the verifiers make hash no Fraction, nor an element whose hash is
    # its constant's
    dom = domain(lam)
    dom.memo.clear()
    want = [bernoulli.numerator_row(n, 1, 2, 0, dom).nums[n] for n in range(13)]
    hashes = []
    fraction_hash = F.__hash__

    def counted(self):
        hashes.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(F, "__hash__", counted)
    got = [bernoulli.numerator_row(n, 1, 2, 0, dom).nums[n] for n in range(13)]
    monkeypatch.undo()
    assert len(hashes) == 0 and got == want


def test_an_expansion_sweep_makes_each_row_once(monkeypatch):
    # 25 rows, x = 0..24, and one triangle for each r = 1..3, 78 tables in
    # all, which the sweep reads r by r, from r = 3 back: dropping the least
    # recently made, grown or read past TABLES_KEPT drops only tables of a
    # finished r
    dom = domain(F(-2, 7))
    dom.memo.clear()
    made = []
    row = bernoulli._Row

    def recorded(n, r, alpha, x, dom, den=None):
        made.append((r, x))
        return row(n, r, alpha, x, dom, den)

    monkeypatch.setattr(bernoulli, "_Row", recorded)
    reports = identities.sweep("expansion", n_max=24, lam=F(-2, 7))
    assert all(rep.equal for rep in reports)
    assert sorted(made) == [(r, x) for r in (1, 2, 3) for x in range(25)]
    assert len(dom.memo) == field.TABLES_KEPT
    assert all(("row", r, 1, x) in dom.memo for r in (1, 2) for x in range(25))


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_negative_indices_are_refused(lam):
    # a plain read q[-1] of the coefficient list would return its last entry
    with pytest.raises(IndexError, match="negative coefficient index"):
        trunc_degen_bernoulli(-1, 1, 1, lam=lam)
    with pytest.raises(ValueError):
        stirling2r_gf(-1, 0, 1, lam=lam)


@pytest.mark.parametrize("entry, args", [
    (trunc_degen_bernoulli, (3, -1, 1)),
    (trunc_degen_bernoulli, (3, 0, 1)),
    (trunc_degen_bernoulli, (2, 2, -1)),
    (trunc_degen_bernoulli, (2, 1, -3, F(1, 2))),
])
@pytest.mark.parametrize("lam", [None, F(1, 3)])
def test_invalid_depth_or_order_is_refused_naming_what_was_given(entry, args, lam):
    # refused before any work, not left to fail inside the descending
    # products or the Stirling triangle
    n, r, alpha = args[:3]
    with pytest.raises(ValueError, match=r"need r >= 1 and alpha >= 0, got n=%d, r=%d, "
                                         r"alpha=%d\Z" % (n, r, alpha)):
        entry(*args, lam=lam)


def _closed_beta2_derived(r, x):
    lead = const(math.factorial(r)) / one_falling(r)
    g = 1 - r * LAM
    h = 1 - (r + 1) * LAM
    xe = const(x) if not hasattr(x, "lam") else x
    return lead * (xe * (xe - LAM) - 2 * xe * g / (r + 1)
                   + 2 * g * g / (r + 1) ** 2 - 2 * g * h / ((r + 1) * (r + 2)))


def test_second_value_closed_form():
    for r in (1, 2, 3):
        for x in (0, 1, 2):
            assert trunc_degen_bernoulli(2, r, 1, x) == _closed_beta2_derived(r, x)


def test_published_beta2_display_has_flipped_signs():
    # the printed display negates the three non-quadratic terms; at the
    # classical limit it would give -1/6 for the second Bernoulli number
    lead = const(math.factorial(1)) / one_falling(1)
    g = 1 - LAM
    h = 1 - 2 * LAM
    printed = lead * (const(0) * (const(0) - LAM) + 2 * const(0) * g / 2
                      - 2 * g * g / 4 + 2 * g * h / 6)
    actual = trunc_degen_bernoulli(2, 1, 1, 0)
    assert printed != actual
    assert printed.instantiate(F(0)) == F(-1, 6)
    assert actual.instantiate(F(0)) == F(1, 6)


def test_bell_examples():
    xs = [const(F(p, 2)) for p in (3, 5, 7, 11, 13, 17)]
    for n in range(1, 6):
        assert bell_partial(n, 1, xs) == xs[n - 1]
        assert bell_partial(n, n, xs) == xs[0] ** n
    assert bell_partial(3, 2, xs) == 3 * xs[0] * xs[1]
    assert bell_partial(0, 0, xs) == 1
    assert bell_partial(3, 5, xs) == 0


def test_bell_routes_agree_on_symbolic_inputs():
    xs = [LAM + l for l in range(1, 11)]
    for n in range(11):
        for k in range(n + 1):
            assert bell_partial_enum(n, k, xs) == bell_partial(n, k, xs)


def test_partitions_are_the_recursive_enumeration_in_its_order():
    for n in range(17):
        for k in range(n + 2):
            for top in (None, *range(n + 1)):
                assert (list(bernoulli.partitions_exact(n, k, top))
                        == list(partitions_exact(n, k, top))), (n, k, top)


def test_a_bell_value_of_more_parts_than_the_recursion_limit():
    # one partition, 1200 ones: a recursion one level per part ran out of stack
    assert bell_partial_enum(1200, 1200, [F(1, 2)], lam=F(1, 3)) == F(1, 2 ** 1200)


def _counted(monkeypatch, name):
    # the calls of bernoulli's name, counted
    calls = []
    original = getattr(bernoulli, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bernoulli, name, counted)
    return calls


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_a_bell_value_builds_only_its_band(monkeypatch, lam):
    # B(n, k) reads columns 1..k down to index n - k: k (n - k + 1) sums of
    # the recurrence, and no power of the series; not the whole triangle of
    # rows 0..n
    cls = type(domain(lam))
    sum_products, sums = cls.sum_products, []

    def counted(terms):
        sums.append(1)
        return sum_products(terms)

    def refuse(*args):
        raise AssertionError("a power of the series was climbed")

    monkeypatch.setattr(cls, "sum_products", staticmethod(counted))
    monkeypatch.setattr(series, "product", refuse)
    xs = [F(l, l + 1) for l in range(1, 41)]
    for n, k in [(n, k) for n in range(13) for k in range(n + 2)] + [(40, 40), (40, 1)]:
        sums.clear()
        assert bell_partial(n, k, xs, lam) == bell_enum(n, k, xs, lam), (n, k)
        assert len(sums) == (k * (n - k + 1) if k <= n else 0), (n, k)


@pytest.mark.parametrize("family", ["bell", "klambda"])
def test_a_table_builds_one_bell_triangle_and_keeps_nothing(capsys, monkeypatch, family):
    # every row of a Bell table reads one default sequence, so one triangle,
    # and a reciprocal table reads none; the domain keeps nothing of either
    calls = _counted(monkeypatch, "_bell_columns")
    dom = domain(F(1, 3))
    dom.memo.clear()
    assert cli.main(["table", family, "--n-max", "16", "--lambda=1/3"]) == 0
    capsys.readouterr()
    assert [k for k, last, xs, _ in calls] == ([16] if family == "bell" else [])
    assert not dom.memo


@pytest.mark.parametrize("lam", [None, F(1, 3)])
def test_a_reciprocal_table_builds_no_bell_triangle(monkeypatch, lam):
    # K(0..40) off one series reciprocal, 861 terms; the alternating Bell
    # sum over the triangle passes 13,202.  On all ones the series is the
    # deformed exponential at 1, so K(n) is the descending product
    # (-1)(-1 - l)...(-1 - (n-1) l)
    cls = type(domain(lam))
    sum_products, terms = cls.sum_products, []

    def counted(ts):
        ts = list(ts)
        terms.append(len(ts))
        return sum_products(ts)

    monkeypatch.setattr(cls, "sum_products", staticmethod(counted))
    columns = _counted(monkeypatch, "_bell_columns")
    rows = bernoulli.k_lambda_rows(40, [1] * 40, lam)
    assert sum(terms) == 861, (sum(terms), len(terms))
    assert not columns
    assert rows == [(n, 0, gen_falling(-1, n, lam=lam)) for n in range(41)]


def test_a_reciprocal_table_divides_one_series(capsys, monkeypatch):
    # one series reciprocal to the last order serves every row
    calls = _counted(monkeypatch, "quotient")
    domain(F(1, 3)).memo.clear()
    assert cli.main(["table", "klambda", "--n-max", "16", "--lambda=1/3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_a_bell_table_prepares_its_sequence_once(capsys, monkeypatch):
    # not twice per cell: each preparation unwraps the whole sequence
    calls = _counted(monkeypatch, "_prepare_xs")
    domain(F(1, 3)).memo.clear()
    assert cli.main(["table", "bell", "--n-max", "12", "--lambda=1/3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_table_rows_are_the_per_value_entries(lam):
    xs = [F(0), F(1, 2), F(-3), F(2), F(0), F(5), F(1, 3)]
    assert bernoulli.bell_rows(7, 4, xs, lam) == [
        (n, k, bell_partial(n, k, xs, lam)) for n in range(8) for k in range(min(n, 4) + 1)]
    assert bernoulli.k_lambda_rows(7, xs, lam) == [(n, 0, k_lambda(n, xs, lam)) for n in range(8)]


@pytest.mark.parametrize("rows, args", [
    (bernoulli.bell_rows, (5, 5)),
    (bernoulli.k_lambda_rows, (5,)),
])
def test_table_rows_fail_at_the_first_cell_past_the_sequence(rows, args):
    with pytest.raises(InputTooShort, match=r"need sequence values up to index 3, got 2\Z"):
        rows(*args, [F(1), F(2)])


def test_bell_input_too_short():
    with pytest.raises(InputTooShort):
        bell_partial(5, 2, [const(1), const(2)])


def test_reciprocal_polynomials():
    xs = [const(F(l + 2, 3)) for l in range(10)]
    assert k_lambda(0, xs) == 1
    assert k_lambda(1, xs) == -xs[0]
    with pytest.raises(InputTooShort):
        k_lambda(4, xs[:2])


def test_reciprocal_routes_agree():
    sym = [LAM + l for l in range(1, 11)]
    for n in range(11):
        assert k_lambda(n, sym) == k_lambda_series(n, sym)


def test_reciprocal_all_ones_specialization():
    for n in range(11):
        ones = [1] * max(n, 1)
        expect = const(0)
        for k in range(n + 1):
            sign = -1 if k % 2 else 1
            expect = expect + sign * math.factorial(k) * stirling2_degen(n, k)
        assert k_lambda(n, ones) == expect


def _refuse_partitions(monkeypatch):
    def refuse(*args):
        raise AssertionError("the partition enumeration ran")

    monkeypatch.setattr(bernoulli, "partitions_exact", refuse)


@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_reciprocal_polynomials_never_enumerate_partitions(monkeypatch, lam):
    _refuse_partitions(monkeypatch)
    for xs in ([F(l - 4, l + 1) for l in range(1, 13)],
               [F(0)] + [F((-1) ** l * l, 3) for l in range(2, 13)]):
        for n in range(13):
            assert k_lambda(n, xs, lam) == k_lambda_series(n, xs, lam), (n, xs)
        assert [v for _, _, v in bernoulli.k_lambda_rows(12, xs, lam)] == [
            k_lambda_series(n, xs, lam) for n in range(13)]


def test_bell_values_and_tables_never_enumerate_partitions(monkeypatch):
    # on all ones, B(n, k) is the classical S(n, k); the enumeration would
    # walk p(30) = 5,604 partitions for B(60, 30) alone
    _refuse_partitions(monkeypatch)
    classic = classic_stirling2(60)
    assert bernoulli.bell_rows(30, 30, [1] * 30) == [
        (n, k, classic[n, k]) for n in range(31) for k in range(n + 1)]
    assert bell_partial(60, 30, [1] * 60, F(1, 2)) == classic[60, 30]


_SEQ = st.lists(st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=4)),
                min_size=1, max_size=8)


@settings(max_examples=30, deadline=None)
@given(_SEQ, st.sampled_from([None, F(-5, 3), F(2, 7), F(1, 2)]))
def test_reciprocal_routes_agree_on_sequences_with_zeros_and_negatives(xs, lam):
    n = len(xs)
    s = LAM if lam is None else lam
    # the scaled sequence (1)_l x_l, its descending products written out here
    scaled = [x * math.prod((1 - i * s for i in range(l)), start=const(1, lam))
              for l, x in enumerate(xs, 1)]
    enum = const(0, lam)
    for k in range(n + 1):
        enum = enum + (-1) ** k * math.factorial(k) * bell_enum(n, k, scaled, lam)
    assert k_lambda(n, xs, lam) == k_lambda_series(n, xs, lam) == enum
    assert bernoulli.k_lambda_rows(n, xs, lam)[n] == (n, 0, enum)


@settings(max_examples=30, deadline=None)
@given(_SEQ, st.sampled_from([None, F(-5, 3), F(2, 7), F(1, 2)]))
def test_a_reciprocal_table_times_its_series_is_the_unit(xs, lam):
    # the product back: the values over n! times the series
    # 1 + sum_l (1)_l x_l t^l / l! are the unit to order n
    n = len(xs)
    rec = Series([v / math.factorial(m) for m, _, v in bernoulli.k_lambda_rows(n, xs, lam)])
    ser = Series([const(1, lam)] + [gen_falling(1, l, lam=lam) * x / math.factorial(l)
                                    for l, x in enumerate(xs, 1)])
    assert rec.mul(ser) == Series.one(n, lam)


@settings(max_examples=30, deadline=None)
@given(_SEQ, st.sampled_from([None, F(-5, 3), F(2, 7)]), st.data())
def test_bell_values_and_tables_agree_with_the_enumeration_and_the_series_power(
        xs, lam, data):
    xs = [const(x, lam) for x in xs]
    if lam is None:
        # one entry a polynomial in the parameter
        xs[data.draw(st.integers(0, len(xs) - 1))] = LAM + 1
    n_max = len(xs)
    want = {}
    for k in range(n_max + 1):
        for n in range(k, n_max + 1):
            want[n, k] = bell_power(n, k, xs, lam)
            assert bell_partial(n, k, xs, lam) == bell_enum(n, k, xs, lam) == want[n, k]
    k_max = data.draw(st.integers(0, n_max))
    assert bernoulli.bell_rows(n_max, k_max, xs, lam) == [
        (n, k, want[n, k]) for n in range(n_max + 1) for k in range(min(n, k_max) + 1)]


@settings(max_examples=30, deadline=None)
@given(_SEQ, st.sampled_from([None, F(-5, 3), F(2, 7)]), st.randoms(use_true_random=False))
def test_bell_cells_read_in_any_order_then_a_table_equal_the_enumeration(xs, lam, rnd):
    # each cell and each table builds a triangle of its own, so neither the
    # order of the reads nor an earlier read changes a value
    n_max = len(xs)
    cells = [(n, k) for n in range(n_max + 1) for k in range(n + 2)]
    rnd.shuffle(cells)
    del cells[rnd.randint(0, len(cells)):]
    for n, k in cells:
        assert bell_partial(n, k, xs, lam) == bell_enum(n, k, xs, lam), (n, k)
    assert bernoulli.bell_rows(n_max, n_max, xs, lam) == [
        (n, k, bell_enum(n, k, xs, lam)) for n in range(n_max + 1) for k in range(n + 1)]


@pytest.mark.parametrize("entry, args", [
    (bell_partial, (-1, 0, [1])),
    (bell_partial, (3, -1, [1, 1, 1])),
    (bell_partial, (-2, -1, [1, 1, 1])),
    (bell_partial_enum, (3, -1, [1, 1, 1])),
    (bell_partial_enum, (-2, -1, [1, 1, 1])),
    (k_lambda, (-1, [1])),
])
@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_bell_and_reciprocal_polynomials_refuse_negative_indices(entry, args, lam):
    # refused before any work, naming the indices, not read as 0 or left to
    # fail inside the factorials or the descending products
    n, k = args[0], args[1] if len(args) == 3 else 0
    with pytest.raises(ValueError, match=r"need n, k >= 0, got n=%d, k=%d\Z" % (n, k)):
        entry(*args, lam=lam)


@pytest.mark.parametrize("rows, args, n, k", [
    (bernoulli.bell_rows, (-1, 2), -1, 2),
    (bernoulli.bell_rows, (3, -1), 3, -1),
    (bernoulli.bell_rows, (-1, -1), -1, -1),
    (bernoulli.k_lambda_rows, (-1,), -1, 0),
])
@pytest.mark.parametrize("lam", [None, F(-5, 3)])
def test_bell_and_reciprocal_tables_refuse_negative_bounds(rows, args, n, k, lam):
    # as their entries do, before any work: k_lambda_rows(-1, ...) read
    # xs[:-1] and returned row 0, and bell_rows returned no rows
    with pytest.raises(ValueError, match=r"need n, k >= 0, got n=%d, k=%d\Z" % (n, k)):
        rows(*args, [1, 2], lam=lam)
