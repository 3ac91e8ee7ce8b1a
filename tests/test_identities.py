"""Identity verifiers: desk cases, variants, domains, reports."""

import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstir import (
    AS_DERIVED,
    IDENTITY_TAGS,
    AS_PRINTED,
    DomainViolation,
    IdentityReport,
    PoleAtLambda,
    all_derived_equal,
    const,
    lam_elem,
    sweep,
    verify_beta_closed,
    verify_delta,
    verify_expansion,
    verify_thm3,
    verify_thm4,
    verify_thm5,
    verify_thm6,
    verify_thm7,
    verify_thm8,
)
from degenstir import bernoulli, core, field, identities
from oracles import report_json_obj, thm3_composition_sum

LAM = lam_elem()


def test_a_report_is_an_immutable_record_compared_field_by_field():
    fields = dict(identity="thm4", variant=AS_DERIVED, params={"n": 1},
                  lhs=const(0), rhs=LAM, equal=False)
    rep = IdentityReport(**fields)
    assert rep == IdentityReport(*fields.values())
    assert [getattr(rep, name) for name in fields] == list(fields.values())
    assert rep != IdentityReport(**dict(fields, params={"n": 2}))
    assert repr(rep) == ("IdentityReport(identity='thm4', variant='as-derived', "
                         "params={'n': 1}, lhs=FieldElem(0), rhs=FieldElem((1)*l^1), "
                         "equal=False)")
    with pytest.raises(AttributeError):
        rep.equal = True
    with pytest.raises(AttributeError):
        del rep.lhs
    with pytest.raises(AttributeError):
        rep.extra = 1
    with pytest.raises(TypeError):
        hash(rep)


def test_thm3_desk_cases():
    rep = verify_thm3(0, 2, 2)
    assert rep.equal and rep.lhs == (1 - LAM) ** 2 / 4
    for n in range(5):
        assert verify_thm3(n, 1, 2).equal  # tautological single-part case
    assert verify_thm3(0, 0, 1).equal and verify_thm3(0, 0, 1).lhs == 1
    assert verify_thm3(3, 0, 2).lhs == 0


# at 1/2 and r = 3 every single-block value has the factor 1 - 2 l, so s_0 = 0
@pytest.mark.parametrize("lam", [None, F(-5, 3), F(2, 7), F(1, 2)])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 8), k=st.integers(0, 6), r=st.integers(1, 3))
@example(n=8, k=6, r=3)
@example(n=0, k=0, r=1)
@example(n=3, k=0, r=2)
def test_thm3_power_of_the_single_block_series_is_the_composition_sum(lam, n, k, r):
    rep = verify_thm3(n, k, r, lam)
    assert rep.rhs == thm3_composition_sum(n, k, r, lam)
    assert rep.equal


# k - 1 series products per (k, r) column.  One k-factor term per weak
# composition passes 13,104 terms at n <= 10, k <= 5; a ladder per report,
# read by one last dot product, passes 10,725 at n <= 24, k <= 3
@pytest.mark.parametrize("n_max, k_max, most", [(10, 5, 8000), (24, 3, 4000)])
def test_a_cold_symbolic_thm3_sweep_sums_a_power_not_the_compositions(
        monkeypatch, n_max, k_max, most):
    sum_products = field.Symbolic.sum_products
    terms = []

    def counted(ts):
        ts = list(ts)
        terms.append(len(ts))
        return sum_products(ts)

    monkeypatch.setattr(field.Symbolic, "sum_products", staticmethod(counted))
    field.SYMBOLIC.memo.clear()
    reports = sweep("thm3", n_max=n_max, k_max=k_max)
    assert len(reports) == 3 * (k_max + 1) * (n_max + 1) and all_derived_equal(reports)
    assert sum(terms) <= most


@pytest.mark.parametrize("lam", [None, F(0), F(-2, 7), F(1, 2)])
def test_a_thm3_sweep_is_the_reports_of_its_grid_one_at_a_time(lam):
    grid = [(n, k, r) for r in range(1, 4) for k in range(5) for n in range(9)]
    assert sweep("thm3", n_max=8, k_max=4, r_max=3, lam=lam) == [
        verify_thm3(n, k, r, lam) for n, k, r in grid]


@pytest.mark.parametrize("verify, args, name", [
    (verify_thm3, (-1, 2, 1), "n"),
    (verify_thm3, (2, -1, 1), "k"),
    (verify_thm3, (2, 1, 0), "r"),
    (verify_thm5, (-1, 1), "n"),
    (verify_thm5, (1, -1), "k"),
])
def test_thm3_and_thm5_refuse_arguments_outside_their_domain(verify, args, name):
    with pytest.raises(DomainViolation, match="^%s must be at least" % name):
        verify(*args)


@pytest.mark.parametrize("verify, args, name", [
    (verify_thm4, (-1,), "n"),
    (verify_thm7, (-1, 1), "n"),
    (verify_thm7, (1, -1), "k"),
    (verify_thm8, (-1, 1), "n"),
    (verify_thm8, (1, -1), "k"),
    (verify_expansion, (-1, 1, 0), "n"),
    (verify_expansion, (2, 0, 0), "r"),
    (verify_expansion, (2, -1, 1), "r"),
    (verify_delta, (-1, 1, 0), "alpha"),
    (verify_delta, (1, 0, 1), "r"),
    (verify_beta_closed, (1, 0, 0), "r"),
])
@pytest.mark.parametrize("lam", [None, F(1, 3)])
def test_verifiers_name_the_argument_outside_their_domain(verify, args, name, lam):
    # refused before any work, not left to fail inside a Bernoulli row, the
    # descending products or an index into a list
    with pytest.raises(DomainViolation, match=r"^%s must be at least \d+\Z" % name):
        verify(*args, lam=lam)


@pytest.mark.parametrize("lam", [None, F(0), F(-2, 7)])
def test_a_single_thm3_call_makes_one_report(monkeypatch, lam):
    # one power ladder, and the one report the call returns, not the
    # reports of its whole column n = 0..60
    made = []
    report = identities._report

    def counted(identity, params, *rest, **kwargs):
        made.append(params)
        return report(identity, params, *rest, **kwargs)

    monkeypatch.setattr(identities, "_report", counted)
    rep = verify_thm3(60, 3, 3, lam)
    assert made == [{"n": 60, "k": 3, "r": 3}] and rep.equal
    assert rep == sweep("thm3", n_max=60, k_max=3, r_max=3, lam=lam)[-1]


def test_thm4_desk_cases():
    first, second = verify_thm4(0)
    assert first.equal and first.lhs == 1
    assert second.equal and second.lhs == 1
    first, second = verify_thm4(1)
    assert first.equal and first.lhs == (LAM - 1) / 2
    assert second.equal


def test_thm5_desk_cases():
    rep, _ = verify_thm5(0, 1)
    assert rep.equal and rep.lhs == 0
    rep, _ = verify_thm5(1, 1)
    assert rep.equal and rep.lhs == 1 - LAM
    rep, _ = verify_thm5(0, 0)
    assert rep.equal and rep.lhs == 1


def test_thm5_printed_variant_is_reported_not_true_in_general():
    assert verify_thm5(1, 1)[1].equal  # coincides here
    bad = verify_thm5(2, 1)[1]
    assert bad.variant == AS_PRINTED and not bad.equal


def test_thm6_desk_cases():
    rep = verify_thm6(1, 1)
    assert rep.equal and rep.lhs == 1 - LAM
    rep = verify_thm6(2, 1)
    assert rep.equal and rep.lhs == -LAM * (1 - LAM)
    with pytest.raises(DomainViolation):
        verify_thm6(0, 1)
    with pytest.raises(DomainViolation):
        verify_thm6(3, 0)


def test_thm6_holds_at_lambda_zero():
    # the rhs is a Horner form in -lambda, which divides by no power of it
    reports = sweep("thm6", lam=0)
    assert len(reports) == 21 and all_derived_equal(reports)
    for rep in reports:
        sym = verify_thm6(rep.params["n"], rep.params["k"])
        assert rep.rhs.value == sym.rhs.instantiate(0)


def test_thm7_desk_cases():
    rep = verify_thm7(0, 1)
    assert rep.equal and rep.lhs == 0
    rep = verify_thm7(1, 1)
    assert rep.equal and rep.lhs == 1 - LAM
    for n in range(4):
        rep = verify_thm7(n, 0)
        assert rep.equal and rep.lhs == (1 if n == 0 else 0)


def test_thm8_desk_cases():
    derived, printed = verify_thm8(0, 1)
    assert derived.equal and derived.lhs == 0
    assert not printed.equal  # the printed form misses the l = 0 term here
    derived, printed = verify_thm8(2, 1)
    assert derived.equal and derived.lhs == (1 - LAM) * (1 - 2 * LAM)
    derived, printed = verify_thm8(0, 0)
    assert derived.equal and derived.lhs == 1 and printed.equal


def test_delta_desk_cases():
    rep = verify_delta(1, 2, 2)
    assert rep.equal and rep.lhs == 2
    rep = verify_delta(1, 1, 1)
    assert rep.equal and rep.lhs == 1
    rep = verify_delta(2, 2, 5)
    assert rep.equal and rep.rhs == 0
    with pytest.raises(DomainViolation):
        verify_delta(2, 2, 3)


def test_expansion_samples():
    for r in (1, 2, 3):
        for n in range(5):
            for x in range(n + 1):
                assert verify_expansion(n, r, x).equal


def test_beta_closed_forms_and_variant_split():
    for r in (1, 2, 3):
        assert verify_beta_closed(0, r, 0)[0].equal
        for x in (0, 1):
            reps = verify_beta_closed(1, r, x)
            assert len(reps) == 1 and reps[0].equal
        for x in (0, 1, 2):
            derived, printed = verify_beta_closed(2, r, x)
            assert derived.variant == AS_DERIVED and derived.equal
            assert printed.variant == AS_PRINTED
    assert not verify_beta_closed(2, 1, 0)[1].equal
    with pytest.raises(DomainViolation):
        verify_beta_closed(3, 1, 0)


def test_rational_function_samples_take_the_general_route():
    # the CLI passes rationals only; through the API x may be a quotient in
    # the parameter, and the numerators are then quotients too
    for x in (LAM / (1 + LAM), 1 / (1 - 2 * LAM)):
        for r in (1, 2, 3):
            for n in range(4):
                assert verify_expansion(n, r, x).equal
            derived, printed = verify_beta_closed(2, r, x)
            assert derived.equal and not printed.equal
            assert derived.lhs.instantiate(F(1, 7)) == \
                verify_beta_closed(2, r, x.instantiate(F(1, 7)), lam=F(1, 7))[0].lhs.value


def _counted(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_expansion_sweep_reads_its_products_off_the_rows(monkeypatch):
    # the lhs (x)_n is the x row's own descending product and the unit
    # products (1)_{j+r} / E the x = 0 row's column over E, so a cold default
    # sweep multiplies out only E, once per r (two per report before)
    calls = _counted(monkeypatch, core, "descending")
    for module in (bernoulli, identities):
        monkeypatch.setattr(module, "descending", core.descending)
    field.SYMBOLIC.memo.clear()
    reports = sweep("expansion")
    assert len(reports) == 84 and all_derived_equal(reports)
    assert len(calls) <= 3


def test_numerator_sweeps_run_no_polynomial_gcd(monkeypatch):
    # delta and expansion sum numerators over E^alpha, which are
    # polynomials; beta-closed divides each side once by E to wrap it
    calls = _counted(monkeypatch, field, "poly_gcd")
    for tag in ("delta", "expansion", "beta-closed"):
        field.SYMBOLIC.memo.clear()
        calls.clear()
        reports = sweep(tag)
        assert all_derived_equal(reports)
        assert len(calls) <= (2 * len(reports) if tag == "beta-closed" else 0), tag


def test_a_cold_pinned_sweep_sums_its_terms_on_ints(monkeypatch):
    # each sum is one sum_products, which multiplies and adds on ints and
    # builds one Fraction; summed term by term the sweep makes 9,296 Fraction
    # products and sums here
    lam = F(-3, 7)
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(x, y, op=getattr(F, name)):
            calls.append(1)
            return op(x, y)

        monkeypatch.setattr(F, name, counted)
    field.domain(lam).memo.clear()
    for tag in IDENTITY_TAGS:
        assert all_derived_equal(sweep(tag, lam=lam)), tag
    assert len(calls) <= 4000


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_a_cold_delta_sweep_makes_each_row_with_one_reciprocal_step(monkeypatch, lam):
    # the grid is evaluated from its last point back, so each (alpha, r)
    # row's first read is its longest: one _reciprocal call per row, where a
    # forward sweep makes one per report (63)
    made = []
    step = bernoulli._reciprocal

    def recorded(row, n, r, alpha, dom):
        made.append((alpha, r))
        return step(row, n, r, alpha, dom)

    monkeypatch.setattr(bernoulli, "_reciprocal", recorded)
    field.domain(lam).memo.clear()
    assert all_derived_equal(sweep("delta", lam=lam))
    assert sorted(made) == [(alpha, r) for alpha in (1, 2, 3) for r in (1, 2, 3)]


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_a_cold_expansion_sweep_makes_each_x_row_with_one_appell_step(monkeypatch, lam):
    # x = 1..6 at r = 1..3: one _appell call per x row, to its last
    # numerator, where a forward sweep makes one per report at x != 0 (63);
    # and one _reciprocal call per r
    reciprocal, appell = bernoulli._reciprocal, bernoulli._appell
    grown = []

    def recorded_reciprocal(row, n, r, alpha, dom):
        grown.append(("reciprocal", n, r))
        return reciprocal(row, n, r, alpha, dom)

    def recorded_appell(row, n, x, base, dom):
        grown.append(("appell", n, str(x)))
        return appell(row, n, x, base, dom)

    monkeypatch.setattr(bernoulli, "_reciprocal", recorded_reciprocal)
    monkeypatch.setattr(bernoulli, "_appell", recorded_appell)
    field.domain(lam).memo.clear()
    assert all_derived_equal(sweep("expansion", lam=lam))
    assert sorted(grown) == ([("appell", 6, str(x)) for x in range(1, 7) for _ in range(3)]
                             + [("reciprocal", 6, r) for r in (1, 2, 3)])


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_the_reciprocal_and_expansion_sums_have_int_coefficients(monkeypatch, lam):
    # each sum of _reciprocal and verify_expansion is one sum on int
    # binomials, scaled once: no term carries a Fraction coefficient
    dom = field.domain(lam)
    kernel = type(dom).sum_products
    seen = set()

    def spy(terms):
        caller = sys._getframe(1).f_code.co_name
        terms = list(terms)
        if caller in ("_reciprocal", "verify_expansion"):
            seen.add(caller)
            assert all(term[0].denominator == 1 for term in terms), caller
        return kernel(terms)

    monkeypatch.setattr(type(dom), "sum_products", staticmethod(spy))
    dom.memo.clear()
    for tag in ("delta", "expansion"):
        assert all_derived_equal(sweep(tag, lam=lam)), tag
    assert seen == {"_reciprocal", "verify_expansion"}


@pytest.mark.parametrize("tag", ["delta", "expansion"])
def test_a_failing_sweep_raises_the_error_of_its_first_failing_point(tag):
    # at lambda = 1, E = (1)_{r,lambda} vanishes at every r >= 2; the grid's
    # last point has r = 3, its first failing point r = 2
    field.domain(1).memo.clear()
    with pytest.raises(PoleAtLambda, match=r"vanishes at r=2, lambda=1\Z"):
        sweep(tag, lam=1)


@pytest.mark.parametrize("lam", [None, F(-2, 7)])
def test_equal_sides_are_one_object(lam):
    # the report writer renders a side that is the other side's object once
    for tag in IDENTITY_TAGS:
        for rep in sweep(tag, n_max=3, lam=lam):
            assert (rep.rhs is rep.lhs) == rep.equal, (tag, rep)


def test_sweep_and_report_shape():
    reports = sweep("thm4", n_max=4)
    assert all_derived_equal(reports)
    obj = report_json_obj(reports[0])
    assert list(obj) == ["identity", "variant", "params", "lhs", "rhs", "equal"]
    json.dumps(obj)  # serializable
    with pytest.raises(ValueError):
        sweep("nope")


def test_sweep_includes_printed_variants_without_tripping_verdict():
    reports = sweep("thm5", n_max=3, k_max=2)
    assert any(r.variant == AS_PRINTED and not r.equal for r in reports)
    assert all_derived_equal(reports)


def test_instantiation_commutes_with_verification():
    lams = [F(2, 7), F(-3, 5), F(5, 2), F(7, 4), F(-9, 2)]
    for lam0 in lams:
        for n, k in ((2, 1), (3, 2)):
            sym = verify_thm5(n, k)[0]
            inst = verify_thm5(n, k, lam=lam0)[0]
            assert inst.equal == sym.equal
            assert inst.lhs.value == sym.lhs.instantiate(lam0)
            assert inst.rhs.value == sym.rhs.instantiate(lam0)
        sym = verify_delta(2, 2, 5)
        inst = verify_delta(2, 2, 5, lam=lam0)
        assert inst.equal == sym.equal
        assert inst.lhs.value == sym.lhs.instantiate(lam0)
