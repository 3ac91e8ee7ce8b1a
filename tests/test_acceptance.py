"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS line on success (run with ``-s`` or ``-rA``
to see them); a failure reads as the usual pytest assertion output.  The
whole file is budgeted to finish well under five minutes on a laptop.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest

from degenstir import (
    AS_DERIVED,
    AS_PRINTED,
    IDENTITY_TAGS,
    Series,
    all_derived_equal,
    cli,
    const,
    degen_bernoulli,
    degen_exp,
    degen_log,
    falling_factorial,
    gen_falling,
    k_lambda,
    k_lambda_bell,
    k_lambda_series,
    lam_elem,
    one_falling,
    stirling1_degen,
    stirling2_degen,
    stirling2r_binomial,
    stirling2r_composition,
    stirling2r_gf,
    sweep,
    trunc_degen_bernoulli,
    verify_beta_closed,
    verify_delta,
    verify_thm5,
    verify_thm6,
    verify_thm7,
    verify_thm8,
)
from degenstir.identities import IdentityReport
from oracles import bernoulli_numbers, classic_stirling2

LAM = lam_elem()


def ok(label):
    print("ACCEPTANCE %s: PASS" % label)


def random_lambdas(count, seed):
    """Reduced rationals with |numerator| >= 2, which avoids every pole
    1/i of the unit descending products (and zero)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lam0 = F(rng.choice([-1, 1]) * rng.randrange(2, 10), rng.randrange(1, 10))
        if abs(lam0.numerator) >= 2 and lam0 not in out:
            out.append(lam0)
    return out


def test_triple_route_agreement():
    for r in (1, 2, 3):
        for k in range(5):
            for n in range(13):
                a = stirling2r_gf(n, k, r)
                assert a == stirling2r_composition(n, k, r)
                assert a == stirling2r_binomial(n, k, r)
    ok("triple-route agreement (n<=12, k<=4, r<=3)")


def test_reduction_at_depth_one():
    for n in range(13):
        for k in range(n + 1):
            assert stirling2r_gf(n, k, 1) == stirling2_degen(n, k)
    ok("depth-1 truncation reduces to the plain second kind (n<=12)")


def test_vanishing_region():
    for r in (1, 2, 3):
        for k in range(5):
            for n in range(k * r):
                assert stirling2r_gf(n, k, r) == 0
                assert stirling2r_composition(n, k, r) == 0
                assert stirling2r_binomial(n, k, r) == 0
    ok("vanishing region below the staircase (all three routes)")


def test_convolution_identity():
    reports = sweep("thm3", n_max=8, k_max=3, r_max=3)
    assert reports and all_derived_equal(reports)
    assert all(rep.equal for rep in reports)
    ok("convolution identity (n<=8, k<=3, r<=3)")


def test_inversion_pair_and_basis_identities():
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
    for n in range(top + 1):
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
    ok("triangles are matrix inverses and change bases (n<=10)")


def test_classical_specialization():
    table = classic_stirling2(12)
    for n in range(13):
        for k in range(n + 1):
            assert stirling2_degen(n, k, lam=F(0)) == table[(n, k)]
    assert stirling2_degen(4, 2, lam=F(0)) == 7
    oracle = bernoulli_numbers(10)
    for n in range(11):
        assert degen_bernoulli(n, 1, 0, lam=F(0)) == oracle[n]
    assert degen_bernoulli(2, 1, 0, lam=F(0)) == F(1, 6)
    ok("classical limit matches recurrence and reciprocal-series oracles")


def test_closed_forms():
    for r in (1, 2, 3):
        assert trunc_degen_bernoulli(0, r, 1, 0) == math.factorial(r) / one_falling(r)
        for n in (1, 2):
            for x in range(n + 1):
                reports = verify_beta_closed(n, r, x)
                assert reports[0].variant == AS_DERIVED or len(reports) == 1
                assert reports[0].equal
    # the published display of the quadratic form flips three signs; it is
    # reported as printed, never asserted, and indeed does not hold
    printed = [rep for r in (1, 2, 3) for x in (0, 1, 2)
               for rep in verify_beta_closed(2, r, x) if rep.variant == AS_PRINTED]
    assert printed and not any(rep.equal for rep in printed)
    ok("closed forms for the first three values (quadratic one sign-corrected; "
       "printed display reported unequal)")


def test_delta_identity():
    for alpha in (1, 2, 3):
        for r in (1, 2, 3):
            floor = alpha * r
            for n in range(floor, floor + 7):
                rep = verify_delta(alpha, r, n)
                assert rep.equal
    ok("delta orthogonality (alpha<=3, r<=3, span 6)")


def test_expansion_identity():
    reports = sweep("expansion", n_max=8, r_max=3)
    assert all(rep.equal for rep in reports)
    ok("descending-product expansion (n<=8, r<=3, n+1 samples)")


def test_bernoulli_stirling_expansions():
    reports = sweep("thm4", n_max=12)
    assert all(rep.equal for rep in reports)
    ok("Bernoulli/Stirling expansion pair (n<=12, symbolic)")


def test_double_truncation_sum():
    for n in range(9):
        for k in range(5):
            assert verify_thm5(n, k).equal
    rep = verify_thm5(0, 1)
    assert rep.equal and rep.lhs == 0
    rep = verify_thm5(1, 1)
    assert rep.equal and rep.lhs == 1 - LAM
    ok("double-truncation sum, derived form (n<=8, k<=4)")


def test_double_truncation_step_down():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert verify_thm6(n, k).equal
    rep = verify_thm6(1, 1)
    assert rep.equal and rep.lhs == 1 - LAM
    rep = verify_thm6(2, 1)
    assert rep.equal and rep.lhs == -LAM * (1 - LAM)
    ok("double-truncation step-down identity (1<=k<=n<=8)")


def test_double_truncation_higher_order():
    for n in range(9):
        for k in range(5):
            assert verify_thm7(n, k).equal
    rep = verify_thm7(1, 1)
    assert rep.equal and rep.lhs == 1 - LAM
    ok("double truncation against higher orders (n<=8, k<=4)")


def test_triple_truncation_sum():
    printed_flags = []
    for n in range(9):
        for k in range(4):
            derived, printed = verify_thm8(n, k)
            assert derived.equal
            printed_flags.append(printed.equal)
    derived, _ = verify_thm8(2, 1)
    assert derived.equal and derived.lhs == (1 - LAM) * (1 - 2 * LAM)
    ok("triple-truncation sum, corrected form (n<=8, k<=3); printed variant "
       "reported %d/%d equal" % (sum(printed_flags), len(printed_flags)))


def test_reciprocal_polynomial_routes():
    sym = [LAM + l for l in range(1, 11)]
    for n in range(11):
        assert k_lambda_bell(n, sym) == k_lambda_series(n, sym)
        ones = [1] * max(n, 1)
        expect = const(0)
        for k in range(n + 1):
            sign = -1 if k % 2 else 1
            expect = expect + sign * math.factorial(k) * stirling2_degen(n, k)
        assert k_lambda(n, ones) == expect
    ok("reciprocal polynomials: dual route and all-ones specialization (n<=10)")


def test_compositional_inverses_at_precision_16():
    n = 16
    e = degen_exp(1, n)
    lg = degen_log(n)
    forward = e.compose(lg)
    assert forward.coeff(0) == 1 and forward.coeff(1) == 1
    assert all(forward.coeff(i) == 0 for i in range(2, n + 1))
    backward = lg.compose(e - 1)
    assert backward.coeff(1) == 1
    assert all(backward.coeff(i) == 0 for i in [0] + list(range(2, n + 1)))
    ok("compositional inverses both ways, precision 16, symbolic")


def test_coefficient_shift_rule_on_100_series():
    rng = random.Random(12345)
    for _ in range(100):
        p = rng.randrange(1, 9)
        f = Series(tuple(const(F(rng.randrange(-12, 13), rng.randrange(1, 7)))
                         for _ in range(p + 1)))
        d = f.derivative()
        for n in range(p):
            assert d.coeff(n) == (n + 1) * f.coeff(n + 1)
    ok("derivative coefficient-shift rule on 100 random series")


def test_instantiation_consistency_across_identities():
    lambdas = random_lambdas(3, seed=20260809)
    for tag in IDENTITY_TAGS:
        symbolic = sweep(tag)
        baseline = [(r.identity, r.variant, tuple(sorted(r.params.items())), r.equal)
                    for r in symbolic]
        assert all_derived_equal(symbolic)
        for lam0 in lambdas:
            pinned = sweep(tag, lam=lam0)
            got = [(r.identity, r.variant, tuple(sorted(r.params.items())), r.equal)
                   for r in pinned]
            assert got == baseline
    ok("three pinned rationals reproduce every symbolic verdict (%s)"
       % ", ".join(str(l) for l in lambdas))


def test_cli_contract(capsys, monkeypatch):
    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    table_args = ("table", "stirling2r", "--n-max", "8", "--r", "2", "--format", "csv")
    assert run(*table_args) == run(*table_args)
    verify_args = ("verify", "--identity", "thm6", "--n-max", "5")
    first = run(*verify_args)
    second = run(*verify_args)
    assert first == second and first[0] == 0

    code, out = run("eval", "stirling2r", "--n", "3", "--k", "1", "--r", "2")
    assert code == 0 and out == "(2)*l^2 + (-3)*l^1 + 1\n"

    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "stirling2", "--n-max", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()

    fake = IdentityReport(identity="thm4", variant=AS_DERIVED, params={},
                          lhs=const(0), rhs=const(1), equal=False)
    monkeypatch.setattr(cli.identities, "sweep", lambda *a, **kw: [fake])
    code, out = run("verify", "--identity", "thm4")
    assert code == 1 and json.loads(out)[0]["equal"] is False
    ok("CLI determinism and the 0/1/2 exit contract")
