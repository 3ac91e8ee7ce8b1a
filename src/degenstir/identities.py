"""Mechanical verification of the identity catalogue.

Each verifier computes the two sides of one identity through independent
code paths (series extraction on one side, closed sums or products on the
other) and wraps the outcome in an :class:`IdentityReport`.  Where the
published statement of an identity disagrees with its own derivation, the
derived form is the primary ("as-derived") variant and the statement is
also computed and reported ("as-printed") without being asserted.

Verdicts are exact: two sides are equal iff their canonical forms match
componentwise.  A verifier computes both sides on the values of its mode's
domain (see ``field``) and wraps them once, into the report.  Each sum of
a side is one ``sum_products`` of the domain, reduced once: thm3 reads the
composition sums of a column n = 0..n_max as the coefficients of the k-th
power of the single-block series, k - 1 ``series.product`` calls, and thm6
reads its two nested sums off one Horner recurrence.  Every Bernoulli
value is read off a row of ``bernoulli.numerator_row``, each row once per
point, to its last index.  thm4-thm8 read the rows at r = 1 and x = 0,
whose numerators are the plain values; the truncated Bernoulli verifiers
(``delta``, ``expansion``, ``beta-closed``) read numerators over E^alpha:
``delta`` pairs them with the Stirling column over E^alpha and
``expansion`` with the unit products over E, so both sum polynomials, and
``beta-closed`` compares numerators and divides each side by E once, to
wrap it.  No equality there needs a polynomial gcd.  ``expansion`` sums on
int binomials, C(n, j) j!/(j + r)! being n!/(n + r)! C(n + r, j + r), and
scales the sum once.  A report whose sides are equal holds one object as
both, which the report writer renders once.

``sweep`` evaluates a grid from its last point back and returns the reports
in grid order.  Every grid ascends in each table index (the Stirling
triangles, the Bernoulli rows), so from the last point back the first point
that reads a table reads its largest index, and the table grows there, not
by one index per point.  Within one point a verifier reads each Bernoulli
row once and thm3 its largest triangle cell first, so neither grows in
steps.  If any point raises, the grid is run forward once more, so that
the error raised is the one of the first failing point in grid order.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .bernoulli import numerator_row
from .core import descending
from .errors import DomainViolation
from .field import as_elem, domain
from .series import product
from .stirling import stirling_entry

AS_DERIVED = "as-derived"
AS_PRINTED = "as-printed"


class IdentityReport(namedtuple("IdentityReport", "identity variant params lhs rhs equal")):
    """The outcome of one identity check: its tag, variant and parameters,
    both sides, and whether they are equal.  An immutable record; reports
    compare field by field and, holding a dict, are unhashable."""

    __slots__ = ()
    __hash__ = None


def _report(identity, params, lhs, rhs, dom, variant=AS_DERIVED, den=None):
    # equal sides are one object, divided and wrapped once, which the report
    # writer renders once
    equal = lhs == rhs
    if den is not None:
        # the sides are numerators over den, decided on as such
        lhs = lhs / den
        rhs = rhs if equal else rhs / den
    lhs = dom.wrap(lhs)
    rhs = lhs if equal else dom.wrap(rhs)
    return IdentityReport(identity=identity, variant=variant, params=params,
                          lhs=lhs, rhs=rhs, equal=equal)


def _at_least(**floors):  # name=(value, least value of the stated domain)
    for name, (value, least) in floors.items():
        if value < least:
            raise DomainViolation("%s must be at least %d" % (name, least))


def _thm3_power(n_max: int, k: int, r: int, dom):
    """The thm3 right sides for n = 0..n_max at one k and r: the t^n
    coefficients of the k-th power of the single-block series, read off one
    ladder, the unit or the singles and k - 1 products."""
    if not k:
        return [dom.one] + [dom.zero] * n_max
    power = singles = [stirling_entry(2, j + r, 1, r, dom) / math.factorial(j + r)
                       for j in range(n_max + 1)]
    for _ in range(k - 1):
        power = product(power, singles, dom)
    return power


def _thm3_report(n: int, k: int, r: int, rhs, dom) -> IdentityReport:
    lhs = Fraction(math.factorial(k), math.factorial(n + k * r)) * stirling_entry(
        2, n + k * r, k, r, dom)
    return _report("thm3", {"n": n, "k": k, "r": r}, lhs, rhs, dom)


def _thm3_column(n_max: int, k: int, r: int, lam=None):
    """The thm3 reports for n = 0..n_max (none if n_max < 0) at one k and r,
    their right sides read off one ladder."""
    if n_max < 0:
        return []
    dom = domain(lam)
    # the largest cell read first: it fills columns 0..k down to index
    # n_max, so the reads below, the singles too, fill nothing
    stirling_entry(2, n_max + k * r, k, r, dom)
    power = _thm3_power(n_max, k, r, dom)
    return [_thm3_report(n, k, r, power[n], dom) for n in range(n_max + 1)]


def verify_thm3(n: int, k: int, r: int, lam=None) -> IdentityReport:
    """Convolution: k!/(n+kr)! times the truncated number of full weight
    equals the sum over weak compositions of products of single-block
    values, read as the t^n coefficient of the k-th power of their series."""
    _at_least(n=(n, 0), k=(k, 0), r=(r, 1))
    dom = domain(lam)
    return _thm3_report(n, k, r, _thm3_power(n, k, r, dom)[n], dom)


def verify_thm4(n: int, lam=None):
    """Two expansions connecting the Bernoulli numbers with the Stirling
    triangles of both kinds; returns a report pair."""
    _at_least(n=(n, 0))
    dom = domain(lam)
    betas = numerator_row(n, 1, 1, 0, dom).nums
    # the closed product for k = 0..n: parameter^k times the (k+1)-step
    # descending product of 1 with the reciprocal parameter as step, over k+1.
    # Clearing denominators term by term shows this equals
    # (s-1)(s-2)...(s-k)/(k+1), the form computed: a polynomial, defined also
    # when the parameter is pinned to zero and the reciprocal step does not exist
    recips = [p / (k + 1) for k, p in enumerate(descending(dom.lam - 1, n, 1, dom))]
    rhs1 = dom.sum_products((1, recips[k], stirling_entry(2, n, k, 1, dom))
                            for k in range(n + 1))
    first = _report("thm4", {"n": n, "part": "bernoulli-expansion"}, betas[n], rhs1, dom)

    rhs2 = dom.sum_products((1, betas[k], stirling_entry(1, n, k, 1, dom))
                            for k in range(n + 1))
    second = _report("thm4", {"n": n, "part": "log-inverse-expansion"}, recips[n], rhs2, dom)
    return first, second


def verify_thm5(n: int, k: int, lam=None):
    """Double-truncation sum against Bernoulli numbers.  The derived form
    carries binomial (n+k choose j) and sign (-1)^k; the printed statement
    has (n+j choose k) and (-1)^n and is reported but not asserted.  Returns
    the report pair, the derived one first."""
    _at_least(n=(n, 0), k=(k, 0))
    dom = domain(lam)
    betas = numerator_row(n, 1, 1, 0, dom).nums
    cells = [(stirling_entry(2, n - j + k, k, 2, dom), betas[j]) for j in range(n + 1)]
    big = math.factorial(n + k)
    tail = dom.sum_products(
        (Fraction((-1) ** (k - j) * big, j * math.factorial(k - j) * math.factorial(n + j - 1)),
         stirling_entry(2, n + j - 1, j - 1, 1, dom)) for j in range(1, k + 1))
    beta_n, lead = cells[n][1], math.comb(n + k, k)
    return tuple(_report("thm5", {"n": n, "k": k},
                         dom.sum_products((binom(j), s, b) for j, (s, b) in enumerate(cells)),
                         dom.sum_products(((sign * lead, beta_n), (1, tail))), dom, variant)
                 for variant, binom, sign in (
                     (AS_DERIVED, lambda j: math.comb(n + k, j), (-1) ** k),
                     (AS_PRINTED, lambda j: math.comb(n + j, k), (-1) ** n)))


def verify_thm6(n: int, k: int, lam=None) -> IdentityReport:
    """Identity linking the double-truncation block of one power against
    the block of the previous power, stated for n >= k >= 1."""
    _at_least(k=(k, 1))
    if n < k:
        raise DomainViolation("stated domain requires n >= k")
    dom = domain(lam)
    betas = numerator_row(n, 1, 1, 0, dom).nums
    lhs = dom.sum_products(
        (math.comb(n + k - 1, j), stirling_entry(2, n - j + k, k, 2, dom), betas[j])
        for j in range(n + 1))
    # the statement's sums, with s_l = S_2(l+k-2, k-1)/(l+k-2)!, are
    # sum_{l=k..n} s_l (-lambda)^(n-l) and, per j = k..n, beta_{n-j}/(n-j)!
    # times sum_{l=k..j} s_l (-lambda)^(j-l+1).  Both read h_j =
    # sum_{l=k..j} s_l (-lambda)^(j-l), which Horner's rule gives as
    # h_j = -lambda h_{j-1} + s_j: the first sum is h_n, the inner sum of
    # term j is -lambda h_j.  No step divides by lambda, so lambda = 0 holds.
    neg = -dom.lam
    h = [dom.zero]  # h[j - k + 1] = h_j
    for j in range(k, n + 1):
        m = j + k - 2
        s_j = stirling_entry(2, m, k - 1, 2, dom)
        h.append(dom.sum_products(((1, neg, h[-1]), (Fraction(1, math.factorial(m)), s_j))))
    big = math.factorial(n + k - 1)
    rhs = dom.sum_products(
        [(big, h[-1])] + [(big // math.factorial(n - j), betas[n - j], neg, h[j - k + 1])
                          for j in range(k, n + 1)])
    return _report("thm6", {"n": n, "k": k}, lhs, rhs, dom)


def verify_thm7(n: int, k: int, lam=None) -> IdentityReport:
    """Double-truncation sum against order-k Bernoulli numbers, with an
    alternating sum over lower orders on the other side."""
    _at_least(n=(n, 0), k=(k, 0))
    dom = domain(lam)
    # the highest order first: its row fills the Stirling columns of the others
    betas = {order: numerator_row(n, 1, order, 0, dom).nums for order in range(k, -1, -1)}
    lhs = dom.sum_products(
        (math.comb(n + k, j), stirling_entry(2, n - j + k, k, 2, dom), betas[k][j])
        for j in range(n + 1))
    rhs = dom.sum_products(
        ((-1) ** (k - j) * math.comb(k, j) * math.comb(n + k, k), betas[k - j][n])
        for j in range(k + 1))
    return _report("thm7", {"n": n, "k": k}, lhs, rhs, dom)


def verify_thm8(n: int, k: int, lam=None):
    """Triple-truncation sum against Bernoulli numbers.  The derivation
    keeps the l = 0 terms of the second sum, which the printed statement
    drops; both variants are reported, the corrected one first."""
    _at_least(n=(n, 0), k=(k, 0))
    dom = domain(lam)
    betas = numerator_row(n, 1, 1, 0, dom).nums
    lhs = dom.sum_products(
        (math.comb(n + k, j + k), stirling_entry(2, j + k, k, 3, dom), betas[n - j])
        for j in range(n + 1))
    top = min(n, k)
    half = (dom.one - dom.lam) / 2
    halves = [half ** l for l in range(top + 1)]
    big = math.factorial(n + k)
    # the first sum, with its sign, and the terms of the second sum, by l
    first = [(Fraction((-1) ** k * math.comb(k, j) * big,
                       math.factorial(n - j) * math.factorial(k)), halves[j], betas[n - j])
             for j in range(top + 1)]
    second = [[] for _ in range(top + 1)]
    for j in range(1, k + 1):
        for l in range(min(n, k - j) + 1):
            m = n - l + j - 1
            coef = Fraction((-1) ** (k - j) * big * math.comb(k - j, l),
                            j * math.factorial(k - j) * math.factorial(m))
            second[l].append((coef, halves[l], stirling_entry(2, m, j - 1, 1, dom)))
    printed = dom.sum_products(itertools.chain(first, *second[1:]))
    params = {"n": n, "k": k}
    return (
        _report("thm8", params, lhs, printed + dom.sum_products(second[0]), dom, AS_DERIVED),
        _report("thm8", params, lhs, printed, dom, AS_PRINTED),
    )


def verify_delta(alpha: int, r: int, n: int, lam=None) -> IdentityReport:
    """Orthogonality of the truncated block with its Bernoulli reciprocal:
    the binomial cross-sum collapses to (alpha*r)!/alpha! at n = alpha*r and
    to zero above.  Each term pairs column alpha over E^alpha with a
    numerator over E^alpha, so the sum is a polynomial."""
    _at_least(alpha=(alpha, 0), r=(r, 1))
    ar = alpha * r
    if n < ar:
        raise DomainViolation("requires n >= alpha * r")
    dom = domain(lam)
    row = numerator_row(n - ar, r, alpha, dom.zero, dom)
    total = dom.sum_products((math.comb(n, l), row.quots[n - ar - l], row.nums[l])
                             for l in range(n - ar + 1))
    if n == ar:
        target = dom.const(Fraction(math.factorial(ar), math.factorial(alpha)))
    else:
        target = dom.zero
    return _report("delta", {"alpha": alpha, "r": r, "n": n}, total, target, dom)


def verify_expansion(n: int, r: int, x, lam=None) -> IdentityReport:
    """The descending product of x expanded over truncated Bernoulli
    polynomials, checked at one sample point x.  The unit products
    (1)_{j+r} over E are column 1 of the triangle over E, the x = 0 row's
    ``quots`` at alpha = 1, and each meets a numerator over E."""
    _at_least(n=(n, 0), r=(r, 1))
    dom = domain(as_elem(x, lam).lam)
    xv = dom.unwrap(x)
    row = numerator_row(n, r, 1, xv, dom)
    units = numerator_row(n, r, 1, dom.zero, dom).quots
    lhs = row.prods[n] if xv else (dom.zero if n else dom.one)  # (0)_n at x = 0
    # C(n, j) j!/(j + r)! = n!/(n + r)! C(n + r, j + r): int terms, scaled once
    total = dom.sum_products((math.comb(n + r, j + r), units[j], row.nums[n - j])
                             for j in range(n + 1))
    rhs = total * Fraction(math.factorial(n), math.factorial(n + r))
    return _report("expansion", {"n": n, "r": r, "x": str(dom.wrap(xv))}, lhs, rhs, dom)


def verify_beta_closed(n: int, r: int, x, lam=None):
    """Closed forms of the first three truncated Bernoulli polynomials at
    one sample point.  For n = 2 the published display has its last three
    signs flipped relative to what its own expansion gives; the corrected
    version is the asserted variant, the display is reported as printed.
    Both sides are compared as numerators over E = (1)_{r,l}: the closed
    forms' lead r!/E becomes r!."""
    if n not in (0, 1, 2):
        raise DomainViolation("closed forms exist for n in {0, 1, 2}")
    _at_least(r=(r, 1))
    dom = domain(as_elem(x, lam).lam)
    xv, s = dom.unwrap(x), dom.lam
    row = numerator_row(n, r, 1, xv, dom)
    lhs, den = row.nums[n], row.den
    lead = math.factorial(r)
    params = {"n": n, "r": r, "x": str(dom.wrap(xv))}
    if n == 0:
        return (_report("beta-closed", params, lhs, dom.const(lead), dom, den=den),)
    g = dom.one - r * s
    if n == 1:
        rhs = lead * (xv - g / (r + 1))
        return (_report("beta-closed", params, lhs, rhs, dom, den=den),)
    h = dom.one - (r + 1) * s
    quad = xv * (xv - s)
    mid = 2 * xv * g / (r + 1)
    sq = 2 * g * g / (r + 1) ** 2
    tail = 2 * g * h / ((r + 1) * (r + 2))
    rhs_derived = lead * (quad - mid + sq - tail)
    rhs_printed = lead * (quad + mid - sq + tail)
    return (
        _report("beta-closed", params, lhs, rhs_derived, dom, AS_DERIVED, den),
        _report("beta-closed", params, lhs, rhs_printed, dom, AS_PRINTED, den),
    )


def _n_by_k(b):
    return itertools.product(range(b["n_max"] + 1), range(b["k_max"] + 1))


# tag -> (verifier, default bounds, grid).  A grid maps the bounds to the
# verifier's positional arguments, in report order, ascending in each index
# of the tables the verifier reads (see ``sweep``); a verifier returns one
# report, or a sequence of them: its variants, or a whole thm3 column.
IDENTITIES = {
    "thm3": (_thm3_column, {"n_max": 6, "k_max": 3, "r_max": 3},
             lambda b: ((b["n_max"], k, r) for r in range(1, b["r_max"] + 1)
                        for k in range(b["k_max"] + 1))),
    "thm4": (verify_thm4, {"n_max": 10}, lambda b: ((n,) for n in range(b["n_max"] + 1))),
    "thm5": (verify_thm5, {"n_max": 6, "k_max": 3}, _n_by_k),
    "thm6": (verify_thm6, {"n_max": 6},
             lambda b: ((n, k) for n in range(1, b["n_max"] + 1) for k in range(1, n + 1))),
    "thm7": (verify_thm7, {"n_max": 6, "k_max": 3}, _n_by_k),
    "thm8": (verify_thm8, {"n_max": 6, "k_max": 2}, _n_by_k),
    # the n bound is the span beyond alpha*r, since the identity's domain
    # floor moves with the other two parameters
    "delta": (verify_delta, {"n_max": 6, "r_max": 3, "alpha_max": 3},
              lambda b: ((alpha, r, n) for alpha in range(1, b["alpha_max"] + 1)
                         for r in range(1, b["r_max"] + 1)
                         for n in range(alpha * r, alpha * r + b["n_max"] + 1))),
    "expansion": (verify_expansion, {"n_max": 6, "r_max": 3},
                  lambda b: ((n, r, x) for r in range(1, b["r_max"] + 1)
                             for n in range(b["n_max"] + 1) for x in range(n + 1))),
    "beta-closed": (verify_beta_closed, {"r_max": 3},
                    lambda b: ((n, r, x) for r in range(1, b["r_max"] + 1)
                               for n in range(3) for x in range(n + 1))),
}

DEFAULT_RANGES = {tag: bounds for tag, (_, bounds, _) in IDENTITIES.items()}

IDENTITY_TAGS = tuple(IDENTITIES)


def sweep(identity: str, n_max=None, k_max=None, r_max=None, alpha_max=None,
          lam=None):
    """Run one identity over a parameter grid and return the report list,
    in grid order.

    Unset bounds fall back to the per-identity defaults.  The points are
    evaluated from the last back; a sweep that fails raises the error of
    its first failing point in grid order.
    """
    if identity not in IDENTITIES:
        raise ValueError("unknown identity %r" % (identity,))
    verify, bounds, grid = IDENTITIES[identity]
    given = {"n_max": n_max, "k_max": k_max, "r_max": r_max, "alpha_max": alpha_max}
    bounds = dict(bounds, **{key: v for key, v in given.items() if v is not None})
    points = list(grid(bounds))
    try:
        # each grid ascends in every table index, so from the last point
        # back a table grows to its largest read at the first point reading it
        outs = [verify(*args, lam=lam) for args in reversed(points)]
    except Exception:
        # a later point may fail first; forward, the error raised is the
        # one of the first failing point in grid order
        outs = [verify(*args, lam=lam) for args in points]
    else:
        outs.reverse()
    reports = []
    for out in outs:
        reports.extend((out,) if isinstance(out, IdentityReport) else out)
    return reports


def all_derived_equal(reports) -> bool:
    """True when every as-derived report in the list holds."""
    return all(rep.equal for rep in reports if rep.variant == AS_DERIVED)
