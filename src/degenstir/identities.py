"""Mechanical verification of the identity catalogue.

Each verifier computes the two sides of one identity through independent
code paths (series extraction on one side, closed sums or products on the
other) and wraps the outcome in an :class:`IdentityReport`.  Where the
published statement of an identity disagrees with its own derivation, the
derived form is the primary ("as-derived") variant and the statement is
also computed and reported ("as-printed") without being asserted.

Verdicts are exact: two sides are equal iff their canonical forms match
componentwise.  A verifier computes both sides on the values of its mode's
domain (see ``field``) and wraps them once, into the report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import bernoulli_entry
from .combinat import compositions
from .core import descending
from .errors import DomainViolation
from .field import FieldElem, as_elem, domain
from .stirling import stirling_entry

AS_DERIVED = "as-derived"
AS_PRINTED = "as-printed"


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    variant: str
    params: dict
    lhs: FieldElem
    rhs: FieldElem
    equal: bool

    def to_json_obj(self):
        return {
            "identity": self.identity,
            "variant": self.variant,
            "params": dict(self.params),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
        }


def _report(identity, params, lhs, rhs, dom, variant=AS_DERIVED):
    return IdentityReport(identity=identity, variant=variant, params=params,
                          lhs=dom.wrap(lhs), rhs=dom.wrap(rhs), equal=lhs == rhs)


def _beta(n, alpha, dom):  # the plain order-alpha value at x = 0
    return bernoulli_entry(n, 1, alpha, dom.zero, dom)


def verify_thm3(n: int, k: int, r: int, lam=None) -> IdentityReport:
    """Convolution: k!/(n+kr)! times the truncated number of full weight
    equals the sum over weak compositions of products of single-block
    values."""
    dom = domain(lam)
    big = n + k * r
    lhs = Fraction(math.factorial(k), math.factorial(big)) * stirling_entry(2, big, k, r, dom)
    rhs = dom.zero
    for comp in compositions(n, k, 0):
        term = dom.one
        for j in comp:
            term = term * stirling_entry(2, j + r, 1, r, dom)
            term = term / math.factorial(j + r)
        rhs = rhs + term
    return _report("thm3", {"n": n, "k": k, "r": r}, lhs, rhs, dom)


def verify_thm4(n: int, lam=None):
    """Two expansions connecting the Bernoulli numbers with the Stirling
    triangles of both kinds; returns a report pair."""
    dom = domain(lam)
    betas = [_beta(j, 1, dom) for j in range(n + 1)]
    # the closed product for k = 0..n: parameter^k times the (k+1)-step
    # descending product of 1 with the reciprocal parameter as step, over k+1.
    # Clearing denominators term by term shows this equals
    # (s-1)(s-2)...(s-k)/(k+1), the form computed: a polynomial, defined also
    # when the parameter is pinned to zero and the reciprocal step does not exist
    recips = [p / (k + 1) for k, p in enumerate(descending(dom.lam - 1, n, 1, dom))]
    rhs1 = dom.zero
    for k in range(n + 1):
        rhs1 = rhs1 + recips[k] * stirling_entry(2, n, k, 1, dom)
    first = _report("thm4", {"n": n, "part": "bernoulli-expansion"}, betas[n], rhs1, dom)

    rhs2 = dom.zero
    for k in range(n + 1):
        rhs2 = rhs2 + betas[k] * stirling_entry(1, n, k, 1, dom)
    second = _report("thm4", {"n": n, "part": "log-inverse-expansion"}, recips[n], rhs2, dom)
    return first, second


def _thm5_rhs(n: int, k: int, sign: int, dom):
    total = sign * math.comb(n + k, k) * _beta(n, 1, dom)
    big = math.factorial(n + k)
    for j in range(1, k + 1):
        coef = Fraction((-1) ** (k - j) * big,
                        j * math.factorial(k - j) * math.factorial(n + j - 1))
        total = total + coef * stirling_entry(2, n + j - 1, j - 1, 1, dom)
    return total


def verify_thm5(n: int, k: int, lam=None, variant: str = AS_DERIVED) -> IdentityReport:
    """Double-truncation sum against Bernoulli numbers.  The derived form
    carries binomial (n+k choose j) and sign (-1)^k; the printed statement
    has (n+j choose k) and (-1)^n and is reportable but not asserted."""
    dom = domain(lam)
    lhs = dom.zero
    for j in range(n + 1):
        s_val = stirling_entry(2, n - j + k, k, 2, dom)
        if variant == AS_DERIVED:
            binom = math.comb(n + k, j)
        else:
            binom = math.comb(n + j, k)
        lhs = lhs + binom * s_val * _beta(j, 1, dom)
    sign = (-1) ** k if variant == AS_DERIVED else (-1) ** n
    rhs = _thm5_rhs(n, k, sign, dom)
    return _report("thm5", {"n": n, "k": k}, lhs, rhs, dom, variant)


def verify_thm6(n: int, k: int, lam=None) -> IdentityReport:
    """Identity linking the double-truncation block of one power against
    the block of the previous power, stated for n >= k >= 1."""
    if k < 1:
        raise DomainViolation("k must be at least 1")
    if n < k:
        raise DomainViolation("stated domain requires n >= k")
    dom = domain(lam)
    lhs = dom.zero
    for j in range(n + 1):
        lhs = lhs + math.comb(n + k - 1, j) * stirling_entry(2, n - j + k, k, 2, dom) * \
            _beta(j, 1, dom)
    neg_s = -dom.lam
    inner = dom.zero
    for l in range(k, n + 1):
        m = l + k - 2
        inner = inner + Fraction(1, math.factorial(m)) * stirling_entry(2, m, k - 1, 2, dom) * \
            neg_s ** (n - l)
    for j in range(k, n + 1):
        for l in range(k, j + 1):
            m = l + k - 2
            coef = Fraction(1, math.factorial(m) * math.factorial(n - j))
            inner = inner + coef * stirling_entry(2, m, k - 1, 2, dom) * \
                _beta(n - j, 1, dom) * neg_s ** (j - l + 1)
    rhs = math.factorial(n + k - 1) * inner
    return _report("thm6", {"n": n, "k": k}, lhs, rhs, dom)


def verify_thm7(n: int, k: int, lam=None) -> IdentityReport:
    """Double-truncation sum against order-k Bernoulli numbers, with an
    alternating sum over lower orders on the other side."""
    dom = domain(lam)
    lhs = dom.zero
    for j in range(n + 1):
        lhs = lhs + math.comb(n + k, j) * stirling_entry(2, n - j + k, k, 2, dom) * \
            _beta(j, k, dom)
    inner = dom.zero
    for j in range(k + 1):
        sign = (-1) ** (k - j)
        inner = inner + (sign * math.comb(k, j)) * _beta(n, k - j, dom)
    rhs = math.comb(n + k, k) * inner
    return _report("thm7", {"n": n, "k": k}, lhs, rhs, dom)


def _thm8_sides(n: int, k: int, dom, l_start: int):
    lhs = dom.zero
    for j in range(n + 1):
        lhs = lhs + math.comb(n + k, j + k) * stirling_entry(2, j + k, k, 3, dom) * \
            _beta(n - j, 1, dom)
    half = (dom.one - dom.lam) / 2
    big = math.factorial(n + k)
    first = dom.zero
    for j in range(min(n, k) + 1):
        coef = Fraction(math.comb(k, j) * big, math.factorial(n - j) * math.factorial(k))
        first = first + coef * half ** j * _beta(n - j, 1, dom)
    first = (-1) ** k * first
    second = dom.zero
    for j in range(1, k + 1):
        coef_j = Fraction((-1) ** (k - j) * big, j * math.factorial(k - j))
        for l in range(l_start, min(n, k - j) + 1):
            m = n - l + j - 1
            coef = coef_j * Fraction(math.comb(k - j, l), math.factorial(m))
            second = second + coef * half ** l * stirling_entry(2, m, j - 1, 1, dom)
    return lhs, first + second


def verify_thm8(n: int, k: int, lam=None):
    """Triple-truncation sum against Bernoulli numbers.  The derivation
    keeps an l = 0 term that the printed statement drops; both variants are
    reported, the corrected one first."""
    dom = domain(lam)
    lhs, rhs_derived = _thm8_sides(n, k, dom, 0)
    _, rhs_printed = _thm8_sides(n, k, dom, 1)
    params = {"n": n, "k": k}
    return (
        _report("thm8", params, lhs, rhs_derived, dom, AS_DERIVED),
        _report("thm8", params, lhs, rhs_printed, dom, AS_PRINTED),
    )


def verify_delta(alpha: int, r: int, n: int, lam=None) -> IdentityReport:
    """Orthogonality of the truncated block with its Bernoulli reciprocal:
    the binomial cross-sum collapses to (alpha*r)!/alpha! at n = alpha*r and
    to zero above."""
    ar = alpha * r
    if n < ar:
        raise DomainViolation("requires n >= alpha * r")
    dom = domain(lam)
    total = dom.zero
    for l in range(n - ar + 1):
        total = total + math.comb(n, l) * stirling_entry(2, n - l, alpha, r, dom) * \
            bernoulli_entry(l, r, alpha, dom.zero, dom)
    if n == ar:
        target = dom.const(Fraction(math.factorial(ar), math.factorial(alpha)))
    else:
        target = dom.zero
    return _report("delta", {"alpha": alpha, "r": r, "n": n}, total, target, dom)


def verify_expansion(n: int, r: int, x, lam=None) -> IdentityReport:
    """The descending product of x expanded over truncated Bernoulli
    polynomials, checked at one sample point x."""
    dom = domain(as_elem(x, lam).lam)
    xv = dom.unwrap(x)
    lhs = descending(xv, n, dom.lam, dom)[-1]
    units = descending(dom.one, n + r, dom.lam, dom)
    rhs = dom.zero
    for j in range(n + 1):
        coef = Fraction(math.comb(n, j) * math.factorial(j), math.factorial(j + r))
        rhs = rhs + coef * units[j + r] * bernoulli_entry(n - j, r, 1, xv, dom)
    return _report("expansion", {"n": n, "r": r, "x": str(dom.wrap(xv))}, lhs, rhs, dom)


def verify_beta_closed(n: int, r: int, x, lam=None):
    """Closed forms of the first three truncated Bernoulli polynomials at
    one sample point.  For n = 2 the published display has its last three
    signs flipped relative to what its own expansion gives; the corrected
    version is the asserted variant, the display is reported as printed."""
    if n not in (0, 1, 2):
        raise DomainViolation("closed forms exist for n in {0, 1, 2}")
    dom = domain(as_elem(x, lam).lam)
    xv, s = dom.unwrap(x), dom.lam
    lhs = bernoulli_entry(n, r, 1, xv, dom)
    lead = math.factorial(r) * dom.inverse(descending(dom.one, r, s, dom)[-1])
    params = {"n": n, "r": r, "x": str(dom.wrap(xv))}
    if n == 0:
        return (_report("beta-closed", params, lhs, lead, dom),)
    g = dom.one - r * s
    if n == 1:
        rhs = lead * (xv - g / (r + 1))
        return (_report("beta-closed", params, lhs, rhs, dom),)
    h = dom.one - (r + 1) * s
    quad = xv * (xv - s)
    mid = 2 * xv * g / (r + 1)
    sq = 2 * g * g / (r + 1) ** 2
    tail = 2 * g * h / ((r + 1) * (r + 2))
    rhs_derived = lead * (quad - mid + sq - tail)
    rhs_printed = lead * (quad + mid - sq + tail)
    return (
        _report("beta-closed", params, lhs, rhs_derived, dom, AS_DERIVED),
        _report("beta-closed", params, lhs, rhs_printed, dom, AS_PRINTED),
    )


def _verify_thm5_both(n: int, k: int, lam=None):
    return verify_thm5(n, k, lam), verify_thm5(n, k, lam, AS_PRINTED)


def _n_by_k(b):
    return itertools.product(range(b["n_max"] + 1), range(b["k_max"] + 1))


# tag -> (verifier, default bounds, grid).  A grid maps the bounds to the
# verifier's positional arguments, in report order; a verifier returns one
# report or a tuple of variants.
IDENTITIES = {
    "thm3": (verify_thm3, {"n_max": 6, "k_max": 3, "r_max": 3},
             lambda b: ((n, k, r) for r in range(1, b["r_max"] + 1)
                        for k in range(b["k_max"] + 1) for n in range(b["n_max"] + 1))),
    "thm4": (verify_thm4, {"n_max": 10}, lambda b: ((n,) for n in range(b["n_max"] + 1))),
    "thm5": (_verify_thm5_both, {"n_max": 6, "k_max": 3}, _n_by_k),
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
    """Run one identity over a parameter grid and return the report list.

    Unset bounds fall back to the per-identity defaults.
    """
    if identity not in IDENTITIES:
        raise ValueError("unknown identity %r" % (identity,))
    verify, bounds, grid = IDENTITIES[identity]
    given = {"n_max": n_max, "k_max": k_max, "r_max": r_max, "alpha_max": alpha_max}
    bounds = dict(bounds, **{key: v for key, v in given.items() if v is not None})
    reports = []
    for args in grid(bounds):
        out = verify(*args, lam=lam)
        reports.extend(out if isinstance(out, tuple) else (out,))
    return reports


def all_derived_equal(reports) -> bool:
    """True when every as-derived report in the list holds."""
    return all(rep.equal for rep in reports if rep.variant == AS_DERIVED)
