"""Independent oracles used by the tests.

Everything here but the helpers at the end is deliberately written
against plain Fractions and lists, not against the library's own
polynomial/series machinery, so that a test comparing library output to an
oracle value really is a dual-route check.  The series helpers are the
operations on ``Series`` that only the tests use: the block, whose powers
define the truncated Stirling numbers, t^k, the derivative and agreement on
the shared orders.  ``bernoulli_values`` grows the truncated Bernoulli
values as values of a domain, quotients in the symbolic mode, where the
library grows numerators over E^alpha.  ``thm3_composition_sum`` is the
right side of thm3 as printed, one product per weak composition, where the
library reads it off a power of one series.  ``bell_enum`` and
``k_lambda_series`` are the partial Bell and reciprocal-series polynomials
by the partition enumeration and by one ``Series.div``, where the library
reads the first off one Bell triangle and the second off one series
reciprocal.  ``report_json_obj`` is a report as the
dict that ``json.dumps`` writes, the reference of the CLI's JSON writer.
"""

import math
from fractions import Fraction

from degenstir import Series, const, degen_exp, degen_log, gen_falling
from degenstir.stirling import stirling_entry


def compositions(total: int, parts: int, min_part: int = 0):
    """Yield tuples of ``parts`` integers, each >= min_part, summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= min_part:
            yield (total,)
        return
    for first in range(min_part, total - min_part * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, min_part):
            yield (first,) + rest


def partitions_exact(total: int, parts: int, max_part=None):
    """Yield nonincreasing tuples of exactly ``parts`` positive integers
    summing to total, none above max_part, largest first part first: the
    recursive enumeration, one level per part."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    top = total - parts + 1
    if max_part is not None:
        top = min(top, max_part)
    for first in range(top, 0, -1):
        if first * parts < total:
            break
        for rest in partitions_exact(total - first, parts - 1, first):
            yield (first,) + rest


def poly_divmod(num, den):
    """Long division of coefficient lists (lowest degree first) over Q."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and not den[-1]:
        den.pop()
    if not den:
        raise ZeroDivisionError
    dq = len(num) - len(den)
    if dq < 0:
        return [], num
    quot = [Fraction(0)] * (dq + 1)
    for i in range(dq, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        quot[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    while num and not num[-1]:
        num.pop()
    return quot, num


def poly_mul(a, b):
    """Product of coefficient lists (lowest degree first) over Q, trailing
    zeros dropped."""
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    while out and not out[-1]:
        out.pop()
    return out


def poly_gcd_monic(a, b):
    """Monic gcd of two coefficient lists over Q by Euclid's algorithm on
    ``poly_divmod``; [] when both are zero."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    for p in (a, b):
        while p and not p[-1]:
            p.pop()
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def classic_stirling2(n_max):
    """Classical second-kind Stirling triangle by its recurrence."""
    table = {(0, 0): 1}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            table[(n, k)] = k * table.get((n - 1, k), 0) + table.get((n - 1, k - 1), 0)
    return table


def classic_stirling1(n_max):
    """Classical signed first-kind Stirling triangle by its recurrence."""
    table = {(0, 0): 1}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            table[(n, k)] = table.get((n - 1, k - 1), 0) - (n - 1) * table.get((n - 1, k), 0)
    return table


def bernoulli_numbers(n_max):
    """Classical Bernoulli numbers (B_1 = -1/2 flavour) by inverting the
    series sum_k t^k/(k+1)! with plain Fraction lists."""
    a = [Fraction(1, math.factorial(k + 1)) for k in range(n_max + 1)]
    b = [Fraction(0)] * (n_max + 1)
    b[0] = Fraction(1)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for i in range(n):
            acc += b[i] * a[n - i]
        b[n] = -acc
    return [b[n] * math.factorial(n) for n in range(n_max + 1)]


def series_product_coeff(f_coeffs, g_coeffs, m):
    """Coefficient m of the product of two coefficient lists, provided every
    contributing index is available."""
    acc = None
    for i in range(m + 1):
        if i >= len(f_coeffs) or m - i >= len(g_coeffs):
            continue
        term = f_coeffs[i] * g_coeffs[m - i]
        acc = term if acc is None else acc + term
    return acc


def rational_text(q):
    """Canonical text of a rational: ``p`` for integers, else ``p/q``."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def poly_text(coeffs):
    """Canonical text of a polynomial from its rational coefficients (lowest
    degree first): nonzero terms in descending degree, ``(c)*l^k`` shape,
    bare rational constant, ``0`` for the zero polynomial."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if not c:
            continue
        parts.append(rational_text(c) if k == 0 else "(%s)*l^%d" % (rational_text(c), k))
    return " + ".join(parts) or "0"


def quotient_text(num, den):
    """Canonical text of a reduced quotient with a monic denominator, from
    the coefficient lists of both sides."""
    if [Fraction(c) for c in den] == [1]:
        return poly_text(num)
    return "(%s) / (%s)" % (poly_text(num), poly_text(den))


def block(kind, r, precision, lam=None):
    """The kind's base series (the deformed exponential for the second kind,
    the deformed logarithm of 1 + t for the first) with every coefficient
    below t^r removed; k! sum_n S_r(n, k) t^n / n! is its k-th power."""
    base = degen_exp(1, precision, lam) if kind == 2 else degen_log(precision, lam)
    zero = const(0, lam)
    return Series(tuple(zero if i < r else c for i, c in enumerate(base.coeffs)))


def t_power(k, precision, lam=None):
    """The series t^k at a precision of at least k."""
    assert k <= precision
    return Series(tuple(const(int(i == k), lam) for i in range(precision + 1)))


def derivative(f):
    """d/dt of a series of precision at least 1, one order less precise."""
    return Series(tuple((n + 1) * c for n, c in enumerate(f.coeffs[1:])))


def prefix_equal(f, g):
    """Whether two series agree on every order both know."""
    p = min(f.precision, g.precision)
    return f.truncate(p) == g.truncate(p)


def bernoulli_values(n, r, alpha, x, dom):
    """The truncated order-alpha values 0..n at the ``dom`` value x: at x = 0
    by the reciprocal recurrence over column alpha of the Stirling triangle,
    beta_m = -(1/D_0) sum_{i=1..m} C(m, i) D_i beta_{m-i}, beta_0 = 1/D_0,
    where D_i = i! alpha! S_r(i + alpha r, alpha) / (i + alpha r)!, and at
    x != 0 by the Appell form sum_j C(m, j) beta_j (x)_{m-j}."""
    lo, scale = alpha * r, math.factorial(alpha)
    col = [stirling_entry(2, i + lo, alpha, r, dom) * Fraction(scale * math.factorial(i),
                                                               math.factorial(i + lo))
           for i in range(n + 1)]
    vals = [dom.inverse(col[0])]
    for m in range(1, n + 1):
        acc = dom.zero
        for i in range(1, m + 1):
            acc = acc + math.comb(m, i) * col[i] * vals[m - i]
        vals.append(-vals[0] * acc)
    if not x:
        return vals
    prods = [dom.one]
    for k in range(n):
        prods.append(prods[-1] * (x - k * dom.lam))
    return [sum((math.comb(m, j) * vals[j] * prods[m - j] for j in range(m + 1)), dom.zero)
            for m in range(n + 1)]


def thm3_composition_sum(n, k, r, lam=None):
    """The sum over the weak compositions of n into k parts of the products
    of the single-block values s_j = (1)_{j+r}/(j+r)!, each read off
    ``gen_falling`` rather than the Stirling triangle, term by term."""
    singles = [gen_falling(1, j + r, lam=lam) / math.factorial(j + r) for j in range(n + 1)]
    total = const(0, lam)
    for comp in compositions(n, k):
        term = const(1, lam)
        for j in comp:
            term = term * singles[j]
        total = total + term
    return total


def bell_enum(n, k, xs, lam=None):
    """The partial Bell polynomial B(n, k) of xs, the sum over the partitions
    of n into k parts of n! prod_j x_j^m_j / (j!^m_j m_j!), m_j the number of
    parts j, term by term."""
    total = const(0, lam)
    for part in partitions_exact(n, k):
        term = const(math.factorial(n), lam)
        for j in set(part):
            m = part.count(j)
            term = term * xs[j - 1] ** m / (math.factorial(j) ** m * math.factorial(m))
        total = total + term
    return total


def k_lambda_series(n, xs, lam=None):
    """The reciprocal-series polynomial n! [t^n] 1 / (1 + sum_l (1)_l x_l t^l / l!),
    the descending products read off ``gen_falling``, by one ``Series.div``."""
    coeffs = [const(1, lam)] + [gen_falling(1, l, lam=lam) * xs[l - 1] / math.factorial(l)
                                for l in range(1, n + 1)]
    return Series.one(n, lam).div(Series(coeffs)).coeff(n) * math.factorial(n)


def report_json_obj(rep):
    """An ``IdentityReport`` as the dict that ``json.dumps`` writes."""
    return {
        "identity": rep.identity,
        "variant": rep.variant,
        "params": dict(rep.params),
        "lhs": str(rep.lhs),
        "rhs": str(rep.rhs),
        "equal": rep.equal,
    }
