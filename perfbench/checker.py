"""Correctness checks for the benchmark's command outputs, run untimed.

Each table cell that is checked is recomputed by a route other than the one
the CLI takes:

* second kind (plain and truncated): the alternating binomial sum
  ``stirling2r_binomial``;
* plain first kind: triangle inversion, i.e. an output row times the
  second-kind triangle (binomial route) must be a unit row;
* truncated first kind: partition enumeration of the partial Bell
  polynomial on the closed-form coefficients (l)! [t^l] of the deformed
  logarithm, (lam-1)(lam-2)...(lam-l+1);
* truncated Bernoulli: the delta relation, the binomial cross-sum of the
  truncated second kind against the output values;
* ``bell`` on the all-ones input: the classical Stirling recurrence;
* ``klambda`` on the all-ones input: the product (-1)(-1-lam)...(-1-(n-1)lam).

Symbolic cells are also parsed, instantiated at a pinned parameter value
and compared with the program's pinned-mode value.  A ``verify`` output
must exit 0, hold every as-derived report, and carry as many reports per
identity as the grid size computed here from the sweep bounds.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import degenstir as d
from degenstir.field import LambdaPoly
from workloads import describe

PLAIN = {"stirling2", "stirling1"}
TRUNCATED = {"stirling2r", "stirling1r"}


class CheckFailed(Exception):
    pass


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- reading canonical value strings ----------------------------------------

_TERM = re.compile(r"\((-?\d+(?:/\d+)?)\)\*l\^(\d+)\Z")
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?\Z")


def _parse_poly(text):
    coeffs = {}
    for term in text.split(" + "):
        m = _TERM.match(term)
        if m:
            coeffs[int(m.group(2))] = Fraction(m.group(1))
        elif _RATIONAL.match(term):
            coeffs[0] = Fraction(term)
        else:
            raise CheckFailed("unreadable term %r" % (term,))
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


def parse_value(text):
    """A canonical value string as (numerator, denominator) coefficient
    lists, lowest degree first."""
    if ") / (" in text:
        num, den = text[1:-1].split(") / (")
        return _parse_poly(num), _parse_poly(den)
    return _parse_poly(text), [Fraction(1)]


def instantiate(text, lam0):
    num, den = parse_value(text)

    def horner(cs):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * lam0 + c
        return acc

    return horner(num) / horner(den)


def read_elem(text, lam):
    """A value string as a field element in the given mode."""
    if lam is not None:
        _expect(_RATIONAL.match(text), "pinned value %r is not rational" % (text,))
        return d.const(Fraction(text), lam)
    num, den = parse_value(text)
    return d.FieldElem.from_polys(LambdaPoly(num), LambdaPoly(den))


def value_bits(text):
    """Sum of the bit lengths of the integers in a value string."""
    return sum(int(x).bit_length() for x in re.findall(r"\d+", re.sub(r"l\^\d+", "", text)))


# -- independent references --------------------------------------------------

def classical_stirling2(n_max):
    s = {(0, 0): 1}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            s[n, k] = k * s.get((n - 1, k), 0) + s.get((n - 1, k - 1), 0)
    return s


def log_bell_inputs(n, r, lam):
    """x_l = l! [t^l] of the deformed logarithm with orders 1..r-1 removed."""
    s = d.lam_elem(lam)
    xs = []
    for l in range(1, max(n, 1) + 1):
        x = d.const(0 if l < r else 1, lam)
        if l >= r:
            for i in range(1, l):
                x = x * (s - i)
        xs.append(x)
    return xs


def klambda_ones(n, lam):
    s = d.lam_elem(lam)
    out = d.const(1, lam)
    for i in range(n):
        out = out * (-1 - i * s)
    return out


def pinned_entry(family, n, k, r, lam0):
    """The program's pinned-mode value of one cell, for the symbolic probe."""
    if family == "stirling2":
        return d.stirling2_degen(n, k, lam=lam0)
    if family == "stirling1":
        return d.stirling1_degen(n, k, lam=lam0)
    if family == "stirling2r":
        return d.stirling2r_gf(n, k, r, lam=lam0)
    return d.stirling1r_gf(n, k, r, lam=lam0)


def table_grid(spec):
    """(n, column) of every row a table prints, in print order."""
    fam, n_max = spec["family"], spec["n_max"]
    k_max = spec.get("k_max", n_max)
    r = spec.get("r", 1)
    if fam in PLAIN or fam == "bell":
        return [(n, k) for n in range(n_max + 1) for k in range(min(k_max, n) + 1)]
    if fam in TRUNCATED:
        return [(n, k * r) for n in range(n_max + 1) for k in range(k_max + 1)]
    if fam == "trunc-bernoulli":
        return [(n, spec["alpha"]) for n in range(n_max + 1)]
    if fam == "klambda":
        return [(n, 0) for n in range(n_max + 1)]
    raise CheckFailed("no grid for family %r" % (fam,))


def grid_size(tag, b):
    """Number of reports ``verify --identity tag`` prints for bounds b."""
    n, k, r, a = b.get("n_max"), b.get("k_max"), b.get("r_max"), b.get("alpha_max")
    return {
        "thm3": lambda: r * (k + 1) * (n + 1),
        "thm4": lambda: 2 * (n + 1),
        "thm5": lambda: 2 * (n + 1) * (k + 1),
        "thm6": lambda: n * (n + 1) // 2,
        "thm7": lambda: (n + 1) * (k + 1),
        "thm8": lambda: 2 * (n + 1) * (k + 1),
        "delta": lambda: a * r * (n + 1),
        "expansion": lambda: r * (n + 1) * (n + 2) // 2,
        "beta-closed": lambda: 9 * r,
    }[tag]()


# -- the checker ---------------------------------------------------------------

class Checker:
    """Checks command outputs.  Of each table, ``rows`` rows (values of n)
    drawn from ``rng`` are checked cell by cell, and their symbolic cells are
    also probed at ``lam0``; the cheap ``bell`` and ``klambda`` tables are
    checked whole."""

    def __init__(self, rng, lam0, rows=4):
        self.rng = rng
        self.lam0 = lam0
        self.rows = rows
        self.work = {"cells": 0, "reports": 0, "coeff_bits": 0}

    def check(self, spec, code, stdout):
        """Problems found in one command's output; empty when it is correct."""
        try:
            _expect(code == 0, "exit code %r" % (code,))
            if spec["command"] == "table":
                self._table(spec, stdout)
            else:
                self._verify(spec, stdout)
        except Exception as exc:  # noqa: BLE001 - every failure is reported, none stops the run
            return ["%s: %s: %s" % (describe(spec), type(exc).__name__, exc)]
        return []

    def _table(self, spec, stdout):
        lines = stdout.splitlines()
        _expect(lines and lines[0] == "n,k,value", "missing CSV header")
        rows = [line.split(",", 2) for line in lines[1:]]
        _expect(all(len(row) == 3 for row in rows), "malformed CSV row")
        grid = [(int(n), int(k)) for n, k, _ in rows]
        _expect(grid == table_grid(spec), "rows do not match the index grid")
        cells = {(int(n), int(k)): v for n, k, v in rows}
        self.work["cells"] += len(cells)
        self.work["coeff_bits"] += sum(value_bits(v) for v in cells.values())

        fam, lam, r = spec["family"], spec.get("lam"), spec.get("r", 1)
        picked = set(self.rng.sample(range(spec["n_max"] + 1), min(self.rows, spec["n_max"] + 1)))
        if fam == "stirling1":
            for n in sorted(picked):
                self._first_kind_row(n, cells, lam)
        elif fam == "trunc-bernoulli":
            for l0 in sorted(picked):
                self._delta_row(l0, spec["alpha"], r, cells, lam)
        elif fam == "bell":
            ref = classical_stirling2(spec["n_max"])
            for (n, k), v in cells.items():
                _expect(v == str(ref[n, k]), "bell cell (%d, %d) = %s" % (n, k, v))
        elif fam == "klambda":
            for (n, _), v in cells.items():
                _expect(v == str(klambda_ones(n, lam)), "klambda cell %d = %s" % (n, v))
        elif fam in ("stirling2", "stirling2r", "stirling1r"):
            for (n, col), v in cells.items():
                if n in picked:
                    k = col // r
                    if fam == "stirling1r":
                        ref = d.bell_partial_enum(n, k, log_bell_inputs(n, r, lam))
                    else:
                        ref = d.stirling2r_binomial(n, k, r, lam)
                    _expect(v == str(ref),
                            "cell (%d, %d) = %s, other route gives %s" % (n, col, v, ref))
        else:
            raise CheckFailed("no check for family %r" % (fam,))
        if lam is None and fam in PLAIN | TRUNCATED:
            for (n, col), v in cells.items():
                if n in picked:
                    got = instantiate(v, self.lam0)
                    want = pinned_entry(fam, n, col // r, r, self.lam0).as_fraction()
                    _expect(got == want, "cell (%d, %d) at lambda=%s is %s, pinned mode gives %s"
                            % (n, col, self.lam0, got, want))

    def _first_kind_row(self, n, cells, lam):
        row = [read_elem(cells[n, j], lam) for j in range(n + 1)]
        for m in range(n + 1):
            acc = d.const(0, lam)
            for j in range(m, n + 1):
                acc = acc + row[j] * d.stirling2r_binomial(j, m, 1, lam)
            _expect(acc == (1 if m == n else 0),
                    "first-kind row %d times the second-kind column %d is %s" % (n, m, acc))

    def _delta_row(self, l0, alpha, r, cells, lam):
        ar = alpha * r
        n = l0 + ar
        total = d.const(0, lam)
        for l in range(l0 + 1):
            total = total + math.comb(n, l) * d.stirling2r_binomial(n - l, alpha, r, lam) \
                * read_elem(cells[l, alpha], lam)
        target = Fraction(math.factorial(ar), math.factorial(alpha)) if l0 == 0 else 0
        _expect(total == target, "delta relation at n=%d gives %s" % (n, total))

    def _verify(self, spec, stdout):
        reports = json.loads(stdout)
        tags = d.IDENTITY_TAGS if spec["identity"] == "all" else (spec["identity"],)
        for tag in tags:
            bounds = dict(d.DEFAULT_RANGES[tag])
            bounds.update((k, spec[k]) for k in ("n_max", "k_max", "r_max", "alpha_max")
                          if k in spec)
            got = sum(1 for rep in reports if rep["identity"] == tag)
            _expect(got == grid_size(tag, bounds),
                    "%s: %d reports, grid has %d" % (tag, got, grid_size(tag, bounds)))
        _expect(len(reports) == sum(1 for rep in reports if rep["identity"] in tags),
                "reports for identities not asked for")
        for rep in reports:
            same = rep["lhs"] == rep["rhs"]
            if rep["variant"] == d.AS_DERIVED:
                _expect(same and rep["equal"] is True,
                        "%s %s does not hold" % (rep["identity"], rep["params"]))
            else:
                _expect(rep["equal"] is same, "%s %s verdict disagrees with its sides"
                        % (rep["identity"], rep["params"]))
            self.work["coeff_bits"] += value_bits(rep["lhs"]) + value_bits(rep["rhs"])
        self.work["reports"] += len(reports)
