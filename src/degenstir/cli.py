"""Command-line front end: tables, single values, and identity audits.

Exactness is the product, so the parameter is entered either as the literal
``symbolic`` or as a rational ``p/q``; there is no floating-point entry.
Output is deterministic byte for byte: fixed row order (n ascending, then
the column index ascending), canonical value strings, and JSON laid out as
``json.dumps(obj, indent=2)`` lays it out.  One JSON writer serves tables
and ``verify`` reports: it writes one record at a time, each from a literal
template, so a document is never held whole as dicts or as text.  A report
is written from one template per (identity, variant, parameter names),
made on its first use in the call with those parts filled in and escaped
for ``%``; a side that is the other side's object is rendered once.  Every
row or report but a Stirling table's is computed before the first byte, so
a command that fails prints nothing on stdout.  A Stirling table checks its
arguments and ``--precision`` first; then each row is computed while it is
written, on ints, and each cell's text rendered from them: neither can fail.
A CSV table is one ``write`` per row, through ``sys.stdout.write`` bound
once per table.

Exit codes: 0 on success (for ``verify``: every as-derived report holds),
1 when an as-derived report fails, 2 on usage or computation errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str

from . import identities
from .bernoulli import (
    bell_partial,
    bell_rows,
    degen_bernoulli,
    k_lambda,
    k_lambda_rows,
    trunc_degen_bernoulli,
)
from .errors import DegenstirError, PrecisionExceeded
from .field import rational_str
from .stirling import FAMILIES as STIRLING_FAMILIES
from .stirling import family_entry, table_text

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")
_RATIONAL_FLAGS = ("--lambda", "--x", "--xs")


def _rational(text: str) -> Fraction:
    # only integer and p/q forms; decimal/float notation is rejected
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError("not a rational p/q: %r" % (text,))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("zero denominator: %r" % (text,))


def _lambda_mode(text: str):
    if text == "symbolic":
        return None
    return _rational(text)


def _xs_list(text: str):
    # an empty entry is refused by _rational, not dropped: that would move
    # every later x_i down one index
    return [_rational(part) for part in text.split(",")] if text else []


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later call in the process.  Callers get the shared parser and must not
    mutate it."""
    parser = argparse.ArgumentParser(
        prog="degenstir",
        description="Exact tables and identity audits for deformed special numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--lambda", dest="lam", type=_lambda_mode, default=None,
                       metavar="p/q|symbolic",
                       help="parameter mode: a rational p/q, or 'symbolic' (default)")
        p.add_argument("--r", type=int, default=1, help="truncation depth (>= 1)")
        p.add_argument("--alpha", type=int, default=1, help="order (>= 1)")
        p.add_argument("--x", type=_rational, default=Fraction(0),
                       help="polynomial argument for Bernoulli families")
        p.add_argument("--xs", type=_xs_list, default=None,
                       help="comma-separated rationals for bell/klambda (default: all ones)")
        p.add_argument("--precision", type=int, default=None,
                       help="bound the indices the command may read; never changes a "
                            "value, and below the derived bound warns and exits 2 "
                            "(not for bell/klambda)")

    table = sub.add_parser("table", help="stream a triangle or sequence")
    table.add_argument("family", choices=FAMILIES)
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument("--k-max", type=int, default=None)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    common(table)

    ev = sub.add_parser("eval", help="print one canonical value")
    ev.add_argument("family", choices=FAMILIES)
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--k", type=int, default=0)
    common(ev)

    ver = sub.add_parser("verify", help="audit an identity over a parameter grid")
    ver.add_argument("--identity", required=True,
                     choices=identities.IDENTITY_TAGS + ("all",))
    ver.add_argument("--n-max", type=int, default=None)
    ver.add_argument("--k-max", type=int, default=None)
    ver.add_argument("--r", dest="r_max", type=int, default=None,
                     help="sweep bound for the truncation depth")
    ver.add_argument("--alpha", dest="alpha_max", type=int, default=None,
                     help="sweep bound for the order")
    ver.add_argument("--lambda", dest="lam", type=_lambda_mode, default=None,
                     metavar="p/q|symbolic")
    # _validate reports through the subcommand's own parser, so its errors
    # carry that subcommand's usage line like argparse's own errors do
    for p in (table, ev, ver):
        p.set_defaults(subparser=p)
    return parser


# (attribute, least value, message); attributes a command lacks or leaves
# unset are skipped
_LEAST = (
    ("r", 1, "--r must be at least 1"),
    ("r_max", 1, "--r must be at least 1"),
    ("alpha", 1, "--alpha must be at least 1"),
    ("alpha_max", 1, "--alpha must be at least 1"),
    ("n_max", 0, "--n-max must be nonnegative"),
    ("k_max", 0, "--k-max must be nonnegative"),
    ("n", 0, "--n must be nonnegative"),
    ("k", 0, "--k must be nonnegative"),
    ("precision", 0, "--precision must be nonnegative"),
)


def _validate(args):
    for attr, least, message in _LEAST:
        value = getattr(args, attr, None)
        if value is not None and value < least:
            args.subparser.error(message)
    if getattr(args, "precision", None) is not None and args.family in _NO_PRECISION:
        args.subparser.error("--precision does not apply to %s" % args.family)


def _bound(args, derived: int) -> int:
    # --precision bounds the indices a command reads and never changes a
    # value: below the derived bound it warns, and the command reads up to
    # it, so that an error at or below it comes first, then fails past it
    if args.precision is None or args.precision >= derived:
        return derived
    print("warning: --precision %d is below the derived safe bound %d"
          % (args.precision, derived), file=sys.stderr)
    return args.precision


def _exceeded(args, index: int) -> PrecisionExceeded:
    return PrecisionExceeded("index %d exceeds requested precision %d" % (index, args.precision))


def _default_xs(args, length: int):
    # all ones up to a table's last row, so that its rows read one triangle
    return [Fraction(1)] * max(length, 1) if args.xs is None else args.xs


def _order(value):
    # a Bernoulli family's value and rows, one row per n, computed in turn so
    # that an error is reported at its row
    return value, lambda a, top: [(n, a.alpha, value(a, n, 0)) for n in range(top + 1)]


# family -> (value(args, n, k), rows(args, top)), rows giving a table's rows
# n <= top, so that one bound serves every family.  The Stirling families are
# those of the stirling module, their rows the lazy text rows of
# ``stirling.table_text``; the rows of the Bernoulli families carry the
# order alpha in the column, those of klambda 0.  bell and klambda prepare
# one sequence per table, and refuse --precision.
FAMILIES = {
    **dict.fromkeys(STIRLING_FAMILIES, (
        lambda a, n, k: family_entry(a.family, n, k, a.r, a.lam),
        lambda a, top: table_text(a.family, top, a.k_max, a.r, a.lam))),
    "bernoulli": _order(lambda a, n, k: degen_bernoulli(n, a.alpha, a.x, a.lam)),
    "trunc-bernoulli": _order(
        lambda a, n, k: trunc_degen_bernoulli(n, a.r, a.alpha, a.x, a.lam)),
    "bell": (lambda a, n, k: bell_partial(n, k, _default_xs(a, n), a.lam),
             lambda a, top: bell_rows(top, top if a.k_max is None else a.k_max,
                                      _default_xs(a, top), a.lam)),
    "klambda": (lambda a, n, k: k_lambda(n, _default_xs(a, n), a.lam),
                lambda a, top: k_lambda_rows(top, _default_xs(a, top), a.lam)),
}
_NO_PRECISION = ("bell", "klambda")


# The JSON writer: each document laid out byte for byte as
# json.dumps(obj, indent=2) lays it out, written one record at a time, each
# from a literal template with its strings escaped as json escapes them.
_ENTRY = '{\n      "n": %d,\n      "k": %d,\n      "value": %s\n    }'
_REPORT = ('{\n    "identity": %s,\n    "variant": %s,\n    "params": %s,\n'
           '    "lhs": %s,\n    "rhs": %s,\n    "equal": %s\n  }')


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError("no JSON text for %r" % (value,))


def _report_template(identity, variant, names) -> str:
    # _REPORT with the identity, the variant and the parameter names filled
    # in, their text escaped for %, and a %s left for each parameter value,
    # lhs, rhs and equal
    def literal(text):
        return _json_str(text).replace("%", "%%")

    params = "{\n%s\n    }" % ",\n".join(
        "      %s: %%s" % literal(name) for name in names) if names else "{}"
    return _REPORT % (literal(identity), literal(variant), params, "%s", "%s", "%s")


def _write_array(write, records, pad: str):
    # a JSON array of formatted records, each on lines indented by pad;
    # json.dumps writes an empty array as []
    sep = "[\n"
    for record in records:
        write(sep + pad + record)
        sep = ",\n"
    write("[]" if sep == "[\n" else "\n%s]" % pad[2:])


def _write_table(write, family: str, lam_label: str, rows):
    write('{\n  "family": %s,\n  "lambda": %s,\n  "entries": '
          % (_json_str(family), _json_str(lam_label)))
    _write_array(write, (_ENTRY % (n, k, _json_str(str(v))) for n, k, v in rows), "    ")
    write("\n}\n")


def _write_reports(write, reports):
    # one template per (identity, variant, parameter names) for the call; a
    # side that is the other side's object is rendered once
    templates = {}

    def record(rep):
        params = rep.params
        key = rep.identity, rep.variant, tuple(params)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _report_template(*key)
        lhs = _json_str(str(rep.lhs))
        rhs = lhs if rep.rhs is rep.lhs else _json_str(str(rep.rhs))
        return template % (*map(_json_scalar, params.values()), lhs, rhs,
                           _json_scalar(rep.equal))

    _write_array(write, map(record, reports), "  ")
    write("\n")


def _run_table(args) -> int:
    top = _bound(args, args.n_max)
    rows = FAMILIES[args.family][1](args, top)
    if top < args.n_max:
        raise _exceeded(args, top + 1)
    lam_label = "symbolic" if args.lam is None else rational_str(args.lam)
    if args.format == "csv":
        write = sys.stdout.write
        write("n,k,value\n")
        for row in rows:
            write("%d,%d,%s\n" % row)
    else:
        _write_table(sys.stdout.write, args.family, lam_label, rows)
    return 0


def _run_eval(args) -> int:
    if _bound(args, args.n) < args.n:
        raise _exceeded(args, args.n)
    print(str(FAMILIES[args.family][0](args, args.n, args.k)))
    return 0


def _run_verify(args) -> int:
    tags = identities.IDENTITY_TAGS if args.identity == "all" else (args.identity,)
    reports = []
    for tag in tags:
        reports.extend(identities.sweep(
            tag, n_max=args.n_max, k_max=args.k_max,
            r_max=args.r_max, alpha_max=args.alpha_max, lam=args.lam))
    _write_reports(sys.stdout.write, reports)
    return 0 if identities.all_derived_equal(reports) else 1


def _join_negative_values(argv):
    # argparse reads a value such as -1/2 after a flag as another flag, so it
    # is joined to its flag in the --flag=-1/2 form that argparse accepts
    out = []
    for token in argv:
        if out and out[-1] in _RATIONAL_FLAGS and re.match(r"-\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    _validate(args)
    # an exact value can run past Python's cap on int-to-str digits (4300 by
    # default; no cap before 3.10.7), so lift it and give the caller theirs back
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.command == "table":
            return _run_table(args)
        if args.command == "eval":
            return _run_eval(args)
        return _run_verify(args)
    except DegenstirError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run_main():
    sys.exit(main())


if __name__ == "__main__":
    run_main()
