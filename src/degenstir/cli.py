"""Command-line front end: tables, single values, and identity audits.

Exactness is the product, so the parameter is entered either as the literal
``symbolic`` or as a rational ``p/q``; there is no floating-point entry.
Output is deterministic byte for byte: fixed row order (n ascending, then
the column index ascending), canonical value strings, two-space JSON
indentation.

Exit codes: 0 on success (for ``verify``: every as-derived report holds),
1 when an as-derived report fails, 2 on usage or computation errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import identities
from .bernoulli import bell_partial, degen_bernoulli, k_lambda, trunc_degen_bernoulli
from .errors import DegenstirError, PrecisionExceeded
from .field import rational_str
from .stirling import FAMILIES as STIRLING_FAMILIES
from .stirling import build_triangle, family_entry

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
    return [_rational(part) for part in text.split(",") if part != ""]


def build_parser() -> argparse.ArgumentParser:
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
)


def _validate(args):
    for attr, least, message in _LEAST:
        value = getattr(args, attr, None)
        if value is not None and value < least:
            args.subparser.error(message)
    if getattr(args, "precision", None) is not None and not FAMILIES[args.family][2]:
        args.subparser.error("--precision does not apply to %s" % args.family)


def _warn_precision(args, derived: int):
    if args.precision is not None and args.precision < derived:
        print("warning: --precision %d is below the derived safe bound %d"
              % (args.precision, derived), file=sys.stderr)


def _check_index(args, n: int):
    # --precision bounds the indices a command reads; no value depends on it
    if args.precision is not None and n > args.precision:
        raise PrecisionExceeded("index %d exceeds requested precision %d"
                                % (n, args.precision))


def _default_xs(args, length: int):
    if args.xs is not None:
        return args.xs
    return [Fraction(1)] * length


def _triangle_rows(args, value):
    # the Stirling families: their values come from build_triangle.  No entry
    # can fail, so the first row past --precision is checked before any is built
    _warn_precision(args, args.n_max)
    if args.precision is not None:
        _check_index(args, min(args.n_max, args.precision + 1))
    return build_triangle(args.family, args.n_max, args.k_max, args.r, args.lam)


def _order_rows(args, value):
    # row by row, so an error in a row below --precision comes first
    _warn_precision(args, args.n_max)
    rows = []
    for n in range(args.n_max + 1):
        _check_index(args, n)
        rows.append((n, args.alpha, value(args, n, 0)))
    return rows


def _bell_rows(args, value):
    k_max = args.n_max if args.k_max is None else args.k_max
    return [(n, k, value(args, n, k))
            for n in range(args.n_max + 1) for k in range(min(n, k_max) + 1)]


def _sequence_rows(args, value):
    return [(n, 0, value(args, n, 0)) for n in range(args.n_max + 1)]


def _stirling_value(a, n, k):
    return family_entry(a.family, n, k, a.r, a.lam)


# family -> (value(args, n, k), table rows(args, value), takes --precision?).
# The Stirling families are those of the stirling module; the rows of the
# Bernoulli families carry the order alpha in the column, those of klambda 0.
# bell and klambda refuse --precision.
FAMILIES = {
    **dict.fromkeys(STIRLING_FAMILIES, (_stirling_value, _triangle_rows, True)),
    "bernoulli": (lambda a, n, k: degen_bernoulli(n, a.alpha, a.x, a.lam),
                  _order_rows, True),
    "trunc-bernoulli": (lambda a, n, k: trunc_degen_bernoulli(n, a.r, a.alpha, a.x, a.lam),
                        _order_rows, True),
    "bell": (lambda a, n, k: bell_partial(n, k, _default_xs(a, max(n, 1)), a.lam),
             _bell_rows, False),
    "klambda": (lambda a, n, k: k_lambda(n, _default_xs(a, max(n, 1)), a.lam),
                _sequence_rows, False),
}


def _run_table(args) -> int:
    value, rows, _ = FAMILIES[args.family]
    rows = rows(args, value)
    lam_label = "symbolic" if args.lam is None else rational_str(args.lam)
    if args.format == "csv":
        print("n,k,value")
        for n, k, v in rows:
            print("%d,%d,%s" % (n, k, v))
    else:
        obj = {
            "family": args.family,
            "lambda": lam_label,
            "entries": [{"n": n, "k": k, "value": str(v)} for n, k, v in rows],
        }
        print(json.dumps(obj, indent=2))
    return 0


def _run_eval(args) -> int:
    value, _, _ = FAMILIES[args.family]
    _warn_precision(args, args.n)
    _check_index(args, args.n)
    print(str(value(args, args.n, args.k)))
    return 0


def _run_verify(args) -> int:
    tags = identities.IDENTITY_TAGS if args.identity == "all" else (args.identity,)
    reports = []
    for tag in tags:
        reports.extend(identities.sweep(
            tag, n_max=args.n_max, k_max=args.k_max,
            r_max=args.r_max, alpha_max=args.alpha_max, lam=args.lam))
    print(json.dumps([rep.to_json_obj() for rep in reports], indent=2))
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
