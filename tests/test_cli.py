"""Command-line behaviour: formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenstir import cli, field
from degenstir.field import const
from degenstir.identities import IdentityReport
from degenstir.stirling import build_triangle
from oracles import bell_enum, bell_power, k_lambda_series, report_json_obj


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_truncated_second_kind(capsys):
    code, out, _ = run_cli(capsys, "eval", "stirling2r",
                           "--n", "3", "--k", "1", "--r", "2", "--lambda", "symbolic")
    assert code == 0
    assert out == "(2)*l^2 + (-3)*l^1 + 1\n"


def test_eval_other_families(capsys):
    code, out, _ = run_cli(capsys, "eval", "bernoulli", "--n", "1", "--lambda", "0/1")
    assert code == 0 and out.strip() == "-1/2"
    code, out, _ = run_cli(capsys, "eval", "klambda", "--n", "2", "--lambda", "symbolic")
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", "bell", "--n", "3", "--k", "2",
                           "--xs", "1,1,1", "--lambda", "0/1")
    assert code == 0 and out.strip() == "3"


def test_table_classical_triangle(capsys):
    code, out, _ = run_cli(capsys, "table", "stirling2",
                           "--n-max", "4", "--lambda", "0/1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "4,2,7" in lines


def test_table_csv_and_json_values_match(capsys):
    args = ("table", "stirling2r", "--n-max", "6", "--r", "2", "--k-max", "3")
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    obj = json.loads(json_out)
    assert obj["family"] == "stirling2r" and obj["lambda"] == "symbolic"
    csv_rows = [line.split(",", 2) for line in csv_out.splitlines()[1:]]
    assert len(csv_rows) == len(obj["entries"])
    for row, entry in zip(csv_rows, obj["entries"]):
        assert int(row[0]) == entry["n"]
        assert int(row[1]) == entry["k"]
        assert row[2] == entry["value"]


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "table", "bernoulli", "--n-max", "6", "--format", "json")
    second = run_cli(capsys, "table", "bernoulli", "--n-max", "6", "--format", "json")
    assert first == second
    v1 = run_cli(capsys, "verify", "--identity", "thm7", "--n-max", "4", "--k-max", "2")
    v2 = run_cli(capsys, "verify", "--identity", "thm7", "--n-max", "4", "--k-max", "2")
    assert v1 == v2


def test_verify_reports_and_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "thm7",
                           "--n-max", "6", "--k-max", "3", "--lambda", "symbolic")
    assert code == 0
    reports = json.loads(out)
    assert reports and all(rep["equal"] for rep in reports)
    assert set(reports[0]) == {"identity", "variant", "params", "lhs", "rhs", "equal"}


def test_verify_printed_variants_do_not_fail_the_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "thm5",
                           "--n-max", "3", "--k-max", "2")
    assert code == 0
    reports = json.loads(out)
    assert any(rep["variant"] == "as-printed" and not rep["equal"] for rep in reports)


def test_verify_exit_one_on_a_failing_derived_report(capsys, monkeypatch):
    fake = IdentityReport(identity="thm4", variant="as-derived", params={},
                          lhs=const(0), rhs=const(1), equal=False)
    monkeypatch.setattr(cli.identities, "sweep", lambda *a, **kw: [fake])
    code, out, _ = run_cli(capsys, "verify", "--identity", "thm4")
    assert code == 1
    assert json.loads(out)[0]["equal"] is False


USAGE_ERRORS = (
    "eval stirling2 --n 3 --k oops",
    "eval stirling2 --n 2 --lambda 0.5",
    "table stirling2 --n-max 3 --r 0",
    # negative indices: each used to escape as a traceback with exit 1
    "eval stirling2 --n -1",
    "eval stirling2 --n 3 --k -1",
    "eval bell --n -1",
    "eval bell --n 3 --k -1",
    "eval klambda --n -1",
    "eval bernoulli --n -1",
    # each used to print an empty result and exit 0
    "table stirling2 --n-max 3 --k-max -2",
    "table bell --n-max 3 --k-max -1",
    "verify --identity delta --r 0",
    "verify --identity delta --alpha 0",
    "verify --identity thm7 --k-max -1",
)


def test_usage_errors_exit_two(capsys):
    for argv in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and "Traceback" not in err, argv


@pytest.mark.parametrize("argv,message", [
    ("table stirling2 --n-max 2 --precision -5", "error: --precision must be nonnegative"),
    # dropping the empty entry would read 1,2: every later x_i one index down
    ("eval klambda --n 2 --xs 1,,2", "error: argument --xs: "),
    ("eval klambda --n 2 --xs 1,2,", "error: argument --xs: "),
])
def test_malformed_common_flags_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "warning" not in err


def test_an_empty_xs_is_the_empty_sequence(capsys):
    assert run_cli(capsys, "eval", "klambda", "--n", "0", "--xs", "") == (0, "1\n", "")


@pytest.mark.parametrize("argv,command", [
    ("eval stirling2 --n 3 --r 0", "eval"),
    ("table bell --n-max 3 --precision 1", "table"),
])
def test_checks_after_parsing_report_with_the_subcommand_usage(capsys, argv, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: degenstir %s " % command)
    assert "\ndegenstir %s: error: " % command in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(*argv, **env):
    """``python -m degenstir`` in a new interpreter, with the source tree on
    the path and no install: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "degenstir", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC, **env),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_reaches_a_deep_power():
    # power 1500 lies far above row 8, so the entry must be zero without
    # filling any triangle
    assert run_fresh("eval", "stirling2", "--n", "8", "--k", "1500",
                     "--lambda", "1/3", "--precision", "8") == (0, "0\n", "")


# an argparse usage error, a check after parsing, a refused --precision,
# then a valid table
PARSER_REUSE = (
    "bogus",
    "table stirling2 --n-max 3 --r 0",
    "eval bell --n 2 --precision 3",
    "table stirling2r --n-max 5 --r 2 --format json",
)


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    # usage lines wrap at the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    for argv in PARSER_REUSE:
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == run_fresh(*argv.split(), COLUMNS="80"), argv
        assert code == (0 if argv.startswith("table stirling2r") else 2), argv
    assert out.startswith("{") and err == ""


def test_a_value_past_the_int_to_str_digit_cap_prints(capsys):
    # the numerator of S(3000, 1) at l = 2/7 has more than 4300 digits
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run_cli(capsys, "eval", "stirling2", "--n", "3000", "--k", "1",
                             "--lambda", "2/7")
    assert (code, len(out.encode()), err) == (0, 11712, "")
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("command,flag,value", [
    ("table trunc-bernoulli --n-max 3 --r 2", "--lambda", "-1/2"),
    ("table trunc-bernoulli --n-max 3 --r 2", "--x", "-1/2"),
    ("table klambda --n-max 2", "--xs", "-1,2"),
])
def test_split_negative_rationals_parse_like_the_joined_form(capsys, command, flag, value):
    split = run_cli(capsys, *command.split(), flag, value)
    assert split == run_cli(capsys, *command.split(), "%s=%s" % (flag, value))
    assert split[0] == 0 and split[1].startswith("n,k,value")


@pytest.mark.parametrize("lam", ["symbolic", "-2/7"])
@pytest.mark.parametrize("xs", [None, "0,1/2,-3,2,0,5"])
@pytest.mark.parametrize("family", ["bell", "klambda"])
def test_bell_and_reciprocal_tables_equal_their_second_routes(capsys, family, xs, lam):
    # the library reads each value off one route and checks it against no
    # other: every printed cell must be the tests' other routes, the power
    # form and the partition enumeration of a Bell cell, or one series
    # division per K(n)
    pinned = None if lam == "symbolic" else F(lam)
    seq = [F(1)] * 6 if xs is None else [F(x) for x in xs.split(",")]
    flags = [] if xs is None else ["--xs", xs]
    code, out, err = run_cli(capsys, "table", family, "--n-max", "6", "--lambda=" + lam, *flags)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    cells = [line.split(",", 2) for line in lines[1:]]
    assert len(cells) == (28 if family == "bell" else 7)
    for n, k, text in cells:
        n, k = int(n), int(k)
        if family == "bell":
            want = bell_power(n, k, seq, pinned)
            assert want == bell_enum(n, k, seq, pinned), (n, k)
        else:
            want = k_lambda_series(n, seq, pinned)
        assert text == str(want), (n, k)


@pytest.mark.parametrize("lam", ["symbolic", "-2/7"])
@pytest.mark.parametrize("xs", [None, "0,1/2,-3,2,0,5"])
@pytest.mark.parametrize("family,index", [
    ("bell", (1, 1)), ("bell", (4, 2)), ("bell", (6, 6)),
    ("klambda", (0,)), ("klambda", (4,)), ("klambda", (6,)),
])
def test_bell_and_reciprocal_values_equal_their_second_routes(capsys, family, index, xs, lam):
    # eval reads one value off the band of the triangle it needs, or off the
    # series reciprocal to its order, not off a table: at a first, a middle
    # and a last cell it must print the tests' other routes too
    pinned = None if lam == "symbolic" else F(lam)
    seq = [F(1)] * 6 if xs is None else [F(x) for x in xs.split(",")]
    flags = [] if xs is None else ["--xs", xs]
    if family == "bell":
        (n, k), index_flags = index, ["--n", str(index[0]), "--k", str(index[1])]
        want = bell_power(n, k, seq, pinned)
        assert want == bell_enum(n, k, seq, pinned)
    else:
        (n,), index_flags = index, ["--n", str(index[0])]
        want = k_lambda_series(n, seq, pinned)
    got = run_cli(capsys, "eval", family, *index_flags, "--lambda=" + lam, *flags)
    assert got == (0, str(want) + "\n", "")


def _traced_peak(argv):
    # the traced peak of one cold command, its output held in memory
    field.SYMBOLIC.memo.clear()
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_json_table_peaks_near_its_csv_peak():
    # the JSON document is written record by record, so it holds no second
    # copy of the table: not its records as dicts, nor the whole text
    argv = ["table", "stirling2", "--n-max", "100", "--format"]
    csv, as_json = _traced_peak(argv + ["csv"]), _traced_peak(argv + ["json"])
    assert as_json <= 1.2 * csv, (as_json, csv)


@pytest.mark.parametrize("lam", ["symbolic", "0", "-2/7", "1/2", "1"])
@pytest.mark.parametrize("family", ["stirling1", "stirling2", "stirling1r", "stirling2r"])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("k_max", [2, 12])
def test_a_stirling_table_is_the_text_of_its_triangle_values(capsys, lam, family, r, k_max):
    # the table writes each cell's text from its ints; the rows of
    # build_triangle, wrapped values, rendered by str and json.dumps, must
    # read the same, with --k-max below and above n
    n_max = 8
    mode = None if lam == "symbolic" else F(lam)
    argv = ("table", family, "--n-max", str(n_max), "--k-max", str(k_max), "--r", str(r),
            "--lambda=" + lam)
    field.domain(mode).memo.clear()
    got = {fmt: run_cli(capsys, *argv, "--format", fmt) for fmt in ("csv", "json")}
    rows = build_triangle(family, n_max, k_max, r, mode)
    assert got["csv"] == (0, "n,k,value\n" + "".join(
        "%d,%d,%s\n" % (n, k, v) for n, k, v in rows), "")
    entries = [{"n": n, "k": k, "value": str(v)} for n, k, v in rows]
    assert got["json"] == (0, json.dumps(
        {"family": family, "lambda": lam, "entries": entries}, indent=2) + "\n", "")


def test_a_cold_symbolic_table_keeps_no_wrapped_copy_of_its_cells():
    # the table renders each cell from its ints and keeps no element of it:
    # a cold table to n = 80 leaves its triangle traced, about 6 MiB, where
    # keeping every cell's element too left about 12 MiB
    field.SYMBOLIC.memo.clear()
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert cli.main(["table", "stirling2", "--n-max", "80"]) == 0
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    field.SYMBOLIC.memo.clear()
    assert left <= 8 * 2 ** 20, left


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'),
                          st.characters()), max_size=8)
_INT = st.integers(-10 ** 30, 10 ** 30)
_ROWS = st.lists(st.tuples(_INT, _INT, _TEXT), max_size=4)
_REPORTS = st.lists(st.builds(
    IdentityReport, identity=_TEXT, variant=_TEXT,
    params=st.dictionaries(_TEXT, st.one_of(_INT, st.booleans(), _TEXT), max_size=3),
    lhs=_TEXT, rhs=_TEXT, equal=st.booleans()), max_size=3)


@settings(max_examples=100, deadline=None)
@given(_TEXT, _TEXT, _ROWS)
@example("bell", "symbolic", [])
@example("klambda", "-2/7", [(0, 0, const(1, -2)), (-3, 5, const(-1)), (1, -1, "a\"b\\")])
def test_the_table_writer_is_json_dumps_with_indent_two(family, lam_label, rows):
    out = io.StringIO()
    cli._write_table(out.write, family, lam_label, rows)
    obj = {"family": family, "lambda": lam_label,
           "entries": [{"n": n, "k": k, "value": str(v)} for n, k, v in rows]}
    assert out.getvalue() == json.dumps(obj, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(_REPORTS)
@example([])
@example([IdentityReport("thm3", "as-derived", {}, const(1), const(2), False),
          IdentityReport("delta", "as-printed", {"n": -1, "x": "\u00e9\n", "odd": True},
                         "\"", "\\", True)])
def test_the_report_writer_is_json_dumps_with_indent_two(reports):
    out = io.StringIO()
    cli._write_reports(out.write, reports)
    assert out.getvalue() == json.dumps([report_json_obj(rep) for rep in reports], indent=2) + "\n"


def test_the_report_writer_renders_a_shared_side_once_and_escapes_its_templates():
    # reports of one (identity, variant, parameter names) share a template
    # whose literal text may hold %; a side that is the other side's object
    # is rendered once, and a side only equal to the other is rendered too
    rendered = []

    class Side:
        def __init__(self, text):
            self.text = text

        def __str__(self):
            rendered.append(self.text)
            return self.text

    a, b = Side("100%"), Side("100%")
    reports = [IdentityReport("%s%d%%", "as-%", {"%(n)s": 1, "x": "%s"}, a, a, True),
               IdentityReport("%s%d%%", "as-%", {"%(n)s": -2, "x": "%%"}, a, b, True),
               IdentityReport("%s%d%%", "as-%", {"%(n)s": True, "x": 3}, b, a, False)]
    want = json.dumps([report_json_obj(rep) for rep in reports], indent=2) + "\n"
    rendered.clear()
    out = io.StringIO()
    cli._write_reports(out.write, reports)
    assert out.getvalue() == want
    assert len(rendered) == 5


def test_computation_errors_exit_two(capsys):
    # truncation depth 2 at the pinned value 1 hits a genuine pole
    code, _, err = run_cli(capsys, "eval", "trunc-bernoulli",
                           "--n", "1", "--r", "2", "--lambda", "1/1")
    assert code == 2 and "error:" in err


def test_precision_override_warns_when_low(capsys):
    code, out, err = run_cli(capsys, "eval", "stirling2", "--n", "3", "--k", "2",
                             "--precision", "8")
    assert code == 0 and err == ""
    code, _, err = run_cli(capsys, "eval", "stirling2", "--n", "3", "--k", "2",
                           "--precision", "2")
    assert code == 2
    assert "below the derived safe bound" in err


@pytest.mark.parametrize("argv", [
    "eval bell --n 3 --k 2 --precision 1",
    "table bell --n-max 3 --precision 1",
    "eval klambda --n 3 --precision 9",
    "table klambda --n-max 3 --precision 9",
])
def test_precision_is_refused_for_families_without_a_working_precision(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: --precision does not apply" in err
    assert "Traceback" not in err


def test_order_table_warns_once_with_its_n_max_bound(capsys):
    code, out, err = run_cli(capsys, "table", "trunc-bernoulli", "--n-max", "12",
                             "--r", "2", "--alpha", "2", "--precision", "5")
    assert code == 2 and out == ""
    assert err == ("warning: --precision 5 is below the derived safe bound 12\n"
                   "error: index 6 exceeds requested precision 5\n")


# every family that takes --precision, with arguments that give it nonzero
# cells; a table's bound is its --n-max and eval's its --n, both 5 here
_PRECISION_FAMILIES = [
    ("stirling1", ()),
    ("stirling2", ()),
    ("stirling2r", ("--r", "2")),
    ("stirling1r", ("--r", "2")),
    ("bernoulli", ("--alpha", "2", "--x", "1/2")),
    ("trunc-bernoulli", ("--r", "2", "--alpha", "2")),
]


def _precision_commands(family, extra, lam):
    # (argv, first index past precision p) for a CSV and a JSON table and for eval
    tail = (*extra, "--lambda", lam)
    return [(("table", family, "--n-max", "5", "--k-max", "2", *tail), lambda p: p + 1),
            (("table", family, "--n-max", "5", "--k-max", "2", "--format", "json", *tail),
             lambda p: p + 1),
            (("eval", family, "--n", "5", "--k", "2", *tail), lambda p: 5)]


@pytest.mark.parametrize("lam", ["symbolic", "1/3"])
@pytest.mark.parametrize("family,extra", _PRECISION_FAMILIES)
def test_precision_at_or_above_the_bound_changes_no_output(capsys, family, extra, lam):
    for argv, _ in _precision_commands(family, extra, lam):
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0 and plain[1] and plain[2] == ""
        for p in (5, 6, 13, 40):
            assert run_cli(capsys, *argv, "--precision", str(p)) == plain, (argv, p)


@pytest.mark.parametrize("lam", ["symbolic", "1/3"])
@pytest.mark.parametrize("family,extra", _PRECISION_FAMILIES)
def test_precision_below_the_bound_warns_then_fails_past_it(capsys, family, extra, lam):
    # a negative --precision is a usage error (see the malformed-flag test)
    for argv, index in _precision_commands(family, extra, lam):
        for p in (0, 3, 4):
            err = ("warning: --precision %d is below the derived safe bound 5\n"
                   "error: index %d exceeds requested precision %d\n" % (p, index(p), p))
            assert run_cli(capsys, *argv, "--precision=%d" % p) == (2, "", err), (argv, p)


def test_a_truncated_table_fails_at_the_row_after_the_precision(capsys):
    assert run_cli(capsys, "table", "stirling2r", "--n-max", "5", "--r", "2",
                   "--k-max", "2", "--precision", "3") == (
        2, "", "warning: --precision 3 is below the derived safe bound 5\n"
               "error: index 4 exceeds requested precision 3\n")


def test_a_pole_in_row_zero_is_reported_before_the_precision(capsys):
    # row 0 is computed, and fails, before row 4 would pass the precision
    assert run_cli(capsys, "table", "trunc-bernoulli", "--n-max", "5", "--r", "2",
                   "--lambda", "1", "--precision", "3") == (
        2, "", "warning: --precision 3 is below the derived safe bound 5\n"
               "error: E = (1)_{r,lambda} vanishes at r=2, lambda=1\n")
