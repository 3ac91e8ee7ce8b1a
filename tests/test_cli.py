"""Command-line behaviour: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from degenstir import bernoulli, cli
from degenstir.field import const
from degenstir.identities import IdentityReport


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


def test_module_entry_point_reaches_a_deep_power():
    # python -m degenstir, with the source tree on the path and no install;
    # power 1500 lies far above row 8, so the entry must be zero without
    # filling any triangle
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "degenstir", "eval", "stirling2", "--n", "8", "--k", "1500",
         "--lambda", "1/3", "--precision", "8"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


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


def test_route_disagreement_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(bernoulli, "bell_partial_gf", lambda *a, **kw: const(7))
    code, out, err = run_cli(capsys, "eval", "bell", "--n", "3", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Bell routes disagree" in err


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
    # (argv, first index past precision p) for a table and for eval
    tail = (*extra, "--lambda", lam)
    return [(("table", family, "--n-max", "5", "--k-max", "2", *tail), lambda p: p + 1),
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
    for argv, index in _precision_commands(family, extra, lam):
        for p in (-1, 0, 3, 4):
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
               "error: division by a series with no known nonzero coefficient\n")
