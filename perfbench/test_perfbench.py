"""Tests of the benchmark's own machinery: the checker catches a corrupted
output, and a traced run prints the same bytes as an untraced one and puts
every original object back."""

import gc
import json
import random
import re
from fractions import Fraction

import pytest

import degenstir
from checker import Checker
from child import run_commands
from degenstir import cli
from tracer import Tracer, _owners, layer_metrics
from workloads import WORKLOADS, build, pinned_lambdas, to_argv

SMALL = (
    {"command": "table", "family": "stirling2", "n_max": 6},
    {"command": "table", "family": "stirling1", "n_max": 6},
    {"command": "table", "family": "stirling2r", "n_max": 7, "k_max": 3, "r": 2},
    {"command": "table", "family": "stirling1r", "n_max": 7, "k_max": 3, "r": 2,
     "lam": Fraction(-7, 3)},
    {"command": "table", "family": "stirling1", "n_max": 6, "lam": Fraction(5, 2)},
    {"command": "table", "family": "trunc-bernoulli", "n_max": 5, "r": 2, "alpha": 2,
     "lam": Fraction(-2, 9)},
    {"command": "table", "family": "bell", "n_max": 6, "lam": Fraction(3, 4)},
    {"command": "table", "family": "klambda", "n_max": 6, "lam": Fraction(3, 4)},
    {"command": "verify", "identity": "thm4", "n_max": 3},
)


def outputs(specs):
    results, _ = run_commands(cli, [to_argv(s) for s in specs])
    return results


def checker():
    # check every row, so a single bad cell cannot be missed
    return Checker(random.Random(0), lam0=Fraction(-5, 3), rows=10 ** 6)


def corrupt_cell(stdout):
    """Change the first digit of the last nonzero cell of a CSV table."""
    lines = stdout.splitlines()
    for i in range(len(lines) - 1, 0, -1):
        n, k, value = lines[i].split(",", 2)
        if value != "0":
            digit = re.search(r"\d", value)
            bad = value[:digit.start()] + str((int(digit.group()) + 1) % 10) + value[digit.end():]
            lines[i] = "%s,%s,%s" % (n, k, bad)
            return "\n".join(lines) + "\n"
    raise AssertionError("no nonzero cell")


@pytest.mark.parametrize("spec", SMALL, ids=lambda s: " ".join(to_argv(s)))
def test_checker_passes_real_output_and_flags_a_corrupted_one(spec):
    result = outputs([spec])[0]
    assert checker().check(spec, result["code"], result["stdout"]) == []
    if spec["command"] == "table":
        bad = corrupt_cell(result["stdout"])
    else:
        reports = json.loads(result["stdout"])
        del reports[-1]
        bad = json.dumps(reports)
    assert checker().check(spec, 0, bad) != []
    assert checker().check(spec, 1, result["stdout"]) != []


def test_checker_flags_a_failed_as_derived_report():
    spec = {"command": "verify", "identity": "thm7", "n_max": 2, "k_max": 1}
    reports = json.loads(outputs([spec])[0]["stdout"])
    reports[0]["rhs"] = reports[0]["rhs"] + " + 1"
    reports[0]["equal"] = False
    assert checker().check(spec, 0, json.dumps(reports)) != []


def test_traced_stdout_is_byte_identical_and_originals_are_restored():
    owners = _owners(degenstir)
    before = [dict(vars(owner)) for owner in owners]
    plain = outputs(SMALL)
    tracer = Tracer()
    tracer.install(degenstir)
    try:
        traced = outputs(SMALL)
    finally:
        tracer.uninstall()
    assert [r["stdout"] for r in traced] == [r["stdout"] for r in plain]
    assert [r["code"] for r in traced] == [r["code"] for r in plain] == [0] * len(SMALL)
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert all(now[name] is value for name, value in saved.items())

    summary = tracer.summary()
    metrics = layer_metrics(summary, out_bytes=1)
    assert metrics["cli.main.calls"][0] == len(SMALL)
    assert metrics["identities.reports"][0] == len(json.loads(plain[-1]["stdout"]))
    assert metrics["field.poly_mul.calls"][0] > 0
    # self times partition the top-level spans: nothing counted twice or lost
    roots = sum(end - start for _, _, start, end, parent in summary["spans"] if parent is None)
    assert sum(summary["self_s"].values()) == pytest.approx(roots, rel=1e-6)


def test_workloads_are_seeded_and_avoid_poles():
    for workload in WORKLOADS:
        assert build(workload, 7) == build(workload, 7)
    lams = pinned_lambdas(random.Random(3))
    assert sorted(lam.denominator for lam in lams) == list(range(2, 10))
    assert sorted(abs(lam.numerator) for lam in lams) == list(range(2, 10))
    assert all(abs(lam.numerator) >= 2 for lam in lams)
    argv = to_argv({"command": "table", "family": "stirling2", "n_max": 3, "lam": Fraction(-1, 2)})
    assert argv[-1] == "--lambda=-1/2"


def test_host_probes_frame_every_command_and_leave_outputs_alone():
    argv = [to_argv(s) for s in SMALL[:3]]
    plain, no_probes = run_commands(cli, argv)
    probed, probes = run_commands(cli, argv, probe=True)
    assert no_probes == []
    assert len(probes) == len(argv) + 1 and all(p > 0 for p in probes)
    assert [r["stdout"] for r in probed] == [r["stdout"] for r in plain]
    assert gc.isenabled()
