"""Fuzzed command lines: whatever the argv, the exit-code contract holds.

Every run exits 0, 1 or 2, never with a traceback, and a usage or
computation error (exit 2) prints nothing on stdout.  The grammar keeps the
sizes small (n <= 5, r and alpha <= 3, verify bounds <= 3) and mixes valid
values with out-of-range indices, pole-hitting parameters, malformed
rationals, empty sequences and split or joined negative values.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from degenstir import cli, identities


def _mostly(good, bad):
    """Draw from ``good`` nine times in ten and from ``bad`` otherwise, so that
    most runs get past the parser and compute something."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


def _ints(lo, hi, bad_lo):
    return _mostly(st.integers(lo, hi), st.integers(bad_lo, lo - 1)).map(str)


_INDEX = _ints(0, 5, -2)
_BOUND = _ints(0, 3, -1)
_DEPTH = _ints(1, 3, -1)
_RATIONAL = _mostly(
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 4)) | st.integers(-4, 4).map(str),
    st.sampled_from(["1.5", "abc", "", "-", "1/0", "2/-3"]))
# the unit fractions 1/i are poles of the truncated Bernoulli values, and 0
# leaves the reciprocal parameter undefined
_LAMBDA = st.sampled_from(["symbolic", "0", "1", "1/2", "1/3"]) | _RATIONAL
_XS = st.sampled_from(["", ","]) | st.lists(_RATIONAL, max_size=6).map(",".join)


def _option(draw, flag, values):
    """A flag with its value, split (--flag v) or joined (--flag=v)."""
    value = draw(values)
    return [flag, value] if draw(st.booleans()) else ["%s=%s" % (flag, value)]


def _options(draw, required, optional):
    argv = []
    for flag, values in required:
        argv += _option(draw, flag, values)
    for flag, values in optional:
        if draw(st.booleans()):
            argv += _option(draw, flag, values)
    return argv


_FORMAT = _mostly(st.sampled_from(["csv", "json"]), st.just("xml"))
_COMMON = (("--lambda", _LAMBDA), ("--r", _DEPTH), ("--alpha", _DEPTH),
           ("--x", _RATIONAL), ("--xs", _XS), ("--precision", _ints(0, 8, -2)))


@st.composite
def argvs(draw):
    """An argv for one command.  The size flags are always given, so that no
    run falls back to the larger default bounds."""
    command = draw(st.sampled_from(["table", "eval", "verify"]))
    if command == "verify":
        tag = draw(_mostly(st.sampled_from(identities.IDENTITY_TAGS + ("all",)),
                           st.just("thm9")))
        bounds = (("--n-max", _BOUND), ("--k-max", _BOUND), ("--r", _DEPTH),
                  ("--alpha", _DEPTH))
        return ["verify", "--identity", tag] + _options(draw, bounds, (("--lambda", _LAMBDA),))
    family = draw(_mostly(st.sampled_from(sorted(cli.FAMILIES)), st.just("stirling3")))
    if command == "table":
        required = (("--n-max", _INDEX),)
        optional = (("--k-max", _INDEX), ("--format", _FORMAT)) + _COMMON
    else:
        required = (("--n", _INDEX),)
        optional = (("--k", _INDEX),) + _COMMON
    return [command, family] + _options(draw, required, optional)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_fuzzed_argv_honours_the_exit_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
