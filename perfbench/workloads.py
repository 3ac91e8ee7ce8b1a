"""The benchmark's workloads: seeded lists of CLI commands.

A command is a plain dict (its spec); ``to_argv`` turns it into the argv
that ``degenstir.cli.main`` receives.  The checker reads the spec, never the
argv, so it does not depend on the program's argument parser.

Sizes are fixed per workload, so that two seeds do the same amount of work;
the seed picks the order of the table commands, the pinned parameter values,
and the rows the checker samples.  One iteration of each workload takes a few
seconds on one core of a 2-vCPU x86-64 (2.1 GHz Xeon) virtual machine.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("symbolic-tables", "pinned-sweep", "symbolic-verify")

# Every value in these tables is a polynomial in the parameter, so the
# polynomial multiply is the hot path and poly_gcd is never called.  The
# symbolic trunc-bernoulli table is left out on purpose: its values are
# genuine quotients (212 poly_gcd calls at n <= 13), and the symbolic
# Bernoulli layer is measured by symbolic-verify instead.
SYMBOLIC_TABLES = (
    {"command": "table", "family": "stirling2", "n_max": 16},
    {"command": "table", "family": "stirling1", "n_max": 16},
    {"command": "table", "family": "stirling2r", "n_max": 16, "k_max": 8, "r": 2},
    {"command": "table", "family": "stirling1r", "n_max": 16, "k_max": 8, "r": 2},
)

# Run once per pinned parameter value.  Pinned mode makes no polynomial
# multiplies, and each new value fills a fresh set of value-keyed caches.
PINNED_PER_LAMBDA = (
    {"command": "table", "family": "stirling2", "n_max": 16},
    {"command": "table", "family": "stirling1", "n_max": 16},
    {"command": "table", "family": "stirling2r", "n_max": 16, "k_max": 8, "r": 2},
    {"command": "table", "family": "stirling1r", "n_max": 16, "k_max": 8, "r": 2},
    {"command": "table", "family": "trunc-bernoulli", "n_max": 16, "r": 3, "alpha": 3},
    {"command": "table", "family": "bell", "n_max": 8},
    {"command": "table", "family": "klambda", "n_max": 10},
    {"command": "verify", "identity": "all"},
)

# Bounds at 1.0x to 1.5x of the program's per-identity defaults, chosen so
# that one iteration stays at a few seconds; here genuine rational functions
# appear, so poly_gcd and series division run.  They run in this fixed order:
# the time of one identity depends on which ran before it in the process
# (beta-closed: 0.09 s before delta and thm4, 0.20 s after them), whereas the
# order of the table commands moves no command's time.
SYMBOLIC_VERIFY = (
    {"command": "verify", "identity": "thm3", "n_max": 7, "k_max": 3, "r_max": 3},
    {"command": "verify", "identity": "thm4", "n_max": 10},
    {"command": "verify", "identity": "thm5", "n_max": 8, "k_max": 4},
    {"command": "verify", "identity": "thm6", "n_max": 8},
    {"command": "verify", "identity": "thm7", "n_max": 8, "k_max": 4},
    {"command": "verify", "identity": "thm8", "n_max": 8, "k_max": 3},
    {"command": "verify", "identity": "delta", "n_max": 7, "r_max": 3, "alpha_max": 3},
    {"command": "verify", "identity": "expansion", "n_max": 6, "r_max": 3},
    {"command": "verify", "identity": "beta-closed", "r_max": 4},
)


def pinned_lambdas(rng: random.Random):
    """Eight values +-p/q in lowest terms, p and q each running once over
    2..9, four of each sign.

    The numerator is at least 2, which avoids every pole 1/i.  Only the
    pairing and the signs depend on the seed: every seed gets the same
    numerators, denominators and signs, so two seeds do comparable work.
    """
    ps = list(range(2, 10))
    while True:
        rng.shuffle(ps)
        if all(math.gcd(p, q) == 1 for p, q in zip(ps, range(2, 10))):
            break
    signs = [-1, 1] * 4
    rng.shuffle(signs)
    out = [Fraction(s * p, q) for s, p, q in zip(signs, ps, range(2, 10))]
    rng.shuffle(out)
    return out


def build(workload: str, seed: int):
    """The command specs of one workload iteration, in execution order."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "symbolic-tables":
        specs = [dict(s) for s in SYMBOLIC_TABLES]
        rng.shuffle(specs)
    elif workload == "symbolic-verify":
        specs = [dict(s) for s in SYMBOLIC_VERIFY]
    elif workload == "pinned-sweep":
        specs = [dict(s, lam=lam) for lam in pinned_lambdas(rng) for s in PINNED_PER_LAMBDA]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return specs


_OPTIONS = (("n_max", "--n-max"), ("k_max", "--k-max"), ("r", "--r"),
            ("alpha", "--alpha"), ("r_max", "--r"), ("alpha_max", "--alpha"))


def to_argv(spec):
    """The argv for ``cli.main``.

    A pinned value is passed as ``--lambda=p/q``: argparse takes the split
    form ``--lambda -1/2`` for a missing argument followed by an option, so
    negative values would fail in that form.
    """
    if spec["command"] == "table":
        argv = ["table", spec["family"]]
    else:
        argv = ["verify", "--identity", spec["identity"]]
    for key, flag in _OPTIONS:
        if key in spec:
            argv += [flag, str(spec[key])]
    if spec.get("lam") is not None:
        argv.append("--lambda=%s" % (spec["lam"],))
    return argv


def describe(spec) -> str:
    return " ".join(to_argv(spec))
