"""The degenstir benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration of the workload runs in a
fresh child process (``child.py``), so every cache starts cold, as it does
for a CLI user; the child imports ``degenstir`` once and calls
``cli.main(argv)`` for every command of the workload.  Load model: closed
loop, one client, one process, no threads.  Iterations repeat until
``--seconds`` is used up, and every figure is the median over them.

The host's speed drifts by up to 1.8x over minutes (shared cores), and
every timing moves with it.  So each untraced iteration also runs a fixed
piece of pure-Python work, ``child.host_probe``, before every command and
after the last, and every end-to-end time is reported at a fixed host speed:
multiplied by ``PROBE_NOMINAL_S`` over the probe's mean time measured
alongside it.  The probe does not touch the program, so a change to the
program moves these times as it moves the raw ones; the raw times are in the
line before the result.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced iterations alternate, and the per-layer metrics come
from the traced ones (see ``tracer.py``).  Outputs are checked after the
timed loop (see ``checker.py``).  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and the work done.  Exit codes: 0 when
every output is correct, 1 when some output is wrong, 2 when the program
cannot be run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_PER_ITERATION = 3
# host_probe's mean time on a 2-vCPU 2.1 GHz Xeon (x86-64) virtual machine in
# a quiet phase; the host speed at which end-to-end times are reported
PROBE_NOMINAL_S = 0.012
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _now():
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # subtracted from the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, request=None):
    """Run one child; its report gains ``setup_s``, from spawn to ready."""
    start = _now()
    try:
        proc = subprocess.run(
            [sys.executable, "-E", "-s", CHILD, ROOT] + args,
            input=None if request is None else json.dumps(request),
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("child timed out after %d s" % CHILD_TIMEOUT_S) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("child exited with %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def run_loop(commands, seconds, trace):
    """Iterations until ``seconds`` would be exceeded, at least one.  Each
    starts with a few set-up-only children, so that set-up samples spread
    over the whole run like the iterations do; with ``trace``, each untraced
    iteration is followed by a traced one.  Returns (set-up samples, plain
    iterations, traced iterations)."""
    setup, plain, traced = [], [], []
    start = _now()
    while True:
        setup += [spawn(["--setup-only"])["setup_s"] for _ in range(SETUP_PER_ITERATION)]
        plain.append(spawn([], {"commands": commands, "trace": False, "outputs": not plain,
                                "probe": True}))
        setup.append(plain[-1]["setup_s"])
        if trace:
            traced.append(spawn([], {"commands": commands, "trace": True, "outputs": False}))
        elapsed = _now() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return setup, plain, traced


def check_outputs(workload, seed, specs, plain, traced):
    """Check the first iteration's outputs, and that every other iteration,
    traced or not, printed the same bytes.  Returns (attempted, failed,
    problems, work)."""
    # imported here: without the program, the children fail first and the
    # run ends with a message instead of an import traceback
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checker import Checker

    rng = random.Random("check:%s:%d" % (workload, seed))
    checker = Checker(rng, lam0=workloads.pinned_lambdas(rng)[0])
    first = plain[0]
    problems = [checker.check(spec, code, out)
                for spec, code, out in zip(specs, first["codes"], first["stdout"])]
    attempted = failed = 0
    for it in plain + traced:
        for i in range(len(specs)):
            attempted += 1
            if problems[i] or it["digests"][i] != first["digests"][i] \
                    or it["codes"][i] != first["codes"][i]:
                failed += 1
    work = dict(checker.work, commands=len(specs))
    return attempted, failed, [p for ps in problems for p in ps], work


def source_identity():
    """The commit when the checkout is a git work tree, and a digest of the
    program's sources, which needs no git."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "degenstir")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return commit, digest.hexdigest()


def host_factor(probes):
    """What turns a time measured alongside these probe times into a time
    at the nominal host speed."""
    return PROBE_NOMINAL_S / statistics.fmean(probes)


def end_to_end(setup, plain, items):
    """Medians over the run, at the nominal host speed: each iteration's
    wall time is scaled by its own probes, and the set-up samples, which
    are spread over the run, by all of them."""
    wall = statistics.median(it["wall_s"] * host_factor(it["probe_s"]) for it in plain)
    run_factor = host_factor([p for it in plain for p in it["probe_s"]])
    return {
        "setup_s": (statistics.median(setup) * run_factor, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in plain), "MB"),
    }


def per_layer(plain, traced):
    from tracer import layer_metrics

    per_it = [layer_metrics(it["trace"], it["out_bytes"]) for it in traced]
    out = {name: (statistics.median(m[name][0] for m in per_it), unit)
           for name, (_, unit) in per_it[0].items()}
    out["trace.overhead_ratio"] = (
        statistics.median(it["wall_s"] for it in traced)
        / statistics.median(it["wall_s"] for it in plain), "ratio")
    return out


def write_spans(workload, seed, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"columns": ["id", "name", "start", "end", "parent"],
                   "spans": traced[0]["trace"]["spans"]}, fh)
    return os.path.relpath(path, ROOT)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    specs = workloads.build(args.workload, args.seed)
    commands = [workloads.to_argv(s) for s in specs]
    try:
        spawn(["--setup-only"])  # fills the bytecode cache; not counted
        setup, plain, traced = run_loop(commands, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("benchmark error: %s" % (exc,), file=sys.stderr)
        return 2
    attempted, failed, problems, work = check_outputs(
        args.workload, args.seed, specs, plain, traced)
    items = work["cells"] + work["reports"]
    metrics = per_layer(plain, traced) if args.trace else end_to_end(setup, plain, items)
    for problem in problems:
        print("check failed: %s" % (problem,), file=sys.stderr)
    for index, text in sorted(plain[0]["errors"].items()):
        print("stderr of %s:\n%s" % (workloads.describe(specs[int(index)]), text), file=sys.stderr)

    commit, src_sha256 = source_identity()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": src_sha256,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commands": [workloads.describe(s) for s in specs],
        "work": work, "iterations": len(plain), "traced_iterations": len(traced),
        "setup_samples": len(setup),
        "raw_wall_s": [round(it["wall_s"], 4) for it in plain],
        "raw_setup_s": round(statistics.median(setup), 4),
        "probe_s": [round(statistics.fmean(it["probe_s"]), 5) for it in plain],
        "fail_ratio": failed / attempted, "problems": problems[:20],
    }
    if traced:
        meta["spans_file"] = write_spans(args.workload, args.seed, traced)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
