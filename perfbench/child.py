"""One workload iteration in a fresh process, so every cache starts cold.

Usage: ``python3 child.py ROOT`` reads a JSON request on stdin
(``{"commands": [argv, ...], "trace": bool, "outputs": bool, "probe": bool}``)
and prints one JSON line: the monotonic time at which ``degenstir`` was
imported and its parser built, the commands' wall time, each command's exit
code and a digest of its output, the peak resident memory, and the times of
the host probes run between the commands when ``probe`` is set.  With
``--setup-only`` it stops after the import and reads nothing.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def load_program(root):
    """Import ``degenstir`` from the checkout and build its parser."""
    sys.pycache_prefix = os.path.join(root, ".bench_build", "pycache")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import degenstir
    from degenstir import cli
    if not degenstir.__file__.startswith(src + os.sep):
        raise ImportError("degenstir imported from %s, not from the checkout" % degenstir.__file__)
    cli.build_parser()
    return degenstir, cli


PROBE_REPEATS = 6


def host_probe():
    """A fixed piece of pure-Python work that does not touch the program:
    exact polynomial products over ``Fraction``, the same kind of
    arithmetic as the program's hot path.  Its time measures how fast the
    host runs Python right now.  The collector is off meanwhile, so that the
    program's live objects cannot make the probe slower."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            a = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
            for _ in range(3):
                p = [Fraction(0)] * 23
                for i, x in enumerate(a):
                    for j, y in enumerate(a):
                        p[i + j] += x * y
                a = [p[i] / (i + 1) for i in range(12)]
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_commands(cli, commands, probe=False):
    """Run each argv through ``cli.main`` with stdout and stderr captured.

    Returns (per-command results, host probe times).  A command's exit code
    is ``None`` when it raised.  With ``probe``, ``host_probe`` runs before
    every command and after the last, outside the commands' timing.
    """
    results, probes = [], []
    for argv in commands:
        if probe:
            probes.append(host_probe())
        began = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "seconds": time.perf_counter() - began})
    if probe:
        probes.append(host_probe())
    return results, probes


def main(argv):
    root = argv[1]
    degenstir, cli = load_program(root)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0
    request = json.loads(sys.stdin.read())
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(degenstir)
    try:
        results, probes = run_commands(cli, request["commands"], request.get("probe", False))
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "ready": ready,
        "wall_s": sum(r["seconds"] for r in results),
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": [r["code"] for r in results],
        "digests": [hashlib.sha256(r["stdout"].encode()).hexdigest() for r in results],
        "out_bytes": sum(len(r["stdout"].encode()) for r in results),
        "errors": {i: r["stderr"] for i, r in enumerate(results) if r["code"] != 0},
    }
    if request["outputs"]:
        report["stdout"] = [r["stdout"] for r in results]
    if tracer is not None:
        report["trace"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
