"""One workload pass in a fresh process: import cychom, run each command.

    python3 perfbench/child.py <plan.json>

The plan names the checkout root, the argument lists, whether to trace,
and where to write spans.  The last line of stdout is a JSON object with
the monotonic time at which ``cychom.cli`` was ready, each command's
exit code, output and seconds, the peak RSS, and, when traced, the
per-layer metrics.  Commands run in this process through
``cychom.cli.main``, exactly as the ``cychom`` entry point runs them.

A plan with ``"reference": true`` runs `reference_job` instead.
"""

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction


def reference_job():
    """A fixed job that uses no cychom code, to gauge the host's speed.

    It imports numpy, as the program does, and runs Gauss-Jordan
    elimination over Q on a fixed 32 x 32 integer matrix: interpreter
    start-up, module loading and exact arithmetic, the kinds of work a
    pass does.  No change to the program can make it faster or slower.
    """
    import numpy  # noqa: F401
    rng = random.Random(0)
    n = 32
    a = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def load_cli(root):
    """Import cychom.cli from <root>/src and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from cychom import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"cychom imported from {cli.__file__}, not {src}")
    return cli


def run_command(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a hang
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue(), time.perf_counter() - t0


def run_plan(plan):
    cli = load_cli(plan["root"])
    ready = time.monotonic()
    tracer = None
    if plan.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    try:
        for i, argv in enumerate(plan["commands"]):
            if tracer is not None:
                tracer.command = i
            code, out, secs = run_command(cli, argv)
            results.append({"code": code, "out": out, "seconds": secs})
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {"ready": ready, "commands": results,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        spans = tracer.spans
        per_cmd = []
        for i, res in enumerate(results):
            # a command's spans are contiguous: all nest under its cli.main
            idx = [k for k, s in enumerate(spans) if s[tracing.CMD] == i]
            lo = idx[0] if idx else 0
            mine = [s[:3] + [s[3] - lo if s[3] >= lo else -1] + s[4:]
                    for s in spans[lo:lo + len(idx)]]
            per_cmd.append(tracing.command_metrics(mine, res["seconds"]))
        report["layers"] = per_cmd
        if plan.get("spans_out"):
            with open(plan["spans_out"], "w") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "command"],
                           "spans": [s[:5] for s in spans]}, f)
    return report


def main():
    with open(sys.argv[1]) as f:
        plan = json.load(f)
    if plan.get("reference"):
        print(json.dumps({"rank": reference_job()}))
    else:
        print(json.dumps(run_plan(plan)))


if __name__ == "__main__":
    main()
