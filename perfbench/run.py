"""cychom benchmark: run one workload for a fixed time and check every answer.

    python3 perfbench/run.py --workload q-cyclic --seed 1 --seconds 42 --trace 0

Run it from the root of a checkout; it imports the program from
``src/`` there and writes its scratch files under ``.perfbench_work/``.
Workloads and their expected answers are in ``workloads.py``; README.md
says why each was chosen.

A pass runs every command of the workload once, in a fresh child
process; passes run one at a time (a closed loop with one client and no
concurrency).  With ``--trace 0`` the run repeats passes until the next
one would end after ``--seconds`` and reports the medians of the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes instead and reports the per-layer metrics of the traced
ones.  The last line of stdout is the JSON result; the lines before it
are the same numbers for people.

Before each pass a reference child runs a fixed job that uses no cychom
code (``child.reference_job``).  The host's speed drifts by 10-40 %
from one minute to the next, and the reference drifts with it, so every
reported time is expressed at the reference speed:
raw seconds * REF_SECONDS / (median reference seconds in this run).
Raw medians are printed alongside.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3        # passes made even when --seconds is short
CHILD_GRACE = 90      # seconds a child may run past --seconds before it is killed
# Lifetime of a reference child (start, numpy import, fixed job, exit) at
# the reference speed: the median on the 2-vCPU Xeon host of the baseline.
REF_SECONDS = 0.3

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class ChildFailed(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    # numpy's BLAS would otherwise start one thread per core at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root, work, plan, kill_at):
    """Run one child to completion, or kill it at monotonic time kill_at.

    Returns its report and the monotonic times it started and ended.
    """
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as f:
        json.dump(dict(plan, root=root), f)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), plan_path],
        cwd=root, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, kill_at - start))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child still running after {kill_at - start:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    end = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"child printed no result: {lines[-1][:200]}")
    return report, start, end


class Run:
    """The passes of one run: failed commands out of attempted ones, and
    the reference times that set the run's speed scale."""

    def __init__(self, root, work, workload, argvs, kill_at):
        self.root, self.work, self.kill_at = root, work, kill_at
        self.commands = workloads.WORKLOADS[workload]
        self.argvs = argvs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.references = []

    def scale(self):
        """Factor from raw seconds to seconds at the reference speed."""
        return REF_SECONDS / statistics.median(self.references)

    def one_pass(self, trace):
        """Run a reference child, then one checked pass; return the pass's
        report, or None if the pass died."""
        _, start, end = run_child(self.root, self.work, {"reference": True},
                                  self.kill_at)
        self.references.append(end - start)
        plan = {"commands": self.argvs, "trace": trace,
                "spans_out": os.path.join(self.work, "spans.json") if trace else None}
        self.attempted += len(self.commands)
        try:
            report, start, _ = run_child(self.root, self.work, plan, self.kill_at)
        except ChildFailed as exc:
            self.failed += len(self.commands)
            self.problems.append(str(exc))
            return None
        for cmd, res in zip(self.commands, report["commands"]):
            problem = workloads.check(cmd, res["code"], res["out"])
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{' '.join(cmd.argv)}: {problem}"
                                     f" (expected from: {cmd.reason})")
        report["setup"] = report["ready"] - start
        report["wall"] = sum(res["seconds"] for res in report["commands"])
        return report


def _passes(deadline, make_pass, minimum):
    """Call make_pass until the next call would likely end after deadline."""
    durations = []
    while len(durations) < minimum or \
            time.monotonic() + statistics.median(durations) <= deadline:
        t0 = time.monotonic()
        make_pass()
        durations.append(time.monotonic() - t0)


def _summary(values):
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return statistics.median(values), q1, q3


def end_to_end(run, deadline):
    reports = []

    def make_pass():
        rep = run.one_pass(trace=False)
        if rep is not None:
            reports.append(rep)

    _passes(deadline, make_pass, MIN_PASSES)
    if not reports:
        return {}, []
    samples = {"wall_s": [r["wall"] for r in reports],
               "peak_rss_mb": [r["rss_mb"] for r in reports],
               "setup_s": [r["setup"] for r in reports]}
    scale = run.scale()
    lines = [f"reference child: median {statistics.median(run.references):.4f} s,"
             f" n={len(run.references)}; times are raw * {scale:.4f}"]
    metrics = {}
    for name, vals in samples.items():
        unit = END_TO_END_UNITS[name]
        raw = _summary(vals)
        med, q1, q3 = (v * scale for v in raw) if unit == "s" else raw
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}"
                     f"  n={len(vals)}  raw median {raw[0]:.4f}")
    return metrics, lines


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_density")):
        return "ratio"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def per_layer(run, deadline):
    plain, traced = [], []

    def make_pair():
        for trace, sink in ((False, plain), (True, traced)):
            rep = run.one_pass(trace=trace)
            if rep is not None:
                sink.append(rep)

    _passes(deadline, make_pair, 1)
    if not plain or not traced:
        return {}, []
    per_pass = [tracer.finish(rep["layers"]) for rep in traced]
    scale = run.scale()
    metrics = {}
    for name in sorted(per_pass[0]):
        unit = _unit(name)
        value = statistics.median(p[name] for p in per_pass)
        metrics[name] = {"value": value * scale if unit == "s" else value, "unit": unit}
    overhead = statistics.median(r["wall"] for r in traced) / \
        statistics.median(r["wall"] for r in plain) - 1
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}

    lines = [f"{len(traced)} traced and {len(plain)} untraced passes"]
    for name in sorted(metrics):
        m = metrics[name]
        lines.append(f"{name:<30} {m['value']:.6g} {m['unit']}")
    lines.append("self time by layer, per command (first traced pass):")
    for cmd, layers in zip(run.commands, traced[0]["layers"]):
        share = sorted(((layers[f"{la}.self_s"], la) for la in tracer.LAYERS),
                       reverse=True)
        total = sum(v for v, _ in share) or 1.0
        top = ", ".join(f"{la} {v / total:.0%}" for v, la in share[:3])
        inner = sorted(((v, k) for k, v in layers.items()
                        if k.endswith("_s") and not k.endswith("self_s")), reverse=True)
        spent = ", ".join(f"{k} {v / total:.0%}" for v, k in inner[:3])
        lines.append(f"  {' '.join(cmd.argv[:3])}: self {top}; inside {spent}")
    return metrics, lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still kills its child, in run_child's finally
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "cychom", "cli.py")):
        print(f"error: no program source at {os.path.join(root, 'src', 'cychom')}",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    paths = inputs.write_inputs(workloads.input_names(args.workload), args.seed, work)
    run = Run(root, work, args.workload, workloads.bind(args.workload, paths),
              kill_at=start + args.seconds + CHILD_GRACE)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, lines = measure(run, start + args.seconds)
    except ChildFailed as exc:  # the reference job failed: the host is broken
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}:"
          f" {run.attempted} commands, {run.failed} failed")
    for line in lines + run.problems[:20]:
        print(line)
    if not metrics:
        print("error: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
