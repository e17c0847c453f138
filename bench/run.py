#!/usr/bin/env python3
"""rotbec benchmark: four solver workloads, correctness gates, traced layers.

    python3 bench/run.py --workload sweep-2d --seed 42 --seconds 15 --trace 0

Runs from the root of a source checkout and imports rotbec from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of one traced repetition.  Every line
of standard output is JSON; the last one is the result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness gate passed.  See bench/README.md.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep-2d", "gp-3d", "fock-scan", "sweep-cli")
SETUP_SAMPLES = 5


def cannot_run(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_rotbec():
    """Import rotbec from this checkout's src/, or exit 2."""
    if not (SRC / "rotbec" / "__init__.py").is_file():
        cannot_run(f"{SRC / 'rotbec'} not found; run from a rotbec source checkout")
    sys.path.insert(0, str(SRC))
    import rotbec

    if SRC not in Path(rotbec.__file__).resolve().parents:
        cannot_run(f"rotbec imported from {rotbec.__file__}, not from {SRC}")


class Descents:
    """Trust-region restarts (``_Flow.descend`` calls) counted from outside."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.present = False

    def install(self):
        from rotbec import gp

        flow = getattr(gp, "_Flow", None)
        orig = getattr(flow, "descend", None)
        if orig is None:
            return "rotbec.gp._Flow.descend does not exist; DM restarts are not counted"

        @functools.wraps(orig)
        def descend(flow_self, *args, **kwargs):
            out = orig(flow_self, *args, **kwargs)
            self.attempted += 1
            self.failed += not out[3]
            return out

        flow.descend = descend
        self.present = True
        return None


def make_workload(name):
    import workloads as wl

    if name == "sweep-cli":
        return wl.SweepCLI(ROOT, SRC, WORK)
    return {"sweep-2d": wl.Sweep2D, "gp-3d": wl.GP3D, "fock-scan": wl.FockScan}[name]()


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def host_steal_seconds():
    """CPU seconds the hypervisor has taken from this machine (all CPUs), or None.

    Read from the ``steal`` column of /proc/stat; it explains runs that a
    busy host slowed down, which no in-run median can absorb.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def setup_seconds(workload, seed):
    """Median seconds from a fresh interpreter's start to its first timed call."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed: {line!r}")
    return statistics.median(samples), samples


def environment(seed, seeds):
    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "rotbec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # never a repository that merely encloses the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "rep_seeds": seeds}


def timed_reps(wl, ctx, seed, seconds, tally):
    """Repeat the timed section over the workload's seeds; returns (times, seeds, outs).

    A run makes at least ``wl.min_reps`` repetitions, and more while less
    than ``seconds`` has been measured.
    """
    import workloads

    times, seeds, outs = [], [], []
    while len(times) < wl.min_reps or sum(times) < seconds:
        s = wl.rep_seed(seed, len(times))
        start = time.perf_counter()
        try:
            out = wl.solve(ctx, s, tally)
        except workloads.Miss:
            break
        times.append(time.perf_counter() - start)
        wl.check(ctx, s, out, tally)
        seeds.append(s)
        outs.append(out)
    return times, seeds, outs


def traced_rep(wl, ctx, seed, tally, tracer):
    """A warm-up, an untraced and a traced repetition of the same seed.

    The warm-up takes the first-call costs (transform plans, lazy imports,
    first-touch memory), which would otherwise land on the untraced
    repetition and hide the tracer's overhead.
    """
    import tracer as tr

    s = wl.rep_seed(seed, 1)
    outs = []
    for _ in range(2):
        start = time.perf_counter()
        out = wl.solve(ctx, s, tally)
        untraced = time.perf_counter() - start
        wl.check(ctx, s, out, tally)
        outs.append(out)
    summary_path = WORK / f"trace-{wl.name}-{seed}.json"
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    if wl.name == "sweep-cli":
        cli_summary = WORK / f"trace-cli-{seed}.summary.json"
        cmd = wl.command(s, ctx, wrapper=BENCH / "traced_cli.py")
        cmd.insert(2, str(cli_summary))
        traced_out = wl.solve(ctx, s, tally, command=cmd)
        traced = time.perf_counter() - start
        summary = json.loads(cli_summary.read_text())
        spans = None
    else:
        tracer.reset()
        tracer.enabled = True
        try:
            traced_out = wl.solve(ctx, s, tally)
        finally:
            tracer.enabled = False
        traced = time.perf_counter() - start
        summary = tracer.summary()
        spans = [tracer.names, tracer.starts, tracer.ends, tracer.parents]
    cpu = cpu_seconds() - cpu0
    wl.check(ctx, s, traced_out, tally)
    summary["absent"].update(tracer.absent)
    WORK.mkdir(parents=True, exist_ok=True)
    summary_path.write_text(json.dumps({"summary": summary, "spans": spans}))
    metrics = {}
    for name, (value, unit, span) in tr.layer_metrics(summary, traced, cpu).items():
        if span in summary["absent"]:
            metrics[name] = {"value": None, "unit": unit, "absent": summary["absent"][span]}
        else:
            metrics[name] = {"value": value, "unit": unit}
    metrics["trace.untraced_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    metrics["trace.spans"] = {"value": summary["spans"], "unit": "count"}
    detail = {"rep_seed": s, "restart_applications": summary["restart_apps"],
              "counts": summary["counts"], "absent": summary["absent"],
              "trace_file": str(summary_path.relative_to(ROOT))}
    return metrics, detail, outs + [traced_out]


def jsonable(value):
    return json.loads(json.dumps(value, default=repr))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance seed of the workload)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure at least this long (and at least min_reps repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        tr.install_fft(tracer)  # before rotbec binds any transform
    import_rotbec()
    if tracer is not None:
        tr.install_layers(tracer)  # before workloads binds rotbec names
    wl = make_workload(args.workload)
    seed = wl.default_seed if args.seed is None else args.seed
    ctx = wl.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import workloads

    descents = Descents()
    notes = [n for n in [descents.install()] if n]
    tally = workloads.Tally(descents)
    if tracer is not None:
        tr.self_test(tracer)
        try:
            metrics, detail, outs = traced_rep(wl, ctx, seed, tally, tracer)
        except workloads.Miss:
            metrics, detail, outs = {}, {}, []
        seeds = [wl.rep_seed(seed, 1)]
    else:
        steal0 = host_steal_seconds()
        times, seeds, outs = timed_reps(wl, ctx, seed, args.seconds, tally)
        steal1 = host_steal_seconds()
        rss = peak_rss_mb()
        setup_s, setup_samples = setup_seconds(args.workload, seed)
        metrics = {}
        if times:
            metrics = {"wall_s": {"value": statistics.median(times), "unit": "s"},
                       "setup_s": {"value": setup_s, "unit": "s"},
                       "peak_rss_mb": {"value": rss, "unit": "MB"}}
        steal = None if steal0 is None or steal1 is None else steal1 - steal0
        detail = {"rep_seconds": times, "setup_samples": setup_samples,
                  "host_steal_s": steal}
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    if tracer is not None:
        metrics["failed_frac"] = {"value": failed_frac, "unit": "ratio"}
    correct = bool(metrics) and tally.failed == 0
    detail.update({"workload": args.workload, "trace": args.trace,
                   "failed_frac": failed_frac, "misses": tally.misses, "notes": notes,
                   "outputs": outs, "environment": environment(seed, seeds)})
    print(json.dumps({"detail": jsonable(detail)}))
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(2)
