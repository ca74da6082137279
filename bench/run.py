"""The fanog2 benchmark: time to a certificate verdict, end to end and per layer.

    python3 bench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # all three workloads, seed 1, 30 s each

Workloads (a closed loop with one client: the next operation starts when the
previous one has ended, one child process at a time):

    verify-cold     `fanog2 verify all --json` in a fresh process with an
                    empty cache directory, once per iteration
    artifacts-warm  the nine artifact commands in a seeded order against a
                    cache filled during set-up
    kernels         seeded batches of in-process calls into octonion, linalg,
                    g2 and lifting over Q, Q(i) and F_p (see kernels.py)

With --trace 0 the last line of output is a JSON object whose metrics are
wall_s, cpu_s, peak_rss_mb and setup_s, the times in reference seconds
corrected for the host's speed (see hostspeed.py); with --trace 1 they are the per-layer
counts and self times of a traced run (see tracer.py).  Every operation is
checked (see checks.py and kernels.py); one that fails a check, exits nonzero
or times out counts in `failed`.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

import checks
import hostspeed
import kernels
import stats
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCH = os.path.join(ROOT, "bench", "launch.py")
SUITES = ("fano", "compfactor", "radon", "octonion", "lifting", "g2", "forms")
IMPORT_PROBES = 15
KERNEL_SETUP_PROBES = 5
CACHE_FILLS = 7
HARD_LIMIT_S = 170.0
KERNEL_COUNTERS = {
    "g2.matrix2.calls": "g2.matrix2",
    "g2.delta_hat.calls": "g2.delta_hat",
    "g2.bracket.calls": "g2.bracket",
    "linalg.rank.calls": "linalg.rank",
    "linalg.rref.calls": "linalg.rref",
    "lifting.lifts.calls": "lifting.lifts",
    "lifting.enumerate_aug_group.calls": "lifting.enumerate_aug_group",
    "radon.radon_mult.calls": "radon.radon_mult",
    "octonion.mul.calls": "octonion.mul",
    "scalars.fraction_new": "scalars.Fraction.__new__",
}


# Outcome of one child process; `stderr` keeps the last line only, and t0, t1
# are its start and end on time.monotonic(), for the host-speed factor.
Op = namedtuple("Op", "argv rc wall cpu rss_mb timed_out stdout stderr t0 t1")


class Run:
    """One benchmark run: its work directory, deadline and failure tally."""

    def __init__(self, workload, seed, seconds, trace):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.started = time.perf_counter()
        self.work = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, os.getpid()))
        os.makedirs(self.work)
        self.attempted = 0
        self.failures = []
        self.speed = hostspeed.Sampler()

    def scaled(self, wall, cpu, rss_mb, t0, t1):
        """A sample of one iteration, with the host-speed factor of [t0, t1]."""
        return {"wall": wall, "cpu": cpu, "rss_mb": rss_mb, "factor": self.speed.factor(t0, t1)}

    def path(self, name):
        return os.path.join(self.work, name)

    def launch(self, args, timeout):
        """Run bench/launch.py ARGS as a child and collect its rusage."""
        argv = [sys.executable, LAUNCH] + list(args)
        timeout = max(1.0, min(timeout, HARD_LIMIT_S - (time.perf_counter() - self.started)))
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = (fh.read().decode(errors="replace").strip().splitlines() or [""])[-1]
        return Op(
            args,
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            killed.is_set(),
            stdout,
            stderr,
            start,
            end,
        )

    def account(self, what, problems):
        """Count one checked operation; return True when it passed."""
        self.attempted += 1
        if problems:
            self.failures.append({"op": what, "problems": problems[:5]})
        return not problems

    def check_op(self, op, checker=None):
        if op.timed_out:
            problems = ["timed out and was killed"]
        elif op.rc != 0:
            problems = ["exit code %d: %s" % (op.rc, op.stderr)]
        else:
            problems = checker(op.stdout.decode()) if checker else []
        return self.account(" ".join(op.argv), problems)

    def cli(self, argv, timeout, traced_op=None):
        args = ["cli"]
        if traced_op is not None:
            trace_file = self.path("trace-%d.json" % traced_op)
            args += ["--trace", trace_file, "--op", str(traced_op)]
        return self.launch(args + ["--"] + list(argv), timeout)

    def time_left(self, since):
        return time.perf_counter() - since < self.seconds


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(calls, spans, import_s=0.0, cache_misses=0):
    """Per-layer metrics of one iteration from its counts and spans."""
    m = {}
    self_s = tracing.layer_self_seconds(spans)
    for layer in tracing.LAYERS:
        m[layer + ".calls"] = sum(v for k, v in calls.items() if tracing.layer_of(k) == layer)
        m[layer + ".self_s"] = self_s[layer]
    for metric, key in KERNEL_COUNTERS.items():
        m[metric] = calls.get(key, 0)
    enum_calls = calls.get("lifting.enumerate_aug_group", 0)
    m["lifting.cache_hit_ratio"] = (enum_calls - cache_misses) / enum_calls if enum_calls else 0.0
    m["cli.import_s"] = import_s
    for suite in SUITES:
        m["cli.suite.%s.total_s" % suite] = tracing.inclusive_seconds(spans, "cli.suite_" + suite)
    return m


def merge_traces(traces):
    """Per-layer metrics of one iteration from the traces of its operations."""
    calls, spans, import_s, misses = {}, [], 0.0, 0
    for data in traces:
        for k, v in data["calls"].items():
            calls[k] = calls.get(k, 0) + v
        spans.extend(tracing.Span(*s) for s in data["spans"])
        import_s += data.get("import_s", 0.0)
        misses += data.get("cache_misses", 0)
    return layer_metrics(calls, spans, import_s, misses)


def read_traces(paths):
    traces = []
    for path in paths:
        with open(path) as fh:
            traces.append(json.load(fh))
    return merge_traces(traces)


# -- workloads -------------------------------------------------------------


def _cli_loop(run, iteration):
    """Closed loop over `iteration(k, traced)` until --seconds have passed.

    Traced runs first run iteration 0 untraced; the overhead is the traced
    minus the untraced wall time of iteration 0.
    """
    samples, layers, overhead = [], [], None
    untraced = iteration(0, False)[0] if run.trace else None
    start = time.perf_counter()
    k = 0
    while True:
        sample, files = iteration(k, bool(run.trace))
        if sample and run.trace:
            layers.append(read_traces(files))
            if overhead is None and untraced:
                overhead = sample["wall"] - untraced["wall"]
        elif sample:
            samples.append(sample)
        k += 1
        if not run.time_left(start):
            return samples, layers, overhead


def _import_probes(run):
    run.launch(["import"], 60)  # compiles bytecode; not timed
    probes = []
    for _ in range(IMPORT_PROBES):
        op = run.launch(["import"], 60)
        if run.check_op(op):
            probes.append((op.wall, op.t0, op.t1))
    return probes


def verify_cold(run):
    setup = _import_probes(run)
    reference = []
    argv = ["verify", "all", "--json", "--cache-dir", run.path("cache")]

    def iteration(k, traced):
        shutil.rmtree(run.path("cache"), ignore_errors=True)
        op = run.cli(argv, 90, traced_op=k if traced else None)
        files = [run.path("trace-%d.json" % k)] if traced else []
        text = op.stdout
        if not reference and op.rc == 0:
            reference.append(text)

        def checker(s):
            problems = checks.check_verify_report(s)
            if reference and text != reference[0]:
                problems.append("report bytes differ from the first iteration")
            return problems

        ok = run.check_op(op, checker)
        sample = run.scaled(op.wall, op.cpu, op.rss_mb, op.t0, op.t1) if ok else None
        return sample, files

    samples, layers, overhead = _cli_loop(run, iteration)
    return setup, samples, layers, overhead, {}


def artifacts_warm(run):
    run.launch(["import"], 60)  # compiles bytecode; not timed
    setup = []
    cache = None
    for n in range(CACHE_FILLS):
        cache = run.path("cache-%d" % n)
        argv = ["enumerate", "aug-aut", "--cache-dir", cache]
        op = run.cli(argv, 60)
        if run.check_op(op, lambda s: checks.check_artifact(argv[:2], s)):
            setup.append((op.wall, op.t0, op.t1))
    orders = []

    def order(k):
        while len(orders) <= k:
            orders.append(run.rng.sample(checks.ARTIFACTS, len(checks.ARTIFACTS)))
        return orders[k]

    def iteration(k, traced):
        wall = cpu = rss = 0.0
        ok = True
        files, ops = [], []
        for j, (argv, checker) in enumerate(order(k)):
            op_id = k * 100 + j
            op = run.cli(list(argv) + ["--cache-dir", cache], 30, traced_op=op_id if traced else None)
            if traced:
                files.append(run.path("trace-%d.json" % op_id))
            ok = run.check_op(op, checker) and ok
            ops.append(op)
            wall += op.wall
            cpu += op.cpu
            rss = max(rss, op.rss_mb)
        sample = run.scaled(wall, cpu, rss, ops[0].t0, ops[-1].t1) if ok else None
        return sample, files

    samples, layers, overhead = _cli_loop(run, iteration)
    return setup, samples, layers, overhead, {"commands": [" ".join(a) for a, _ in checks.ARTIFACTS]}


def kernels_workload(run):
    seed_args = ["kernels", "--seed", str(run.seed)]
    run.launch(seed_args + ["--setup-only"], 60)  # compiles bytecode; not timed
    setup = []
    for _ in range(KERNEL_SETUP_PROBES):
        op = run.launch(seed_args + ["--setup-only"], 60)
        if run.check_op(op):
            setup.append((op.wall, op.t0, op.t1))
    args = seed_args + ["--seconds", str(run.seconds)]
    trace_file = run.path("trace-kernels.json")
    if run.trace:
        args += ["--trace", trace_file]
    op = run.launch(args, run.seconds + 90)
    cycles = {}
    for line in op.stdout.decode().splitlines():
        rec = json.loads(line)
        if rec["kind"] != "batch":
            continue
        c = cycles.setdefault(
            rec["cycle"],
            {"wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "ok": True, "batches": 0, "traced": rec["traced"],
             "t0": rec["t0"], "t1": rec["t1"]},
        )
        what = "kernels cycle %d batch %d" % (rec["cycle"], rec["index"])
        c["ok"] = run.account(what, rec["problems"]) and c["ok"]
        c["batches"] += 1
        c["wall"] += rec["wall"]
        c["cpu"] += rec["cpu"]
        c["rss_mb"] = max(c["rss_mb"], rec["rss_mb"])
        c["t0"], c["t1"] = min(c["t0"], rec["t0"]), max(c["t1"], rec["t1"])
    if op.timed_out or op.rc != 0:
        run.check_op(op)
    complete = [c for c in cycles.values() if c["ok"] and c["batches"] == kernels.BATCHES]
    samples = [run.scaled(c["wall"], c["cpu"], c["rss_mb"], c["t0"], c["t1"]) for c in complete if not c["traced"]]
    layers, overhead = [], None
    traced = [c for c in complete if c["traced"]]
    if traced:
        with open(trace_file) as fh:
            layers.append(merge_traces(json.load(fh)["batches"]))
        overhead = traced[0]["wall"] - samples[0]["wall"] if samples else None
    return setup, samples, layers, overhead, {"input_size": kernels.input_size()}


WORKLOADS = {
    "verify-cold": verify_cold,
    "artifacts-warm": artifacts_warm,
    "kernels": kernels_workload,
}


# -- reporting ---------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fanog2")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _unit(metric):
    if metric.endswith("_ratio"):
        return "ratio"
    return "count" if metric.endswith(".calls") or metric == "scalars.fraction_new" else "s"


def run_workload(name, seed, seconds, trace):
    run = Run(name, seed, seconds, trace)
    run.speed.start()
    try:
        setup, samples, layers, overhead, extra = WORKLOADS[name](run)
        if trace:
            keep = os.path.join(ROOT, ".bench_work", "last-trace", name)
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            for f in os.listdir(run.work):
                if f.startswith("trace-"):
                    os.replace(run.path(f), os.path.join(keep, f))
    finally:
        run.speed.stop()
        shutil.rmtree(run.work, ignore_errors=True)
    metrics = {}
    # Timings in reference seconds (see hostspeed.py); the raw medians go
    # into the provenance line.
    series = {
        "wall_s": [s["wall"] * s["factor"] for s in samples],
        "cpu_s": [s["cpu"] * s["factor"] for s in samples],
        "peak_rss_mb": [s["rss_mb"] for s in samples],
    }
    setup_factor = run.speed.factor(setup[0][1], setup[-1][2]) if setup else None
    counts = {"setup": len(setup), "iterations": len(samples), "traced_iterations": len(layers)}
    if trace:
        for key in (layers[0] if layers else {}):
            metrics[key] = {"value": statistics.median([m[key] for m in layers]), "unit": _unit(key)}
        if overhead is not None:
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        if samples:
            for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
                metrics[key] = {"value": statistics.median(series[key]), "unit": unit}
        if setup:
            metrics["setup_s"] = {"value": statistics.median(w for w, _, _ in setup) * setup_factor, "unit": "s"}
    failed = len(run.failures)
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256_16": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "samples": counts,
        "hostspeed": {
            "reference_s": hostspeed.REFERENCE_S,
            "snippet_samples": len(run.speed.samples),
            "median_factor": statistics.median(s["factor"] for s in samples) if samples else None,
            "setup_factor": setup_factor,
            "raw_wall_s": statistics.median(s["wall"] for s in samples) if samples else None,
            "raw_cpu_s": statistics.median(s["cpu"] for s in samples) if samples else None,
            "raw_setup_s": statistics.median(w for w, _, _ in setup) if setup else None,
        },
        "trace_overhead_s": overhead,
        "load": "closed loop, 1 client, 1 child process at a time",
        "absent": "wait and queue metrics: the program is single-threaded with no I/O on the hot path",
        **extra,
    }
    report(name, metrics, series, setup, run, provenance)
    ok = bool(metrics) and failed == 0 and (samples or layers)
    return {
        "correct": bool(ok),
        "attempted": max(run.attempted, 1),
        "failed": failed if run.attempted else 1,
        "metrics": metrics,
    }


def report(name, metrics, series, setup, run, provenance):
    print("workload %s  seed %d  %gs  trace %d" % (name, run.seed, run.seconds, run.trace))
    for key in sorted(metrics):
        m = metrics[key]
        line = "  %-34s %12.6g %-5s" % (key, m["value"], m["unit"])
        if key == "setup_s":
            line += "  median of %d" % len(setup)
        elif key in series:
            xs = series[key]
            line += "  median of %d, min %.6g, max %.6g" % (len(xs), min(xs), max(xs))
            q = stats.tail_percentile(len(xs))
            if q is not None:
                line += ", p%d %.6g" % (q, stats.percentile(xs, q))
        print(line)
    failed = len(run.failures)
    print("  %-34s %12.6g        %d of %d operations" % ("fail_ratio", failed / max(run.attempted, 1), failed, run.attempted))
    for f in run.failures[:10]:
        print("  FAILED %s: %s" % (f["op"], "; ".join(f["problems"])))
    print("provenance " + json.dumps(provenance, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The host-speed sampler must share the CPU the children run on.
    hostspeed.pin_to_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "fanog2", "cli.py")):
        sys.stderr.write("error: no fanog2 sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    names = tuple(WORKLOADS) if opts.workload == "all" else (opts.workload,)
    for name in names:
        result = run_workload(name, opts.seed, opts.seconds, opts.trace)
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
