"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload verify-cold                 # seeds 1..10
    python3 bench/spread.py --workload kernels --out bench/baselines/seed.json
    python3 bench/spread.py --workload kernels --trace 1 --seeds 1 1

For every end-to-end metric it prints the median of the runs, the quartiles
of statistics.quantiles(n=4), and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.  With --out, the raw results and their
provenance are merged into that JSON file under the workload's name (with
"/traced" appended for --trace 1).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    provenance = next(json.loads(line[len("provenance "):]) for line in out if line.startswith("provenance "))
    return json.loads(out[-1]), provenance


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    opts = parser.parse_args(argv)
    runs = []
    for seed in opts.seeds:
        result, provenance = run_once(opts.workload, seed, opts.seconds, opts.trace)
        runs.append({"seed": seed, "result": result, "provenance": provenance})
        values = " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items())[:6])
        print("seed %d: correct %s, failed %d/%d, %s" % (
            seed, result["correct"], result["failed"], result["attempted"], values), flush=True)
    metrics = spec["per_layer"] if opts.trace else spec["end_to_end"]
    summary = {}
    for m in metrics:
        xs = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / q2 if q2 else None
        summary[m["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"]}
        bound = m.get("bound")
        note = ""
        if bound is not None and spread is not None:
            note = "bound %.3g, %s" % (bound, "under a third" if spread < bound / 3 else "OVER a third of the bound")
        print("%-34s median %.6g %s  quartiles %.6g..%.6g  spread %s  %s" % (
            m["name"], q2, m["unit"], q1, q3, "%.4f" % spread if spread is not None else "n/a", note))
    print("all correct: %s" % all(r["result"]["correct"] and not r["result"]["failed"] for r in runs))
    if opts.out:
        data = {}
        if os.path.exists(opts.out):
            with open(opts.out) as fh:
                data = json.load(fh)
        data[opts.workload + ("/traced" if opts.trace else "")] = {"seconds": opts.seconds, "summary": summary, "runs": runs}
        with open(opts.out, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
