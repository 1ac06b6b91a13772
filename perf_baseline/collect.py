#!/usr/bin/env python3
"""Run perf_baseline repeatedly and gather the results into set files.

One invocation of the benchmark reports, per end-to-end metric, the
median over its own reps. A set file holds one such value per invocation
("samples"), which is what compare.py compares and what the spread and
regression rules in README.md are stated over.

    # ten runs per workload on this checkout, seeds 1..10
    python3 perf_baseline/collect.py --runs 10 . set.json

    # parent vs change, alternating which side runs first in each pair
    python3 perf_baseline/collect.py --runs 10 ../parent parent.json \
        . change.json

Each CHECKOUT is a repository root holding perf_baseline/run.py; pair i
runs seed FIRST_SEED + i on every side. Exits non-zero if any run fails
to produce a result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perf_baseline", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("collect.py: %s failed in %s (exit %d)"
                 % (" ".join(cmd), checkout, proc.returncode))
    return json.loads(lines[-1])


def summarize(samples):
    q = (statistics.quantiles(samples, n=4) if len(samples) > 1
         else [samples[0]] * 3)
    return {"median": statistics.median(samples), "q1": q[0], "q3": q[2],
            "n": len(samples), "samples": samples}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sides", nargs="+", metavar="CHECKOUT OUT",
                    help="checkout directory and set file, once or twice")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all in "
                    "BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="per-run budget (default: BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if len(args.sides) not in (2, 4):
        ap.error("give CHECKOUT OUT once, or twice for a paired run")
    sides = [(os.path.abspath(args.sides[i]), args.sides[i + 1])
             for i in range(0, len(args.sides), 2)]
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    # results[side][workload] -> list of result lines, in run order.
    results = [{w: [] for w in workloads} for _ in sides]
    seeds = [args.first_seed + i for i in range(args.runs)]
    for i, seed in enumerate(seeds):
        order = list(range(len(sides)))
        if i % 2:
            order.reverse()
        for w in workloads:
            for side in order:
                line = run_once(sides[side][0], w, seed, seconds, args.trace)
                results[side][w].append(line)
                print("run %d seed %d %s %s: %s" % (
                    i, seed, os.path.basename(sides[side][0]) or "/", w,
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in line["metrics"].items())),
                    file=sys.stderr)

    for side, (checkout, out) in enumerate(sides):
        report = {"bench": "perf_baseline", "kind": "set", "seeds": seeds,
                  "seconds": seconds, "trace": args.trace, "workloads": {}}
        for w, lines in results[side].items():
            names = list(lines[0]["metrics"])
            report["workloads"][w] = {
                "attempted": sum(l["attempted"] for l in lines),
                "failed": sum(l["failed"] for l in lines),
                "per_layer" if args.trace else "e2e": {
                    m: dict(unit=lines[0]["metrics"][m]["unit"],
                            **summarize([l["metrics"][m]["value"]
                                         for l in lines]))
                    for m in names}}
        with open(out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
