#!/usr/bin/env python3
"""Compare two perf_baseline result sets, one verdict per metric and workload.

    python3 perf_baseline/compare.py PARENT.json CHANGE.json \
        [--claim fom_zcps:count_b8_l3]... [--bench BENCHMARK.json]
    python3 perf_baseline/compare.py --self-test

PARENT and CHANGE are set files from collect.py (one sample per benchmark
invocation) or --json reports of the binary (one sample per rep). Bounds
and directions come from BENCHMARK.json's "end_to_end" list. For every
(end-to-end metric, workload) present in both files:

  regression   the change's median is worse than the parent's by more
               than the metric's bound
  unresolved   not a regression, but either side's spread (q3 - q1, as a
               share of its median) is wider than the bound, and not
               every change sample beats every parent sample
  ok           neither

A claimed gain (--claim METRIC:WORKLOAD) is met only with at least ten
pairs (sample i of each side; collect.py alternates which side runs
first), the change winning at least nine tenths of them (ties count for
neither), and the medians differing in the better direction by more than
the parent's own q3 - q1.

Exits 1 on any regression or unmet claim, 2 on bad input, 0 otherwise.
"""
import argparse
import io
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(samples):
    if len(samples) == 1:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def spread(samples):
    q1, q3 = quartiles(samples)
    med = statistics.median(samples)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, bound, direction):
    mp, mc = statistics.median(parent), statistics.median(change)
    worse = (mc - mp) if direction == "lower" else (mp - mc)
    worse_frac = worse / abs(mp) if mp else (float("inf") if worse > 0
                                             else 0.0)
    if worse_frac > bound:
        return "regression", worse_frac
    every_better = all(better(c, p, direction)
                       for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved", worse_frac
    return "ok", worse_frac


def claim_met(parent, change, direction):
    pairs = list(zip(parent, change))
    if len(pairs) < 10:
        return False, "only %d pairs (need 10)" % len(pairs)
    wins = sum(better(c, p, direction) for p, c in pairs)
    if wins < 0.9 * len(pairs):
        return False, "change won %d of %d pairs" % (wins, len(pairs))
    q1, q3 = quartiles(parent)
    gain = statistics.median(change) - statistics.median(parent)
    if direction == "lower":
        gain = -gain
    if gain <= q3 - q1:
        return False, ("median gain %.4g not above parent IQR %.4g"
                       % (gain, q3 - q1))
    return True, "won %d of %d pairs" % (wins, len(pairs))


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("compare.py: %s: %s" % (path, e), file=sys.stderr)
        sys.exit(2)


def compare(parent, change, bench, claims, out):
    """Print the verdict table; return the exit code."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    claims = set(claims)
    rc = 0
    out.write("%-18s %-12s %14s %14s %8s %8s  %s\n" % (
        "workload", "metric", "parent", "change", "worse", "spread",
        "verdict"))
    seen = set()
    for w in sorted(set(parent["workloads"]) & set(change["workloads"])):
        pe = parent["workloads"][w].get("e2e", {})
        ce = change["workloads"][w].get("e2e", {})
        for name, m in metrics.items():
            if name not in pe or name not in ce:
                continue
            p, c = pe[name]["samples"], ce[name]["samples"]
            if not p or not c:
                continue
            seen.add((name, w))
            v, worse = verdict(p, c, m["bound"], m["better"])
            note = ""
            if (name, w) in claims:
                met, why = claim_met(p, c, m["better"])
                note = ("; claim met (%s)" if met
                        else "; claim NOT met (%s)") % why
                rc = rc if met else 1
            if v == "regression":
                rc = 1
            out.write("%-18s %-12s %14.6g %14.6g %7.2f%% %7.2f%%  %s%s\n" % (
                w, name, statistics.median(p), statistics.median(c),
                100 * worse, 100 * max(spread(p), spread(c)), v, note))
    for name, w in sorted(claims - seen):
        out.write("claim %s:%s: no samples in both files\n" % (name, w))
        rc = 1
    return rc


def self_test():
    """Run every case in fixtures/cases.json; return the exit code."""
    fixtures = os.path.join(HERE, "fixtures")
    with open(os.path.join(fixtures, "cases.json")) as f:
        cases = json.load(f)
    bench = load(os.path.join(fixtures, "bench.json"))
    failures = 0
    for case in cases:
        parent = load(os.path.join(fixtures, case["parent"]))
        change = load(os.path.join(fixtures, case["change"]))
        cap = io.StringIO()
        claims = [tuple(c.split(":")) for c in case.get("claims", [])]
        rc = compare(parent, change, bench, claims, cap)
        problems = []
        if rc != case["exit"]:
            problems.append("exit %d, expected %d" % (rc, case["exit"]))
        for key, want in case["verdicts"].items():
            w, name = key.split(":")
            row = [l for l in cap.getvalue().splitlines()
                   if l.split()[:2] == [w, name]]
            if not row or want not in row[0]:
                problems.append("%s: expected '%s' in %r"
                                % (key, want, row[0] if row else None))
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print("%-28s %s" % (case["name"], status))
        failures += bool(problems)
    print("%d of %d cases failed" % (failures, len(cases)))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC:WORKLOAD")
    ap.add_argument("--bench", default=os.path.join(HERE, "..",
                                                    "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        ap.error("need PARENT.json and CHANGE.json (or --self-test)")
    claims = []
    for c in args.claim:
        if c.count(":") != 1:
            ap.error("--claim takes METRIC:WORKLOAD, got %r" % c)
        claims.append(tuple(c.split(":")))
    return compare(load(args.parent), load(args.change), load(args.bench),
                   claims, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
