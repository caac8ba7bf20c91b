"""Fold perfbench results of a parent tree and a change into one BENCH record.

    python3 tools/bench_record.py --parent P/bench_results --change C/bench_results \\
        --out BENCH_<n>.json [--tier1 "443 passed in 240.56s"]

Each directory holds the untraced results files
(`<workload>-seed<n>-trace0.json`) that `perfbench/run.py --trace 0` wrote in
that tree. Runs pair up by workload and seed; a seed present on one side only
is an error. For each workload and end-to-end metric of BENCHMARK.json the
record gives both sides' median and quartiles, the change's median over the
parent's, and how many pairs the change won (ties count for neither side).
It also keeps the machine block of the results files, every pair's values and
whether every run passed its checks.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(results_dir):
    """{(workload, seed): results} for the untraced runs in results_dir."""
    runs = {}
    for path in glob.glob(os.path.join(results_dir, "*-trace0.json")):
        with open(path) as fh:
            r = json.load(fh)
        runs[(r["workload"], r["seed"])] = r
    if not runs:
        raise SystemExit("bench_record: no untraced results in %s" % results_dir)
    return runs


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def record(parent, change, metrics, tier1=None):
    if parent.keys() != change.keys():
        raise SystemExit("bench_record: the two sides ran different (workload, seed) "
                         "pairs: %s" % sorted(parent.keys() ^ change.keys()))
    out = {"machine": next(iter(change.values()))["machine"],
           "seconds": sorted({r["seconds"] for r in change.values()}),
           "all_correct": all(r["correct"] for r in (*parent.values(), *change.values())),
           "workloads": {}}
    if tier1:
        out["tier1"] = tier1
    for wl in sorted({w for w, _ in change}):
        seeds = sorted(s for w, s in change if w == wl)
        rows = {}
        for m in metrics:
            p = [parent[wl, s]["end_to_end"][m["name"]]["value"] for s in seeds]
            c = [change[wl, s]["end_to_end"][m["name"]]["value"] for s in seeds]
            sign = 1 if m["better"] == "higher" else -1
            ps, cs = _summary(p), _summary(c)
            rows[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "parent": ps, "change": cs,
                "change_over_parent": cs["median"] / ps["median"],
                "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
                "pairs": [[a, b] for a, b in zip(p, c)]}
        out["workloads"][wl] = {"seeds": seeds, "metrics": rows}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent tree's bench_results/")
    ap.add_argument("--change", required=True, help="the change's bench_results/")
    ap.add_argument("--out", required=True)
    ap.add_argument("--tier1", help="the tier-1 suite's summary line, as pytest printed it")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    rec = record(_load(args.parent), _load(args.change), metrics, args.tier1)
    with open(args.out, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for wl, w in rec["workloads"].items():
        for name, r in w["metrics"].items():
            print("%-12s %-22s parent %10.4g  change %10.4g  x%.3f  wins %d/%d"
                  % (wl, name, r["parent"]["median"], r["change"]["median"],
                     r["change_over_parent"], r["change_wins"], len(w["seeds"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
