"""Run perfbench in a parent tree and a change, and fold the runs into one BENCH record.

    python3 tools/bench_record.py --parent P --change C \\
        --workloads train_small,train_wide,eval_chain --seeds 401-410 \\
        --out BENCH_<n>.json

P and C are the roots of two checkouts. For each seed and workload the tool
runs `perfbench/run.py --trace 0` once in each, one after the other (the
parent first on even seeds, the change first on odd ones), so that each tree
writes its own bench_results/, and then folds exactly the runs it made
(`<workload>-seed<n>-trace0.json`), paired by workload and seed. For each
workload and end-to-end metric of BENCHMARK.json the record gives both
sides' median and quartiles, the change's median over the parent's, and how
many pairs the change won (ties count for neither side). It also keeps the
machine block of the results files, every pair's values and whether every
run passed its checks. After the pairs it runs the tier-1 suite in C with one
BLAS thread, and records pytest's summary line and the suite's wall time.

Timings drift from day to day on a shared machine, so the record also times
one fixed calibration kernel, a GEMM and a Python loop with one BLAS thread,
before and after the pairs (`calibration`, each a median of 5 runs): two BENCH
files compare only as far as their calibrations agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

# the calibration kernel: medians of 5 timings, after one untimed call, of a
# fixed (384, 384) GEMM and of a fixed 300,000-step Python loop
CALIBRATION = """
import json, statistics, time
import numpy as np
a = np.random.default_rng(0).standard_normal((384, 384))

def loop():
    s = 0
    for i in range(300000):
        s += i * i

def median_ms(fn):
    fn()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)

print(json.dumps({"gemm_ms": median_ms(lambda: a @ a), "loop_ms": median_ms(loop)}))
"""


def _load(results_dir, pairs):
    """{(workload, seed): results} for the untraced runs of the given pairs."""
    runs = {}
    for pair in sorted(pairs):
        with open(os.path.join(results_dir, "%s-seed%d-trace0.json" % pair)) as fh:
            runs[pair] = json.load(fh)
    return runs


def _seeds(text):
    """'401-410' or '5,7,9' (or a mix) -> [401, ..., 410]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_pairs(trees, workloads, seeds):
    """Run every (workload, seed) once in each tree, alternating which goes first."""
    for seed in seeds:
        for wl in workloads:
            order = trees if seed % 2 == 0 else trees[::-1]
            for tree in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed",
                       str(seed), "--trace", "0"]
                print("%s: %s" % (tree, " ".join(cmd[1:])), file=sys.stderr, flush=True)
                proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    raise SystemExit("bench_record: %s exited with %d in %s"
                                     % (" ".join(cmd[1:]), proc.returncode, tree))


def calibrate():
    """{"gemm_ms", "loop_ms"}: the calibration kernel, timed in a child with one BLAS thread."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATION],
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_tier1(tree):
    """Run the tier-1 suite in tree: {"summary": pytest's last line, "wall_s": seconds}."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    print("%s: tier-1" % tree, file=sys.stderr, flush=True)
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"summary": lines[-1] if lines else "", "wall_s": round(time.perf_counter() - start, 2)}


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def record(parent, change, metrics):
    out = {"machine": next(iter(change.values()))["machine"],
           "seconds": sorted({r["seconds"] for r in change.values()}),
           "all_correct": all(r["correct"] for r in (*parent.values(), *change.values())),
           "workloads": {}}
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
    ap.add_argument("--parent", required=True, help="the parent tree")
    ap.add_argument("--change", required=True, help="the change's tree")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, type=_seeds, help="e.g. 401-410 or 1,3,5")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    trees, workloads = (args.parent, args.change), args.workloads.split(",")
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error("%s has no perfbench/run.py" % tree)
    before = calibrate()
    run_pairs(trees, workloads, args.seeds)
    calibration = {"before": before, "after": calibrate()}
    pairs = {(wl, s) for wl in workloads for s in args.seeds}
    rec = record(*(_load(os.path.join(t, "bench_results"), pairs) for t in trees),
                 metrics)
    rec["calibration"] = calibration
    rec["tier1"] = run_tier1(args.change)
    with open(args.out, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for wl, w in rec["workloads"].items():
        for name, r in w["metrics"].items():
            print("%-12s %-22s parent %10.4g  change %10.4g  x%.3f  wins %d/%d"
                  % (wl, name, r["parent"]["median"], r["change"]["median"],
                     r["change_over_parent"], r["change_wins"], len(w["seeds"])))
    for when, c in calibration.items():
        print("calibration %-6s gemm %.3f ms  loop %.3f ms" % (when, c["gemm_ms"], c["loop_ms"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
