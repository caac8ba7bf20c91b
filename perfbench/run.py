"""crossdiff benchmark.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from its src/.
`--trace 0` prints the end-to-end metrics. `--trace 1` runs the workload
untraced, then traced with the first run's epoch and pass counts (on the
training workloads, then untraced again as the overhead baseline), checks that
all runs give bit-identical outputs, and prints the per-layer metrics. The last line of standard output is one JSON
object: correct, attempted, failed, metrics. A results file (and, traced, a
span file) goes to bench_results/. `--workload all` runs each workload in its
own process and prints a table.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_crossdiff():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "crossdiff", "__init__.py")):
        raise SystemExit("perfbench: no crossdiff sources under %s" % SRC)
    # One BLAS thread: it was as fast as two on every workload, and it leaves
    # the other core to whatever else the machine runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import crossdiff
    if os.path.dirname(os.path.abspath(crossdiff.__file__)) != os.path.join(SRC, "crossdiff"):
        raise SystemExit("perfbench: imported crossdiff from %s" % crossdiff.__file__)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": _nproc(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "config": blas.get("openblas configuration")},
            "blas_threads": _blas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _result_line(correct, attempted, metrics: dict, units: dict) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": 0,
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()}})


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    _import_crossdiff()
    from dataclasses import asdict

    import tracer as tracing
    import workloads as wls

    wl = wls.WORKLOADS[name]
    out = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "machine": machine_info(), "workload_config": asdict(wl)}
    t0 = time.perf_counter()
    res = wls.run(wl, seed, seconds)
    untraced_wall = time.perf_counter() - t0
    metrics = wls.end_to_end(res)
    correct = res.correct
    out.update(end_to_end={k: {"value": v, "unit": wls.END_TO_END_UNITS[k]}
                           for k, v in metrics.items()},
               checks=res.checks, check_values=res.values,
               samples={"setups": len(res.setup_s), "steps": len(res.steps.times),
                        "eval_passes": len(res.passes), "eval_batches": len(res.batches)},
               attempted=res.attempted, failed=0, wall_s=untraced_wall)
    units = wls.END_TO_END_UNITS
    tag = "%s-seed%d-trace%d" % (name, seed, int(trace))
    if trace:
        tr = tracing.Tracer()
        t0 = time.perf_counter()
        with tr.install():
            traced = wls.run(wl, seed, seconds, replay=res, tracer=tr)
        traced_wall = time.perf_counter() - t0
        # A process that trains grows its heap during its first run, so on the
        # training workloads the traced run is compared with an untraced replay
        # made after it. eval_chain's process does not train, so its first run
        # is the baseline.
        again, again_wall = res, untraced_wall
        if wl.timed == "train":
            t0 = time.perf_counter()
            again = wls.run(wl, seed, seconds, replay=res)
            again_wall = time.perf_counter() - t0
        identical = wls.same_outputs(res, traced) and wls.same_outputs(res, again)
        correct = correct and traced.correct and again.correct and identical
        order = ("train", "eval") if wl.timed == "train" else ("eval", "train")
        metrics = tr.per_layer(order + ("check", "setup"),
                               {"train": len(traced.steps.times),
                                "eval": len(traced.passes),
                                "setup": len(traced.setup_s), "check": 1},
                               traced.checkpoint_bytes)
        units = tracing.per_layer_units()
        overhead = traced.timed_wall_s - again.timed_wall_s
        out.update(per_layer={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                   traced_checks=traced.checks, replay_checks=again.checks,
                   traced_outputs_identical=identical,
                   tracing_overhead={"timed_phase_first_untraced_s": res.timed_wall_s,
                                     "timed_phase_traced_s": traced.timed_wall_s,
                                     "timed_phase_baseline_s": again.timed_wall_s,
                                     "overhead_s": overhead,
                                     "overhead_pct": 100.0 * overhead / again.timed_wall_s,
                                     "run_first_untraced_s": untraced_wall,
                                     "run_traced_s": traced_wall,
                                     "run_baseline_s": again_wall},
                   n_spans=len(tr.spans))
        span_path = os.path.join(wls.results_dir(), tag + "-spans.tsv.gz")
        tr.write(span_path)
        out["span_file"] = os.path.relpath(span_path, ROOT)
        print("tracing overhead on the timed phase: %+.3f s (%+.1f%%); outputs %s"
              % (overhead, out["tracing_overhead"]["overhead_pct"],
                 "bit-identical" if identical else "DIFFER"), file=sys.stderr)
    out["correct"] = correct
    with open(os.path.join(wls.results_dir(), tag + ".json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True, default=str)
    failed_checks = [k for part in ("checks", "traced_checks", "replay_checks")
                     for k, ok in out.get(part, {}).items() if not ok]
    if failed_checks:
        print("failed checks: %s" % ", ".join(sorted(set(failed_checks))), file=sys.stderr)
    print(_result_line(correct, res.attempted, metrics, units))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    names = ("train_small", "train_wide", "eval_chain")
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit code %d" % (name, proc.returncode))
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    for name, r in results.items():
        print("%-12s correct=%s attempted=%d failed=%d"
              % (name, r["correct"], r["attempted"], r["failed"]))
        for metric, v in r["metrics"].items():
            print("    %-36s %14.6g %s" % (metric, v["value"], v["unit"]))
    print(json.dumps(results))
    return 0


def run_recipe(name: str, seed: int, out_dir: str, trace: bool) -> int:
    """Child process of eval_chain's set-up: train its model into out_dir."""
    _import_crossdiff()
    import tracer as tracing
    import workloads as wls

    os.makedirs(out_dir)
    if not trace:
        wls.train_recipe(wls.WORKLOADS[name], seed, out_dir)
        return 0
    tr = tracing.Tracer()
    with tr.install():
        wls.train_recipe(wls.WORKLOADS[name], seed, out_dir, tracer=tr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("train_small", "train_wide", "eval_chain", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: eval_chain's set-up trains its model in a child process
    ap.add_argument("--recipe", choices=("eval_chain",), help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.recipe:
        if not args.out:
            ap.error("--recipe needs --out")
        return run_recipe(args.recipe, args.seed, args.out, bool(args.trace))
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
