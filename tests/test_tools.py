"""tools/bench_record.py: alternating pairs in two trees, folded into one record."""

import importlib.util
import json
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# stands in for perfbench/run.py: logs its call and writes a results file
# whose every metric is the seed, doubled in the tree named "parent"
FAKE_RUN = """
import argparse, json, os
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--trace"):
    ap.add_argument(flag)
ap.add_argument("--seconds", default="10")
a = ap.parse_args()
tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
name = os.path.basename(tree)
with open(os.path.join(os.path.dirname(tree), "calls.log"), "a") as fh:
    fh.write("%s %s %s %s\\n" % (name, a.workload, a.seed, a.seconds))
value = int(a.seed) * (2.0 if name == "parent" else 1.0)
out = {"workload": a.workload, "seed": int(a.seed), "seconds": int(a.seconds),
       "machine": {"nproc": 1}, "correct": True,
       "end_to_end": {m: {"value": value} for m in METRICS}}
os.makedirs(os.path.join(tree, "bench_results"), exist_ok=True)
with open(os.path.join(tree, "bench_results", "%s-seed%s-trace0.json"
                       % (a.workload, a.seed)), "w") as fh:
    json.dump(out, fh)
"""


def load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench_record(tmp_path, monkeypatch):
    """main() over two fake trees, with the tier-1 suite stubbed; returns the
    record, the (cwd, OPENBLAS_NUM_THREADS) of each tier-1 run and the kind
    of every command run ("calibration", "run" or "tier1"), in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    for tree in ("parent", "change"):
        os.makedirs(tmp_path / tree / "perfbench")
        (tmp_path / tree / "perfbench" / "run.py").write_text(
            "METRICS = %r\n" % metrics + FAKE_RUN)
    module = load_bench_record()
    tier1_runs, kinds, real_run = [], [], subprocess.run

    def fake_run(cmd, **kw):
        if cmd != module.TIER1:
            kinds.append("calibration" if cmd[1] == "-c" else "run")
            return real_run(cmd, **kw)
        kinds.append("tier1")
        tier1_runs.append((kw["cwd"], kw["env"]["OPENBLAS_NUM_THREADS"]))
        return subprocess.CompletedProcess(cmd, 0, stdout="....\n\n4 passed in 0.25s\n")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    module.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                 "--workloads", "wl_a,wl_b", "--seeds", "2-3", "--out", str(out)])
    return json.loads(out.read_text()), tier1_runs, kinds


def test_run_alternates_and_folds_only_its_runs(tmp_path, monkeypatch):
    # a stale result on one side only must not reach the record
    os.makedirs(tmp_path / "parent" / "bench_results")
    (tmp_path / "parent" / "bench_results" / "wl_a-seed99-trace0.json").write_text(
        json.dumps({"workload": "wl_a", "seed": 99}))
    rec, _, _ = run_bench_record(tmp_path, monkeypatch)
    calls = (tmp_path / "calls.log").read_text().splitlines()
    # no --seconds is passed, so each tree's run.py keeps its own default
    assert calls == ["parent wl_a 2 10", "change wl_a 2 10", "parent wl_b 2 10",
                     "change wl_b 2 10", "change wl_a 3 10", "parent wl_a 3 10",
                     "change wl_b 3 10", "parent wl_b 3 10"]
    assert sorted(rec["workloads"]) == ["wl_a", "wl_b"]
    assert rec["seconds"] == [10] and rec["all_correct"]
    for wl in ("wl_a", "wl_b"):
        rows = rec["workloads"][wl]["metrics"]
        assert rec["workloads"][wl]["seeds"] == [2, 3]
        assert rows["train_step_ms"]["pairs"] == [[4.0, 2.0], [6.0, 3.0]]
        assert rows["train_step_ms"]["change_wins"] == 2
        assert rows["eval_users_per_s"]["change_wins"] == 0
        assert rows["train_step_ms"]["change_over_parent"] == 0.5


def test_records_tier1_of_the_change(tmp_path, monkeypatch):
    rec, tier1_runs, _ = run_bench_record(tmp_path, monkeypatch)
    assert tier1_runs == [(str(tmp_path / "change"), "1")]
    assert rec["tier1"]["summary"] == "4 passed in 0.25s"
    assert isinstance(rec["tier1"]["wall_s"], float) and rec["tier1"]["wall_s"] >= 0


def test_records_calibration_before_and_after_the_pairs(tmp_path, monkeypatch):
    rec, _, kinds = run_bench_record(tmp_path, monkeypatch)
    assert kinds == ["calibration"] + ["run"] * 8 + ["calibration", "tier1"]
    assert sorted(rec["calibration"]) == ["after", "before"]
    for timing in rec["calibration"].values():
        assert sorted(timing) == ["gemm_ms", "loop_ms"]
        assert all(isinstance(v, float) and v > 0 for v in timing.values())


def test_seed_ranges():
    assert load_bench_record()._seeds("401-403,7,9-9") == [401, 402, 403, 7, 9]
