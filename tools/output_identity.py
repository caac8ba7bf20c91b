"""Digest crossdiff's outputs, to show that a change leaves every byte as it was.

    python3 tools/output_identity.py --src DIR

runs the crossdiff package found in DIR/src, in child processes, and prints
one SHA-256 for each of four sections:

- library: `fit` over six small runs that between them cover all five
  variants, d 8/12/16, 1-3 heads, 2 encoder layers with 1 decoder layer and
  1 with 2, no gradient clip and clips of 0.3/0.5/1/5, 0-2 warm-up epochs,
  validation every epoch and a checkpoint every epoch. It digests the
  parameters, the Adam moments, the history, every checkpoint file and the
  verbose output, then `evaluate` on the test part at n_steps 1, 2 and T,
  each at batch sizes 64 and 5.
- eval: the forward path alone, on seeded untrained parameters and no
  `fit`: `evaluate` on the test part for all five variants, at n_steps 1
  and T, each at batch sizes 64, 5 and 1. It digests the reports and the
  bytes of every `guidance_forward` and `sample_batch` result that
  `evaluate` computes, so a change that moves training bits can show that
  its forward path is unchanged. The section's process pins itself to one
  CPU for these calls, because with two `evaluate` ranks half of each batch
  in a forked child whose arrays no hook here sees. It then makes the same
  calls on all the CPUs it was given and fails unless every report equals
  the one-CPU report (on a one-CPU machine that comparison is trivial).
- wide: `fit` for one warm-up and two main epochs (grad clip 1.0) on a
  seeded d=256 model of 3.3M parameters, large enough that, on a machine
  with two cores, Adam splits its updates over two threads, backward hands
  every leaf gradient (its weight-gradient GEMMs among them) to the worker,
  and the forward runs enc_y and the augmented view's enc_c there. It
  digests the parameters, the Adam moments and step count, and the history.
  It fails unless each of the 36 steps (12 warm-up, 24 main) handed at
  least one weight-gradient GEMM to the worker, and each warm-up step one
  forward branch and each main step two, so it needs two CPUs; it counts
  both at the worker's executor.
- cli: synth, prepare, train (`full` with a gradient clip, and `diff`),
  eval (also `--use-best --part valid`), robust, sweep and ablate. It
  digests every file the commands write and their standard output, leaving
  out the run manifests' timestamps and output paths.

Run it on two trees, say a parent commit and a change; equal lines mean
equal bytes. The four sections together take about 10 seconds on a 2-core
machine: library about 3, eval 1, wide 2 to 2.5 and cli the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

# every child imports crossdiff from --src and uses one BLAS thread, so the
# digests do not depend on the machine's core count
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# (variant, d, n_heads, enc_layers, dec_layers, grad_clip, warmup_epochs)
LIBRARY_RUNS = [
    ("full", 8, 2, 2, 1, None, 1),
    ("diff", 12, 3, 1, 2, 0.3, 2),
    ("diff_de", 16, 1, 2, 1, 0.5, 2),
    ("diff_de_g", 8, 1, 1, 2, 1.0, 0),
    ("diff_de_tricl", 12, 2, 2, 1, 5.0, 1),
    ("full", 16, 2, 1, 2, 0.3, 2),
]

# (variant, d, n_heads, dec_layers) for the eval section
EVAL_RUNS = [
    ("diff", 8, 2, 1),
    ("diff_de", 16, 1, 2),
    ("diff_de_g", 64, 2, 1),
    ("diff_de_tricl", 12, 3, 1),
    ("full", 64, 4, 2),
]

# (d, n_heads, enc_layers, dec_layers) for the wide section
WIDE_MODEL = (256, 2, 1, 1)

CLI_SETTINGS = ["n_users=60", "n_items_x=30", "n_items_y=30", "min_interactions=5",
                "d=8", "n_heads=2", "enc_layers=1", "diffusion_steps=6",
                "epochs=3", "warmup_epochs=1", "batch_size=32", "checkpoint_every=1"]


def _digest_tree(h, root: str) -> None:
    """Feed every file under root, by relative path and bytes, into h."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "run_manifest.json":
                manifest = json.loads(data)
                for key in ("started_at", "finished_at", "outputs"):
                    manifest.pop(key)
                data = json.dumps(manifest, sort_keys=True).encode()
            h.update(data + b"\0")


def _split():
    from crossdiff.data import SyntheticConfig, filter_and_split, generate_synthetic

    events, _ = generate_synthetic(SyntheticConfig(
        n_users=24, n_items_x=40, n_items_y=40, n_shared_interests=3,
        n_specific_interests=1, noise_rate=0.1, seq_len_range=(10, 15), rng_seed=7))
    return filter_and_split(events)


def library_section(work: str) -> str:
    import numpy as np

    from crossdiff.diffusion import build_schedule
    from crossdiff.evaluation import evaluate
    from crossdiff.network import ModelConfig
    from crossdiff.trainer import TrainConfig, fit, init_state

    split = _split()
    sched = build_schedule(6)
    h = hashlib.sha256()
    for i, (variant, d, heads, enc_layers, dec_layers, clip, warm) in enumerate(LIBRARY_RUNS):
        model_cfg = ModelConfig(d=d, n_heads=heads, enc_layers=enc_layers,
                                dec_layers=dec_layers,
                                max_seq_len=15, T=sched.T,
                                vocab_x_size=split.vocab_x.size,
                                vocab_y_size=split.vocab_y.size)
        train_cfg = TrainConfig(lr=1e-2, batch_size=16, epochs=4, warmup_epochs=warm,
                                grad_clip=clip, seed=i)
        state = init_state(model_cfg, train_cfg, sched, variant=variant)
        out_dir = os.path.join(work, "run%d" % i)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            fit(state, split, out_dir=out_dir, eval_every=1, checkpoint_every=1,
                eval_seed=5, verbose=True)
        h.update(stdout.getvalue().encode())
        h.update(state.params.to_vector().tobytes())
        for name in state.params.names():
            h.update(state.opt.m[name].tobytes() + state.opt.v[name].tobytes())
        h.update(json.dumps(state.history, sort_keys=True).encode())
        _digest_tree(h, out_dir)
        for n_steps in (1, 2, sched.T):
            for batch_size in (64, 5):
                rep = evaluate(split.test, state.params, model_cfg, sched, variant,
                               split.vocab_x, split.vocab_y, seed=3, n_steps=n_steps,
                               n_negatives=10, batch_size=batch_size,
                               trained_steps=state.global_step)
                h.update(repr(sorted(rep.per_domain.items())).encode())
                h.update(json.dumps(rep.fingerprint, sort_keys=True).encode())
        h.update(np.float64(state.best_metric).tobytes())
    return h.hexdigest()


def eval_section() -> str:
    from crossdiff import evaluation
    from crossdiff.diffusion import build_schedule
    from crossdiff.network import ModelConfig, init_parameters

    split = _split()
    sched = build_schedule(6)
    h = hashlib.sha256()

    def digesting(fn, arrays):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            for a in arrays(out):
                h.update(b"-" if a is None else repr(a.shape).encode() + a.tobytes())
            return out
        return wrapper

    def hats(t):
        return None if t is None else t.data

    def reports(each=lambda rep: None):
        out = []
        for i, (variant, d, heads, dec_layers) in enumerate(EVAL_RUNS):
            model_cfg = ModelConfig(d=d, n_heads=heads, enc_layers=2, dec_layers=dec_layers,
                                    max_seq_len=15, T=sched.T,
                                    vocab_x_size=split.vocab_x.size,
                                    vocab_y_size=split.vocab_y.size)
            params = init_parameters(model_cfg, rng_seed=i)
            for n_steps in (1, sched.T):
                for batch_size in (64, 5, 1):
                    out.append(evaluation.evaluate(
                        split.test, params, model_cfg, sched, variant, split.vocab_x,
                        split.vocab_y, seed=3, n_steps=n_steps, n_negatives=10,
                        batch_size=batch_size))
                    each(out[-1])
        return out

    def digest_report(rep):
        h.update(repr(sorted(rep.per_domain.items())).encode())
        h.update(json.dumps(rep.fingerprint, sort_keys=True).encode())

    # On one CPU `evaluate` ranks every user in this process, where the hooks
    # see every array; on more a forked child ranks the second half of each
    # batch with copies of the hooks whose digests stay in the child.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    unhooked = evaluation.guidance_forward, evaluation.sample_batch
    evaluation.guidance_forward = digesting(
        evaluation.guidance_forward,
        lambda gb: (gb.guide.data[gb.guide_valid > 0], gb.guide_valid, hats(gb.gx_hat),
                    hats(gb.gy_hat), hats(gb.gd_hat)))
    evaluation.sample_batch = digesting(evaluation.sample_batch, lambda x0_hat: (x0_hat,))
    one_cpu = reports(digest_report)
    evaluation.guidance_forward, evaluation.sample_batch = unhooked
    os.sched_setaffinity(0, cpus)
    if reports() != one_cpu:
        raise SystemExit("evaluate's reports on %d CPUs differ from those on one"
                         % len(cpus))
    return h.hexdigest()


def wide_section() -> str:
    from crossdiff import autograd, network, trainer
    from crossdiff.diffusion import build_schedule
    from crossdiff.network import ModelConfig
    from crossdiff.trainer import TrainConfig, fit, init_state

    split = _split()
    sched = build_schedule(6)
    d, heads, enc_layers, dec_layers = WIDE_MODEL
    model_cfg = ModelConfig(d=d, n_heads=heads, enc_layers=enc_layers,
                            dec_layers=dec_layers, max_seq_len=15, T=sched.T,
                            vocab_x_size=split.vocab_x.size,
                            vocab_y_size=split.vocab_y.size)
    train_cfg = TrainConfig(lr=1e-3, batch_size=32, epochs=3, warmup_epochs=1,
                            grad_clip=1.0, seed=16)
    state = init_state(model_cfg, train_cfg, sched, variant="full")
    # for each step: whether it is a warm-up step, how many weight-gradient
    # GEMMs (folds whose rule is a _WeightGrad) and how many forward branches
    # went to the worker
    steps, pool, real_step = [], trainer._executor(), trainer.train_step
    real_submit = pool.submit

    def submit(fn, *args, **kwargs):
        if fn is network.encode_sequence:
            steps[-1][2] += 1
        elif fn is autograd._fold and type(args[1]) is autograd._WeightGrad:
            steps[-1][1] += 1
        return real_submit(fn, *args, **kwargs)

    def train_step(state, batch, warmup, lr):
        steps.append([warmup, 0, 0])
        return real_step(state, batch, warmup, lr)

    pool.submit, trainer.train_step = submit, train_step
    try:
        fit(state, split, eval_every=0)
    finally:
        del pool.submit
        trainer.train_step = real_step
    cpus = len(os.sched_getaffinity(0))
    if len(steps) != state.global_step or any(n == 0 for _, n, _ in steps):
        raise SystemExit("%d of %d steps handed no GEMM to the worker (%d CPUs)"
                         % (sum(n == 0 for _, n, _ in steps), len(steps), cpus))
    wrong = [n != (1 if warm else 2) for warm, _, n in steps]
    if any(wrong):
        raise SystemExit("%d of %d steps did not hand the worker one forward branch "
                         "(warm-up) or two (main) (%d CPUs)" % (sum(wrong), len(steps), cpus))
    h = hashlib.sha256()
    h.update(state.params.to_vector().tobytes())
    for name in state.params.names():
        h.update(state.opt.m[name].tobytes() + state.opt.v[name].tobytes())
    h.update(repr((state.opt.t, state.global_step)).encode())
    h.update(json.dumps(state.history, sort_keys=True).encode())
    return h.hexdigest()


def cli_section(src: str, work: str) -> str:
    h = hashlib.sha256()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **CHILD_ENV)
    common = [arg for kv in CLI_SETTINGS for arg in ("--set", kv)]
    commands = [
        ["synth", "--out", "raw"],
        ["prepare", "--input", "raw/events.tsv", "--out", "data"],
        ["train", "--data", "data", "--out", "run_full", "--set", "grad_clip=0.5"],
        ["train", "--data", "data", "--out", "run_diff", "--variant", "diff"],
        ["eval", "--checkpoint", "run_full/latest", "--data", "data", "--out", "ev"],
        ["eval", "--checkpoint", "run_full/latest", "--data", "data", "--out", "ev_best",
         "--use-best", "--part", "valid"],
        ["eval", "--checkpoint", "run_diff/latest", "--data", "data", "--out", "ev_diff"],
        ["robust", "--checkpoint", "run_full/latest", "--data", "data", "--out", "rob",
         "--rates", "0,0.2"],
        ["sweep", "--checkpoint", "run_full/latest", "--data", "data", "--out", "sw",
         "--steps", "1,2,6"],
        ["ablate", "--data", "data", "--out", "abl", "--variants", "diff,full",
         "--seeds", "0,1", "--set", "epochs=2"],
    ]
    for cmd in commands:
        # the command's own --set comes last, so it wins over the shared ones
        proc = subprocess.run([sys.executable, "-m", "crossdiff.cli", cmd[0]] + common
                              + cmd[1:],
                              cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit("crossdiff %s failed:\n%s" % (cmd[0], proc.stderr))
        h.update((" ".join(cmd) + "\0" + proc.stdout + "\0").encode())
    _digest_tree(h, work)
    return h.hexdigest()


# the sections that run in a child process of their own, in printing order
CHILD_SECTIONS = ("library", "eval", "wide")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True,
                    help="root of the crossdiff tree whose src/ is imported")
    ap.add_argument("--child", choices=CHILD_SECTIONS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.src), "src")
    if not os.path.isdir(os.path.join(src, "crossdiff")):
        ap.error("%s holds no crossdiff package" % src)
    with tempfile.TemporaryDirectory(prefix="crossdiff-identity-") as work:
        if args.child:
            import crossdiff
            if not os.path.abspath(crossdiff.__file__).startswith(src + os.sep):
                raise SystemExit("imported crossdiff from %s, not %s"
                                 % (crossdiff.__file__, src))
            section = {"library": lambda: library_section(work), "eval": eval_section,
                       "wide": wide_section}[args.child]
            print(section())
            return 0
        env = dict(os.environ, PYTHONPATH=src, **CHILD_ENV)
        for child in CHILD_SECTIONS:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--src",
                                   args.src, "--child", child],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit("%s section failed:\n%s" % (child, proc.stderr))
            print("%-7s %s" % (child, proc.stdout.strip()))
        print("cli     %s" % cli_section(src, work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
