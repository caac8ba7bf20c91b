"""The benchmark's workloads and the closed loop that drives them.

Every workload runs the same pipeline through crossdiff's public functions:
set up (synthetic data, split, `init_state`, warm-up), train with `fit`,
rank the held-out users with `evaluate`, then check the outputs. What differs
is which phase gets the timed window: `train_small` and `train_wide` time
whole main-stage epochs of `fit` and then rank their test users for a window
of the same length; `eval_chain` trains its model during set-up by a fixed recipe, in a
child process, and times whole `evaluate` passes. One caller, closed loop:
each step or pass starts when the previous one returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import astuple, dataclass, field

import numpy as np

import oracles
from crossdiff import data, diffusion, evaluation, network, trainer

HERE = os.path.dirname(os.path.abspath(__file__))
EVAL_BATCH = 64            # evaluate()'s default
EVAL_BATCH_ALT = 100       # second batch size for the per-user RNG check
EVAL_PASSES_AFTER_TRAINING = 3       # at least this many passes after training,
EVAL_WINDOW_AFTER_TRAINING = 1.0     # and at least this share of --seconds
EVAL_WARMUP_USERS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    timed: str       # "train" or "eval": the phase that gets the timed window
    synth: dict      # SyntheticConfig fields other than rng_seed
    model: dict      # ModelConfig fields other than the vocabulary sizes
    train: dict      # TrainConfig fields other than seed
    n_setups: int    # set-ups per run; setup_s is their median


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_small",
        why="bench model (d=32, T=20, batch 128): small steps, so graph bookkeeping, "
            "scatter backwards, batch assembly and augmentation carry the time",
        timed="train",
        synth=dict(n_users=256, noise_rate=0.2, seq_len_range=(15, 15)),
        model=dict(d=32, n_heads=2, enc_layers=1, dec_layers=1, T=20),
        train=dict(lr=1e-3, batch_size=128, epochs=10 ** 6, warmup_epochs=0,
                   grad_clip=5.0, aug_rate=0.2),
        n_setups=5),
    Workload(
        name="train_wide",
        why="default width (d=256, 2 encoder layers, T=50, batch 64): GEMMs and the "
            "batched weight gradients dominate time and peak memory",
        timed="train",
        synth=dict(n_users=60, noise_rate=0.2, n_items_x=1000, n_items_y=1000,
                   seq_len_range=(10, 10)),
        model=dict(d=256, n_heads=1, enc_layers=2, dec_layers=1, T=50),
        train=dict(lr=1e-3, batch_size=64, epochs=10 ** 6, warmup_epochs=0,
                   grad_clip=5.0, aug_rate=0.2),
        n_setups=5),
    Workload(
        name="eval_chain",
        why="evaluate over 1000 users and ~934 negatives each, d=64, full T=50 "
            "reverse chain: forward-only sampling and ranking, no backward",
        timed="eval",
        synth=dict(n_users=1000, noise_rate=0.0, n_items_x=1000, n_items_y=1000),
        model=dict(d=64, n_heads=2, enc_layers=1, dec_layers=1, T=50),
        train=dict(lr=1e-2, batch_size=128, epochs=2, warmup_epochs=1,
                   grad_clip=5.0, aug_rate=0.2),
        n_setups=1),
)}


class StepLog:
    """Times every main-stage trainer.train_step call that fit() makes inside hooked()."""

    def __init__(self):
        self.times: list[float] = []
        self.losses: list[tuple] = []
        self.examples = 0
        self.start = self.end = time.perf_counter()

    @contextlib.contextmanager
    def hooked(self):
        inner = trainer.train_step

        def hook(state, batch, warmup, lr):
            t0 = time.perf_counter()
            bd = inner(state, batch, warmup, lr)
            t1 = time.perf_counter()
            if not warmup:
                self.times.append(t1 - t0)
                self.losses.append(astuple(bd))
                self.examples += batch.size
                self.end = t1
            return bd

        trainer.train_step = hook
        self.start = self.end = time.perf_counter()
        try:
            yield self
        finally:
            trainer.train_step = inner


@contextlib.contextmanager
def _batch_marks(marks: list):
    """Record (time, users) as evaluate() starts each batch; a batch runs until the next mark."""
    inner = evaluation.make_eval_batch

    def hook(sequences, vocab_x, vocab_y):
        marks.append((time.perf_counter(), len(sequences)))
        return inner(sequences, vocab_x, vocab_y)

    evaluation.make_eval_batch = hook
    try:
        yield
    finally:
        evaluation.make_eval_batch = inner


@dataclass
class Context:
    split: data.DatasetSplit
    state: trainer.TrainState
    probe: oracles.Probe
    n_negatives: int
    loss0: float


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    steps: StepLog | None = None
    passes: list = field(default_factory=list)     # (users, seconds) per evaluate pass
    batches: list = field(default_factory=list)    # (users, seconds) per evaluate batch
    reports: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)     # numbers behind the checks
    history: list = field(default_factory=list)
    final_params: bytes = b""
    checkpoint_bytes: int = 0
    timed_wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.steps.times) + sum(u for u, _ in self.passes)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def _set_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def set_up(wl: Workload, seed: int) -> Context:
    """Inputs from the seed, an initialized model, and an untimed warm-up pass."""
    events, _ = data.generate_synthetic(data.SyntheticConfig(rng_seed=seed, **wl.synth))
    split = data.filter_and_split(events)
    mcfg = network.ModelConfig(vocab_x_size=split.vocab_x.size,
                               vocab_y_size=split.vocab_y.size, **wl.model)
    state = trainer.init_state(mcfg, trainer.TrainConfig(seed=seed, **wl.train),
                               diffusion.build_schedule(mcfg.T), variant="full")
    probe = oracles.probe_batch(split, mcfg)
    # warm-up: one forward/backward touches every code path before timing
    loss0, _ = oracles.analytic_grads(
        state.params, lambda p: oracles.probe_loss(p, mcfg, state.sched, probe))
    return Context(split=split, state=state, probe=probe,
                   n_negatives=evaluation.auto_negatives(split), loss0=loss0)


def _evaluate(ctx: Context, seed: int, part=None, batch_size: int = EVAL_BATCH):
    st = ctx.state
    return evaluation.evaluate(ctx.split.test if part is None else part, st.params,
                               st.model_cfg, st.sched, st.variant_name,
                               ctx.split.vocab_x, ctx.split.vocab_y, seed=seed,
                               n_negatives=ctx.n_negatives, batch_size=batch_size,
                               trained_steps=st.global_step)


def _eval_passes(ctx: Context, seed: int, res: RunResult, seconds=None, count=None,
                 min_count: int = 1):
    """Whole evaluate passes: exactly count when given, else at least min_count
    and until the window is used up."""
    start = time.perf_counter()
    while (len(res.passes) < count if count is not None
           else len(res.passes) < min_count or time.perf_counter() - start < seconds):
        marks = []
        t0 = time.perf_counter()
        with _batch_marks(marks):
            rep = _evaluate(ctx, seed)
        t1 = time.perf_counter()
        bounds = [t0] + [t for t, _ in marks[1:]] + [t1]
        res.batches.extend((n, hi - lo) for (_, n), lo, hi in zip(marks, bounds, bounds[1:]))
        res.passes.append((rep.n_users, t1 - t0))
        res.reports.append(rep)


def train_recipe(wl: Workload, seed: int, out_dir: str, tracer=None) -> None:
    """eval_chain's model: one warm-up and one main epoch, saved under out_dir.

    Runs in its own process (run.py --recipe), as `crossdiff train` precedes
    `crossdiff eval`, so the evaluating process's memory holds no training
    graphs. Writes the main epoch's step log and, traced, its spans.
    """
    ctx = set_up(wl, seed)
    trainer.fit(ctx.state, ctx.split, eval_every=0, max_epochs=1)
    _set_phase(tracer, "train")
    log = StepLog()
    with log.hooked():
        trainer.fit(ctx.state, ctx.split, eval_every=0, max_epochs=1)
    _set_phase(tracer, "setup")
    trainer.save_checkpoint(os.path.join(out_dir, "model"), ctx.state)
    with open(os.path.join(out_dir, "steps.json"), "w") as fh:
        json.dump({"times": log.times, "losses": log.losses, "examples": log.examples,
                   "start": log.start, "end": log.end,
                   "spans": tracer.spans if tracer is not None else []}, fh)


def _trained_in_child(wl: Workload, seed: int, tracer) -> tuple[trainer.TrainState, StepLog]:
    out_dir = os.path.join(results_dir(), "recipe-%s-%d" % (wl.name, os.getpid()))
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--recipe", wl.name,
           "--seed", str(seed), "--out", out_dir, "--trace", str(int(tracer is not None))]
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True)
        with open(os.path.join(out_dir, "steps.json")) as fh:
            rec = json.load(fh)
        state = trainer.load_checkpoint(os.path.join(out_dir, "model"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    log = StepLog()
    log.times, log.examples, log.start, log.end = (rec["times"], rec["examples"],
                                                   rec["start"], rec["end"])
    log.losses = [tuple(x) for x in rec["losses"]]
    if tracer is not None:
        tracer.extend(rec["spans"])
    return state, log


def run(wl: Workload, seed: int, seconds: float, replay: RunResult | None = None,
        tracer=None) -> RunResult:
    """One run of a workload. With replay, repeat that run's epoch and pass counts
    instead of timing them, so that the two runs can be compared bit for bit."""
    res = RunResult()
    n_epochs = len(replay.history) if replay is not None else None
    n_passes = len(replay.passes) if replay is not None else None

    fingerprints = []
    for _ in range(wl.n_setups):
        ctx = None   # drop the previous set-up before building the next
        _set_phase(tracer, "setup")
        t0 = time.perf_counter()
        ctx = set_up(wl, seed)
        if wl.timed == "eval":
            ctx.state, res.steps = _trained_in_child(wl, seed, tracer)
            _evaluate(ctx, seed, part=ctx.split.test[:EVAL_WARMUP_USERS])
        res.setup_s.append(time.perf_counter() - t0)
        fingerprints.append((hashlib.sha256(ctx.state.params.to_vector().tobytes()).hexdigest(),
                             ctx.loss0))
    res.checks["setups_identical"] = len(set(fingerprints)) == 1

    if wl.timed == "train":
        # whole epochs until the window is used up, so every run trains the same
        # mix of batch shapes
        _set_phase(tracer, "train")
        res.steps = StepLog()
        with res.steps.hooked():
            while (len(ctx.state.history) < n_epochs if replay is not None
                   else not ctx.state.history
                   or time.perf_counter() - res.steps.start < seconds):
                trainer.fit(ctx.state, ctx.split, eval_every=0, max_epochs=1)
        res.timed_wall_s = res.steps.end - res.steps.start
        _set_phase(tracer, "eval")
        _eval_passes(ctx, seed, res, seconds=seconds * EVAL_WINDOW_AFTER_TRAINING,
                     count=n_passes, min_count=EVAL_PASSES_AFTER_TRAINING)
    else:
        _set_phase(tracer, "eval")
        _eval_passes(ctx, seed, res, seconds=seconds, count=n_passes)
        res.timed_wall_s = sum(t for _, t in res.passes)

    _set_phase(tracer, "check")
    _check(wl, ctx, seed, res)
    res.history = list(ctx.state.history)
    res.final_params = ctx.state.params.to_vector().tobytes()
    return res


def _check(wl: Workload, ctx: Context, seed: int, res: RunResult) -> None:
    st, split = ctx.state, ctx.split
    checks, values = res.checks, res.values

    loss_fn = lambda p: oracles.probe_loss(p, st.model_cfg, st.sched, ctx.probe)  # noqa: E731
    loss1, grads = oracles.analytic_grads(st.params, loss_fn)
    u = oracles.unit_direction(st.params)
    err = oracles.directional_error(st.params, grads, u,
                                    oracles.fd_directional(st.params, loss_fn, u))
    values.update(probe_loss_before=ctx.loss0, probe_loss_after=loss1, grad_rel_err=err)
    checks["objective_decreased"] = loss1 < ctx.loss0
    checks["grad_check"] = err <= oracles.GRAD_CHECK_TOL
    checks["params_finite"] = all(bool(np.all(np.isfinite(p.data)))
                                  for _, p in st.params.items())
    ckpt_dir = os.path.join(results_dir(), "ckpt-%s-%d" % (wl.name, os.getpid()))
    checks["checkpoint_roundtrip"], res.checkpoint_bytes = oracles.checkpoint_roundtrip(
        st, ckpt_dir)

    per_domain = {d: sum(1 for _, (_, td) in split.test if td == d) for d in data.DOMAINS}
    checks["users_counted_once"] = all(
        rep.n_users == len(split.test)
        and all(rep.per_domain[d].n_users == n for d, n in per_domain.items() if n)
        for rep in res.reports)
    checks["passes_identical"] = all(rep == res.reports[0] for rep in res.reports)

    if wl.timed == "eval":
        rep = res.reports[0]
        ndcg = evaluation.overall_ndcg(rep, 10)
        z = oracles.ndcg_margin_z(ndcg, ctx.n_negatives, rep.n_users)
        values.update(ndcg10=ndcg, ndcg10_random=oracles.random_ndcg(ctx.n_negatives)[0],
                      ndcg10_z=z, n_negatives=ctx.n_negatives)
        checks["ndcg_beats_random"] = z >= oracles.NDCG_MIN_Z
        checks["batch_size_invariant"] = _evaluate(ctx, seed, batch_size=EVAL_BATCH_ALT) == rep


def end_to_end(res: RunResult) -> dict:
    steps = res.steps.times
    # 85th percentile: at least ten steps lie beyond it from 67 steps up
    tail = statistics.quantiles(steps, n=20, method="inclusive")[16] if len(steps) > 1 else steps[0]
    return {
        "setup_s": statistics.median(res.setup_s),
        "train_examples_per_s": res.steps.examples / (res.steps.end - res.steps.start),
        "train_step_ms": 1e3 * statistics.median(steps),
        "train_step_tail_ms": 1e3 * tail,
        "eval_users_per_s": statistics.median(u / t for u, t in res.batches),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


END_TO_END_UNITS = {"setup_s": "s", "train_examples_per_s": "examples/s",
                    "train_step_ms": "ms", "train_step_tail_ms": "ms",
                    "eval_users_per_s": "users/s", "peak_rss_mb": "MB"}


def same_outputs(a: RunResult, b: RunResult) -> bool:
    """Bit-identical training history, parameters and evaluation reports."""
    return (a.steps.losses == b.steps.losses and a.history == b.history
            and a.final_params == b.final_params and a.reports == b.reports)


def results_dir() -> str:
    """bench_results/ at the root of the checkout the benchmark sits in."""
    path = os.path.join(os.path.dirname(HERE), "bench_results")
    os.makedirs(path, exist_ok=True)
    return path
