"""Optimization loop.

Adam with a linear warm-up into cosine annealing, length-bucketed batches of
prefix examples, a warm-up stage that trains only the guidance encoders, and
checkpoints that restore training bit-exactly (parameters, optimizer moments,
and generator state).
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import shutil
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .autograd import Tensor
from .data import (AUGMENTATION_OPS, AugmentationSpec, DatasetSplit,
                   UserSequence, augment)
from .diffusion import DiffusionSchedule, build_schedule, strided_steps
from .network import (VARIANTS, ModelConfig, ParameterSet, SequenceBatch,
                      build_training_examples, check_seq_lens, check_vocab_sizes,
                      init_parameters, make_train_batch, param_specs,
                      training_forward)
from .objectives import (LOSS_TERMS, LossBreakdown, diffusion_loss, rec_loss,
                         total_loss, tri_view_cl_loss)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 512
    epochs: int = 100
    warmup_epochs: int = 2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = None
    aug_rate: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1 or self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("batch_size must be >= 1, epochs and warmup_epochs >= 0")
        if not (0.0 < self.aug_rate < 1.0):
            raise ValueError("aug_rate must lie in (0, 1)")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")


def lr_at(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Learning rate for one optimizer step (0-based).

    Ramps linearly so the last warm-up step reaches base_lr exactly, then
    follows a half cosine that hits zero on the final step.
    """
    if step < 0 or total_steps < 1:
        raise ValueError("need step >= 0 and total_steps >= 1")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    if total_steps <= warmup_steps:
        return 0.0
    progress = min(1.0, (step + 1 - warmup_steps) / (total_steps - warmup_steps))
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * progress))


# The forward runs two encoder passes on the worker, backward hands it its
# weight-gradient GEMMs and Adam splits its per-parameter work with it, from
# this many parameters up (numpy releases the GIL on large arrays). Inside
# `fit` at `train_wide`'s shapes with d overridden, a step with all three on
# against all off was 5% slower at 0.39M parameters, 3% faster at 0.49M, 7%
# at 0.60M and 14% at 0.85M; the threshold lies between 0.49M and 0.60M.
_POOL_MIN_PARAMS = 2 ** 19
_pool: tuple[int, ThreadPoolExecutor] | None = None   # (pid that built it, executor)


def _executor() -> ThreadPoolExecutor:
    """The one worker thread beside the caller's, built on first use and again
    in a forked child, which inherits the parent's executor but not its thread."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        _pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="crossdiff-worker"))
    return _pool[1]


def _cores() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one (Linux), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads_getter():
    """The thread-count getter of the OpenBLAS that numpy loaded, or None where
    none can be found (another BLAS, or no /proc/self/maps)."""
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
                return fn
    return None


def _blas_threads() -> int | None:
    """How many threads numpy's OpenBLAS uses now, or None if unknown."""
    fn = _openblas_threads_getter()
    return None if fn is None else int(fn())


def _two_threads(params: ParameterSet) -> bool:
    """Whether a step on params uses the worker thread: the forward's encoder
    branches, backward's deferred weight gradients and Adam's split. Only with
    one BLAS thread: with two on two cores, a `train_wide` step with the
    worker measured 10-17% slower than without, and Adam's split alone level."""
    return (params.n_params >= _POOL_MIN_PARAMS and _cores() >= 2
            and _blas_threads() == 1)


def _halves(items: list) -> tuple[list, list]:
    """Two lists of about equal element count: largest parameter first, each to the lighter."""
    halves, sizes = ([], []), [0, 0]
    for item in sorted(items, key=lambda it: it[1].data.size, reverse=True):
        i = int(sizes[1] < sizes[0])
        halves[i].append(item)
        sizes[i] += item[1].data.size
    return halves


def _each(fn, items: list, halves=None) -> list:
    """[fn(*item) for item in items]. Given halves, the worker thread runs the
    second half while this thread runs the first."""
    if halves is None:
        return [fn(*item) for item in items]

    def run(half):
        return {item[0]: fn(*item) for item in half}

    second = _executor().submit(run, halves[1])
    try:
        done = run(halves[0])
    finally:
        wait([second])   # the worker never outlives an error raised here
    done.update(second.result())
    return [done[item[0]] for item in items]


class Adam:
    """Standard Adam with bias correction; moments decay even at zero gradient.

    With at least 2**19 parameters, two cores and one BLAS thread, a step
    splits its per-parameter work between the calling thread and one worker thread.
    Each parameter's arithmetic is the same and the gradient norm is still
    summed in name order, so every bit matches the inline step.
    """

    def __init__(self, params: ParameterSet, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        # np.zeros pages stay untouched until written, so the moments that
        # load_checkpoint replaces cost nothing
        self.m = {name: np.zeros(p.data.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.data.shape) for name, p in params.items()}

    def step(self, params: ParameterSet, lr: float, grad_clip: float | None = None) -> None:
        """One update. A non-finite gradient norm raises FloatingPointError
        before the step count, the moments or any parameter change."""
        grads = [(name, p, 0.0 if p.grad is None else p.grad) for name, p in params.items()]
        halves = _halves(grads) if _two_threads(params) else None
        sq_norm = 0.0
        for (name, _, _), sq in zip(grads, _each(lambda name, p, g: float(np.sum(g * g)),
                                                 grads, halves)):
            sq_norm += sq
            if not math.isfinite(sq_norm):
                raise FloatingPointError("gradient norm turns non-finite at %s" % name)
        norm = math.sqrt(sq_norm)
        scale = grad_clip / norm if grad_clip is not None and norm > grad_clip else None
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t

        def apply(name, p, g):
            if scale is not None:
                g = g * scale
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            update = (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)
            p.data = p.data - lr * update

        _each(apply, grads, halves)


@dataclass
class TrainState:
    params: ParameterSet
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    sched: DiffusionSchedule
    variant_name: str
    opt: Adam
    rng: np.random.Generator
    epoch: int = 0
    global_step: int = 0
    best_metric: float = float("-inf")
    best_epoch: int = -1
    best_params: np.ndarray | None = None
    history: list = field(default_factory=list)

    @property
    def variant(self):
        return VARIANTS[self.variant_name]


def _check_run(model_cfg: ModelConfig, train_cfg: TrainConfig,
               sched: DiffusionSchedule, variant: str) -> None:
    """Reject a run description that training could not use, new or restored."""
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r (known: %s)" % (variant, sorted(VARIANTS)))
    if model_cfg.T != sched.T:
        raise ValueError("model T=%d disagrees with schedule T=%d" % (model_cfg.T, sched.T))
    model_cfg.validate()
    train_cfg.validate()


def init_state(model_cfg: ModelConfig, train_cfg: TrainConfig,
               sched: DiffusionSchedule, variant: str = "full") -> TrainState:
    _check_run(model_cfg, train_cfg, sched, variant)
    params = init_parameters(model_cfg, rng_seed=train_cfg.seed)
    opt = Adam(params, train_cfg.beta1, train_cfg.beta2, train_cfg.adam_eps)
    # separate stream from the one that initialized the parameters
    rng = np.random.default_rng([train_cfg.seed, 1])
    return TrainState(params=params, model_cfg=model_cfg, train_cfg=train_cfg,
                      sched=sched, variant_name=variant, opt=opt, rng=rng)


def effective_warmup_epochs(state: TrainState) -> int:
    """Warm-up trains only the guidance encoders, so variants without them skip it."""
    return state.train_cfg.warmup_epochs if state.variant.use_de else 0


def train_step(state: TrainState, batch: SequenceBatch, warmup: bool,
               lr: float) -> LossBreakdown:
    """One forward/backward/update pass. Draws t and noise from the state RNG."""
    cfg = state.model_cfg
    B = batch.size
    if warmup:
        t_arr = eps = None
    else:
        t_arr = state.rng.integers(1, cfg.T + 1, size=B)
        eps = state.rng.standard_normal((B, cfg.d))
    pool = _executor() if _two_threads(state.params) else None
    bundle = training_forward(state.params, cfg, batch, state.variant, state.sched,
                              t_arr, eps, pool)
    gb = bundle.guidance
    l_diff = None if warmup else diffusion_loss(bundle.x0, bundle.x0_hat)
    l_rec = rec_loss(bundle.x0_hat, gb.gx_hat, gb.gy_hat,
                     batch.tx, batch.wx, batch.ty, batch.wy,
                     state.params["emb_x"], state.params["emb_y"])
    l_cl = None
    if bundle.h_aug is not None and B >= 2:
        l_cl = tri_view_cl_loss(bundle.x0_hat, gb.gd_hat, bundle.h_aug)
    total, breakdown = total_loss(l_diff, l_rec, l_cl)
    state.params.zero_grads()
    if pool is None:
        total.backward()
    else:
        total.backward(pool=pool)
    state.opt.step(state.params, lr, state.train_cfg.grad_clip)
    state.global_step += 1
    return breakdown


def _length_buckets(examples) -> dict[int, list[int]]:
    """Example indices grouped by prefix length."""
    buckets: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        buckets.setdefault(len(ex.items), []).append(i)
    return buckets


def _bucketed_batches(examples, batch_size: int, rng: np.random.Generator):
    """Batches of equal-length prefixes, shuffled within and across buckets."""
    buckets = _length_buckets(examples)
    batches = []
    for length in sorted(buckets):
        idxs = np.asarray(buckets[length])
        idxs = idxs[rng.permutation(len(idxs))]
        for lo in range(0, len(idxs), batch_size):
            batches.append(idxs[lo:lo + batch_size])
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def count_steps_per_epoch(examples, batch_size: int) -> int:
    return sum(math.ceil(len(idxs) / batch_size)
               for idxs in _length_buckets(examples).values())


def fit(state: TrainState, split: DatasetSplit, *, out_dir: str | None = None,
        eval_every: int = 1, checkpoint_every: int = 0,
        eval_negatives: int | None = None, eval_seed: int = 101,
        eval_steps: int | None = None, max_epochs: int | None = None,
        verbose: bool = False) -> TrainState:
    """Train from state.epoch up to train_cfg.epochs.

    Validation ranking quality (when eval_every > 0) drives best-parameter
    tracking; the best and latest checkpoints land under out_dir when given.
    Calling fit on a freshly loaded checkpoint continues the interrupted run
    bit-exactly. max_epochs caps how many epochs this call runs without
    shortening the learning-rate horizon, emulating an interruption.
    """
    from . import evaluation

    cfg, tcfg = state.model_cfg, state.train_cfg
    examples = build_training_examples(split)
    if not examples:
        raise ValueError("training split yields no prefix examples")
    check_vocab_sizes(cfg, split.vocab_x, split.vocab_y)
    check_seq_lens(cfg, examples)
    validate = eval_every > 0 and bool(split.validation)
    if validate:
        check_seq_lens(cfg, [s for s, _ in split.validation])
        if eval_steps is not None:
            strided_steps(cfg.T, eval_steps)
    vx, vy = split.vocab_x, split.vocab_y
    steps_per_epoch = count_steps_per_epoch(examples, tcfg.batch_size)
    total_steps = max(1, tcfg.epochs * steps_per_epoch)
    warm_epochs = effective_warmup_epochs(state)
    warmup_steps = warm_epochs * steps_per_epoch
    if eval_negatives is None:
        eval_negatives = evaluation.auto_negatives(split)
    evaluation.check_negatives(eval_negatives)
    end_epoch = tcfg.epochs
    if max_epochs is not None:
        end_epoch = min(end_epoch, state.epoch + max_epochs)
    saved_epoch = None   # the epoch `latest` was last saved at by this call

    for epoch in range(state.epoch, end_epoch):
        warmup = epoch < warm_epochs
        sums = np.zeros(len(LOSS_TERMS))
        batches = _bucketed_batches(examples, tcfg.batch_size, state.rng)
        for batch_idx in batches:
            exs = [examples[j] for j in batch_idx]
            augmented = None
            if state.variant.use_tricl and not warmup:
                augmented = []
                for ex in exs:
                    op = AUGMENTATION_OPS[int(state.rng.integers(len(AUGMENTATION_OPS)))]
                    aug_seed = int(state.rng.integers(2 ** 63))
                    aseq = augment(UserSequence(ex.user_index, list(ex.items)),
                                   AugmentationSpec(op, tcfg.aug_rate, aug_seed),
                                   vx, vy, max_seq_len=cfg.max_seq_len)
                    augmented.append(aseq.items)
            batch = make_train_batch(exs, vx, vy, augmented)
            lr = lr_at(state.global_step, total_steps, warmup_steps, tcfg.lr)
            try:
                bd = train_step(state, batch, warmup, lr)
            except FloatingPointError as e:
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, "crash"), state)
                raise RuntimeError("training diverged at epoch %d step %d: %s"
                                   % (epoch, state.global_step, e)) from e
            sums += astuple(bd)
        state.epoch = epoch + 1
        record = {"epoch": state.epoch, "stage": "warmup" if warmup else "main",
                  **dict(zip(LOSS_TERMS, sums / len(batches)))}
        if validate and state.epoch % eval_every == 0:
            report = evaluation.evaluate(split.validation, state.params, cfg,
                                         state.sched, state.variant_name, vx, vy,
                                         seed=eval_seed, n_steps=eval_steps,
                                         n_negatives=eval_negatives,
                                         trained_steps=state.global_step)
            metric = evaluation.overall_ndcg(report, 10)
            record["val_ndcg10"] = metric
            if metric > state.best_metric:
                state.best_metric = metric
                state.best_epoch = state.epoch
                state.best_params = state.params.to_vector()
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, "best"), state)
        state.history.append(record)
        if verbose:
            msg = ("epoch %3d [%s] loss %.4f (diff %.4f rec %.4f cl %.4f)"
                   % (state.epoch, record["stage"], record["l_total"],
                      record["l_diff"], record["l_rec"], record["l_tri_cl"]))
            if "val_ndcg10" in record:
                msg += " val-ndcg@10 %.4f" % record["val_ndcg10"]
            print(msg)
        if out_dir and checkpoint_every > 0 and state.epoch % checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, "latest"), state)
            saved_epoch = state.epoch
    if out_dir and saved_epoch != state.epoch:
        save_checkpoint(os.path.join(out_dir, "latest"), state)
    return state


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT_VERSION = 2
# TrainState fields the manifest holds under their own names
PROGRESS_FIELDS = ("epoch", "global_step", "best_epoch", "history")


def save_checkpoint(ckpt_dir: str, state: TrainState) -> None:
    """Write manifest plus raw little-endian float64 parameter/moment blobs.

    Every file goes into the sibling directory `<ckpt_dir>.tmp`, which then
    replaces `ckpt_dir` whole; the previous checkpoint is parked in
    `<ckpt_dir>.old` until the swap is done. A crash at any point leaves the
    previous checkpoint, the new one, or no `ckpt_dir` at all, never a mix.
    """
    ckpt_dir = os.path.normpath(ckpt_dir)
    tmp, old = ckpt_dir + ".tmp", ckpt_dir + ".old"
    if not os.path.exists(ckpt_dir) and os.path.isdir(old):
        os.rename(old, ckpt_dir)   # a crash between the two renames below
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    os.makedirs(tmp)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_cfg": asdict(state.model_cfg),
        "train_cfg": asdict(state.train_cfg),
        "schedule": state.sched.spec(),
        "variant": state.variant_name,
        "params": [[name, list(p.data.shape)] for name, p in state.params.items()],
        "adam_t": state.opt.t,
        "rng_state": state.rng.bit_generator.state,
        "best_metric": (None if state.best_metric == float("-inf")
                        else state.best_metric),
        "has_best": state.best_params is not None,
        **{key: getattr(state, key) for key in PROGRESS_FIELDS},
    }
    with open(os.path.join(tmp, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    names = state.params.names()
    _write_blob(os.path.join(tmp, "params.bin"), [p.data for p in state.params.tensors()])
    _write_blob(os.path.join(tmp, "optimizer.bin"),
                [state.opt.m[n] for n in names] + [state.opt.v[n] for n in names])
    if state.best_params is not None:
        _write_blob(os.path.join(tmp, "best.bin"), [state.best_params])
    if os.path.exists(ckpt_dir):
        os.rename(ckpt_dir, old)
    os.rename(tmp, ckpt_dir)
    shutil.rmtree(old, ignore_errors=True)


def _write_blob(path: str, arrays) -> None:
    """Concatenate the arrays, each flattened in C order, as little-endian float64."""
    with open(path, "wb") as fh:
        for a in arrays:
            np.asarray(a, dtype="<f8").tofile(fh)


def _read_blob(ckpt_dir: str, name: str, n_values: int) -> np.ndarray:
    path = os.path.join(ckpt_dir, name)
    vec = np.fromfile(path, dtype="<f8")
    if vec.size != n_values:
        raise ValueError("%s holds %d values, expected %d" % (path, vec.size, n_values))
    return vec


def _split_blob(vec: np.ndarray, specs):
    """(name, view) pairs cutting `vec` into consecutive arrays of the given shapes."""
    off = 0
    for name, shape in specs:
        n = math.prod(shape)
        yield name, vec[off:off + n].reshape(shape)
        off += n


def load_checkpoint(ckpt_dir: str) -> TrainState:
    """Restore what save_checkpoint wrote.

    A manifest that is not JSON, lacks a field, or describes a run training
    could not use raises ValueError naming `<ckpt_dir>/manifest.json`; a blob
    of the wrong length raises ValueError naming the blob.
    """
    path = os.path.join(ckpt_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        if manifest["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError("unsupported checkpoint format %r" % manifest["format_version"])
        model_cfg = ModelConfig(**manifest["model_cfg"])
        train_cfg = TrainConfig(**manifest["train_cfg"])
        sched = build_schedule(**manifest["schedule"])
        variant = manifest["variant"]
        _check_run(model_cfg, train_cfg, sched, variant)
        specs = [(name, shape) for name, shape, _ in param_specs(model_cfg)]
        if [[n, list(s)] for n, s in specs] != [[n, list(s)] for n, s in manifest["params"]]:
            raise ValueError("checkpoint parameter manifest does not match the config")
        rng = np.random.default_rng()
        rng.bit_generator.state = manifest["rng_state"]
        adam_t, has_best = manifest["adam_t"], manifest["has_best"]
        best_metric = manifest["best_metric"]
        progress = {key: manifest[key] for key in PROGRESS_FIELDS}
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError("%s: malformed manifest (%s: %s)"
                         % (path, type(e).__name__, e)) from None
    n_params = sum(math.prod(s) for _, s in specs)
    params = ParameterSet(
        (name, Tensor(arr, requires_grad=True))
        for name, arr in _split_blob(_read_blob(ckpt_dir, "params.bin", n_params), specs))
    m, v = np.split(_read_blob(ckpt_dir, "optimizer.bin", 2 * n_params), 2)
    opt = Adam(params, train_cfg.beta1, train_cfg.beta2, train_cfg.adam_eps)
    opt.t, opt.m, opt.v = adam_t, dict(_split_blob(m, specs)), dict(_split_blob(v, specs))
    state = TrainState(params=params, model_cfg=model_cfg, train_cfg=train_cfg,
                       sched=sched, variant_name=variant, opt=opt, rng=rng,
                       best_metric=float("-inf") if best_metric is None else best_metric,
                       **progress)
    if has_best:
        state.best_params = _read_blob(ckpt_dir, "best.bin", n_params)
    return state
