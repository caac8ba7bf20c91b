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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .autograd import _Worker
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
    grad_clip: float | None = None
    aug_rate: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite, got %r" % self.lr)
        if self.batch_size < 1 or self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("batch_size must be >= 1, epochs and warmup_epochs >= 0")
        if not (0.0 < self.aug_rate < 1.0):
            raise ValueError("aug_rate must lie in (0, 1)")
        if self.grad_clip is not None and not 0 < self.grad_clip < math.inf:
            raise ValueError("grad_clip must be positive and finite, got %r" % self.grad_clip)


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


# The forward runs two encoder passes on the worker, backward hands it every
# leaf gradient and Adam hands it half of the parameter store, from this
# many parameters up (numpy releases the GIL on large arrays). Inside
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
    none can be found (another BLAS, no /proc/self/maps, or a library that
    cannot be opened again)."""
    try:
        with open("/proc/self/maps") as fh:
            # a line's path is all that follows its fifth field, spaces included
            libs = {fields[5] for fields in (line.rstrip("\n").split(maxsplit=5) for line in fh)
                    if len(fields) == 6 and "openblas" in fields[5].lower()}
    except OSError:
        return None
    for path in sorted(libs):
        if path.endswith(" (deleted)"):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
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


def _second_core() -> bool:
    """Two or more cores and one BLAS thread (not an unknown count). With two
    BLAS threads on two cores, a `train_wide` step on the worker thread took
    10-17% longer, and `evaluate` with a forked worker about twice as long."""
    return _cores() >= 2 and _blas_threads() == 1


def _two_threads(params: ParameterSet) -> bool:
    """Whether a step on params shares its forward, backward and Adam with the worker."""
    return params.n_params >= _POOL_MIN_PARAMS and _second_core()


# Adam updates the store in blocks of this many elements, so that each
# block's temporaries stay in cache. Timed alone at `train_wide`'s shapes
# (6.12M parameters, 2 cores, one BLAS thread), a step took 36.8 ms inline and
# 21.3 ms on two threads with 2**15; 2**16 37.7 and 20.5, 2**20 44.3 and 23.2,
# and 2**12 45.4 and 67.6 ms, because per-block Python holds the GIL.
_BLOCK = 2 ** 15

# Adam's moment decays and the term that keeps its denominator off zero
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction; moments decay even at zero gradient.

    The moments are one vector of 2N values, `moments`, m in its first half
    and v in its second, each in the parameter store's order; `m[name]` and
    `v[name]` are views of it. A step evaluates the textbook expressions in
    their order, in place, in blocks of `_BLOCK` elements of the store, each
    against its tensor's own gradient. A tensor with no gradient and zero
    moments is left out, as the update would keep its every bit (in warm-up,
    enc_c, dec, step_emb and fuse.w). With at least 2**19 parameters, two
    cores and one BLAS thread, the calling thread updates elements [0, N/2)
    and one worker thread the rest (the cut may fall inside a tensor). Every
    element's arithmetic is the same, and the gradient norm is still one
    `np.sum(g * g)` per tensor summed in name order, so every bit matches the
    inline step.
    """

    def __init__(self, params: ParameterSet, moments: np.ndarray | None = None):
        """moments: a 2N vector to use as the moments (a checkpoint's), else zeros."""
        self.t = 0
        n = params.n_params
        self.moments = np.zeros(2 * n) if moments is None else moments
        self.m, self.v = ({name: self.moments[half + off:half + off + p.data.size]
                           .reshape(p.data.shape) for name, p, off in _offsets(params)}
                          for half in (0, n))
        self._scratch = np.empty(0)   # per thread, two blocks of temporaries

    def step(self, params: ParameterSet, lr: float, grad_clip: float | None = None) -> None:
        """One update. A parameter whose `.data` is no longer its view of the
        store raises ValueError, and a non-finite gradient norm
        FloatingPointError, before the step count, the moments or any
        parameter change."""
        store, n = params.store, params.n_params
        base = store.__array_interface__["data"][0]
        slots = []   # (name, its first and past-last element, gradient or 0.0, flattened)
        for name, p, off in _offsets(params):
            if (p.data.__array_interface__["data"][0] != base + 8 * off
                    or not p.data.flags.c_contiguous):
                raise ValueError("parameter %s is no longer a view of the store" % name)
            g = 0.0 if p.grad is None else p.grad
            slots.append((name, off, off + p.data.size, g,
                          g if p.grad is None else g.reshape(-1)))
        pool = _executor() if _two_threads(params) else None
        cut = n // 2 if pool is not None else n
        # a tensor's norm term goes whole to the thread that holds its first element
        halves = _split(pool, lambda _, lo, hi: [float(np.sum(g * g)) for _, off, _, g, _
                                                 in slots if lo <= off < hi], cut, n)
        sq_norm = 0.0
        for (name, *_), sq in zip(slots, halves[0] + halves[1]):
            sq_norm += sq
            if not math.isfinite(sq_norm):
                raise FloatingPointError("gradient norm turns non-finite at %s" % name)
        norm = math.sqrt(sq_norm)
        scale = grad_clip / norm if grad_clip is not None and norm > grad_clip else None
        self.t += 1
        c1 = 1.0 - _BETA1 ** self.t
        c2 = 1.0 - _BETA2 ** self.t
        b1, b2, eps = _BETA1, _BETA2, _EPS
        m, v = self.moments[:n], self.moments[n:]
        # the update keeps every bit of a tensor with no gradient and zero
        # moments: m and v stay 0, and p - lr * (0 / eps) is p
        live = [(off, end, g) for _, off, end, _, g in slots
                if not isinstance(g, float) or m[off:end].any() or v[off:end].any()]
        width = min(_BLOCK, n)
        if self._scratch.shape != (2, 2, width):
            self._scratch = np.empty((2, 2, width))

        def update(half, lo, hi):
            scratch = self._scratch[half]
            for off, end, g in live:
                for i in range(max(lo, off), min(hi, end), _BLOCK):
                    j = min(i + _BLOCK, hi, end)
                    p, mb, vb = store[i:j], m[i:j], v[i:j]
                    a, b = scratch[:, :j - i]
                    gb = g if isinstance(g, float) else g[i - off:j - off]
                    if scale is not None:
                        gb = np.multiply(gb, scale, out=a)
                    # m = b1 * m + (1 - b1) * g
                    np.multiply(mb, b1, out=mb)
                    np.add(mb, np.multiply(gb, 1.0 - b1, out=b), out=mb)
                    # v = b2 * v + (1 - b2) * g * g
                    np.multiply(vb, b2, out=vb)
                    np.multiply(gb, 1.0 - b2, out=b)
                    np.add(vb, np.multiply(b, gb, out=b), out=vb)
                    # p = p - lr * ((m / c1) / (sqrt(v / c2) + eps))
                    np.add(np.sqrt(np.divide(vb, c2, out=a), out=a), eps, out=a)
                    np.divide(np.divide(mb, c1, out=b), a, out=b)
                    np.subtract(p, np.multiply(b, lr, out=b), out=p)

        _split(pool, update, cut, n)


def _offsets(params: ParameterSet):
    """(name, tensor, offset of its first element in the store), in store order."""
    off = 0
    for name, p in params.items():
        yield name, p, off
        off += p.data.size


def _split(pool, fn, cut: int, n: int) -> tuple:
    """(fn(0, 0, cut), fn(1, cut, n)). Given a pool, the worker thread runs the
    second while this thread runs the first."""
    with _Worker(pool) as worker:
        second = worker.start(fn, 1, cut, n)
        return fn(0, 0, cut), second()


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
    opt = Adam(params)
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
    with _Worker(pool) as worker:
        bundle = training_forward(state.params, cfg, batch, state.variant, state.sched,
                                  t_arr, eps, worker.start)
        gb = bundle.guidance
        # the worker may still be encoding the augmented view, which neither
        # of these terms reads
        l_diff = None if warmup else diffusion_loss(bundle.x0, bundle.x0_hat)
        l_rec = rec_loss(bundle.x0_hat, gb.gx_hat, gb.gy_hat,
                         batch.tx, batch.wx, batch.ty, batch.wy,
                         state.params["emb_x"], state.params["emb_y"])
        l_cl = None
        if bundle.h_aug is not None and B >= 2:
            l_cl = tri_view_cl_loss(bundle.x0_hat, gb.gd_hat, bundle.h_aug)
    total, breakdown = total_loss(l_diff, l_rec, l_cl)
    state.params.zero_grads()
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
    for name, every in (("eval_every", eval_every), ("checkpoint_every", checkpoint_every)):
        if every < 0:
            raise ValueError("%s must be >= 0 (0 turns it off), got %d" % (name, every))
    if eval_negatives is not None:
        evaluation.check_negatives(eval_negatives)
    validate = eval_every > 0 and bool(split.validation)
    if validate:
        check_seq_lens(cfg, [s for s, _ in split.validation])
        if eval_steps is not None:
            strided_steps(cfg.T, eval_steps)
        if eval_negatives is None:
            eval_negatives = evaluation.auto_negatives(split)
    vx, vy = split.vocab_x, split.vocab_y
    steps_per_epoch = count_steps_per_epoch(examples, tcfg.batch_size)
    total_steps = max(1, tcfg.epochs * steps_per_epoch)
    warm_epochs = effective_warmup_epochs(state)
    warmup_steps = warm_epochs * steps_per_epoch
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

CHECKPOINT_FORMAT_VERSION = 3
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
    _write_blob(os.path.join(tmp, "params.bin"), state.params.store)
    _write_blob(os.path.join(tmp, "optimizer.bin"), state.opt.moments)
    if state.best_params is not None:
        _write_blob(os.path.join(tmp, "best.bin"), state.best_params)
    if os.path.exists(ckpt_dir):
        os.rename(ckpt_dir, old)
    os.rename(tmp, ckpt_dir)
    shutil.rmtree(old, ignore_errors=True)


def _write_blob(path: str, vec: np.ndarray) -> None:
    """Write vec as little-endian float64."""
    with open(path, "wb") as fh:
        np.asarray(vec, dtype="<f8").tofile(fh)


def _read_blob(ckpt_dir: str, name: str, n_values: int) -> np.ndarray:
    path = os.path.join(ckpt_dir, name)
    vec = np.fromfile(path, dtype="<f8")
    if vec.size != n_values:
        raise ValueError("%s holds %d values, expected %d" % (path, vec.size, n_values))
    return vec.astype(np.float64, copy=False)


def load_checkpoint(ckpt_dir: str) -> TrainState:
    """Restore what save_checkpoint wrote.

    A manifest that is not JSON, lacks a field, holds a progress field of the
    wrong type or range, or describes a run training could not use raises
    ValueError naming `<ckpt_dir>/manifest.json`; a blob of the wrong length
    raises ValueError naming the blob.
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
        # a field of the wrong type would load and fail, or train wrongly, later
        for key, low in (("adam_t", 0), ("epoch", 0), ("global_step", 0), ("best_epoch", -1)):
            if type(manifest[key]) is not int or manifest[key] < low:
                raise ValueError("%s must be an integer >= %d, got %r" % (key, low, manifest[key]))
        if type(progress["history"]) is not list:
            raise ValueError("history must be a list, got %r" % (progress["history"],))
        if best_metric is not None and not (type(best_metric) in (int, float)
                                            and math.isfinite(best_metric)):
            raise ValueError("best_metric must be null or finite, got %r" % (best_metric,))
        if type(has_best) is not bool:
            raise ValueError("has_best must be true or false, got %r" % (has_best,))
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError("%s: malformed manifest (%s: %s)"
                         % (path, type(e).__name__, e)) from None
    n_params = sum(math.prod(s) for _, s in specs)
    # the blobs themselves become the parameter store and the moments
    params = ParameterSet(_read_blob(ckpt_dir, "params.bin", n_params), specs)
    opt = Adam(params, moments=_read_blob(ckpt_dir, "optimizer.bin", 2 * n_params))
    opt.t = adam_t
    state = TrainState(params=params, model_cfg=model_cfg, train_cfg=train_cfg,
                       sched=sched, variant_name=variant, opt=opt, rng=rng,
                       best_metric=float("-inf") if best_metric is None else best_metric,
                       **progress)
    if has_best:
        state.best_params = _read_blob(ckpt_dir, "best.bin", n_params)
    return state
