"""Optimization loop.

Adam with a linear warm-up into cosine annealing, length-bucketed batches of
prefix examples, a warm-up stage that trains only the guidance encoders, and
checkpoints that restore training bit-exactly (parameters, optimizer moments,
and generator state).
"""

from __future__ import annotations

import json
import math
import os
import shutil
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from .autograd import Tensor
from .data import (AUGMENTATION_OPS, AugmentationSpec, DatasetSplit,
                   UserSequence, augment)
from .diffusion import DiffusionSchedule, build_schedule
from .network import (VARIANTS, ModelConfig, ParameterSet, SequenceBatch,
                      build_training_examples, init_parameters,
                      make_train_batch, param_specs, training_forward)
from .objectives import (LossBreakdown, diffusion_loss, rec_loss, total_loss,
                         tri_view_cl_loss)


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


class Adam:
    """Standard Adam with bias correction; moments decay even at zero gradient."""

    def __init__(self, params: ParameterSet, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    @classmethod
    def restored(cls, t: int, m: dict, v: dict, beta1: float, beta2: float,
                 eps: float) -> "Adam":
        """An optimizer resuming from saved step count and moments."""
        opt = cls.__new__(cls)
        opt.beta1, opt.beta2, opt.eps = beta1, beta2, eps
        opt.t, opt.m, opt.v = t, m, v
        return opt

    def step(self, params: ParameterSet, lr: float, grad_clip: float | None = None) -> None:
        """One update. A non-finite gradient norm raises FloatingPointError
        before the step count, the moments or any parameter change."""
        grads = {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for name, p in params.items()}
        sq_norm = 0.0
        for name, g in grads.items():
            sq_norm += float(np.sum(g * g))
            if not math.isfinite(sq_norm):
                raise FloatingPointError("gradient norm turns non-finite at %s" % name)
        if grad_clip is not None:
            norm = math.sqrt(sq_norm)
            if norm > grad_clip:
                scale = grad_clip / norm
                grads = {name: g * scale for name, g in grads.items()}
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            update = (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + self.eps)
            p.data = p.data - lr * update


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


def init_state(model_cfg: ModelConfig, train_cfg: TrainConfig,
               sched: DiffusionSchedule, variant: str = "full") -> TrainState:
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r (known: %s)" % (variant, sorted(VARIANTS)))
    if model_cfg.T != sched.T:
        raise ValueError("model T=%d disagrees with schedule T=%d" % (model_cfg.T, sched.T))
    train_cfg.validate()
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
    variant = state.variant
    B = batch.size
    if warmup:
        t_arr = eps = None
    else:
        t_arr = state.rng.integers(1, cfg.T + 1, size=B)
        eps = state.rng.standard_normal((B, cfg.d))
    bundle = training_forward(state.params, cfg, batch, variant, state.sched,
                              t_arr, eps, warmup=warmup)
    gb = bundle.guidance
    l_diff = None
    if bundle.x0_hat is not None:
        l_diff = diffusion_loss(bundle.x0, bundle.x0_hat)
    l_rec = None
    if bundle.x0_hat is not None or gb.gx_hat is not None:
        l_rec = rec_loss(bundle.x0_hat, gb.gx_hat, gb.gy_hat,
                         batch.tx, batch.wx, batch.ty, batch.wy,
                         state.params["emb_x"], state.params["emb_y"])
    l_cl = None
    if bundle.h_aug is not None and B >= 2:
        l_cl = tri_view_cl_loss(bundle.x0_hat, gb.gd_hat, bundle.h_aug)
    total, breakdown = total_loss(l_diff, l_rec, l_cl)
    state.params.zero_grads()
    total.backward()
    state.opt.step(state.params, lr, state.train_cfg.grad_clip)
    state.global_step += 1
    return breakdown


def _bucketed_batches(examples, batch_size: int, rng: np.random.Generator):
    """Batches of equal-length prefixes, shuffled within and across buckets."""
    buckets: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        buckets.setdefault(len(ex.items), []).append(i)
    batches = []
    for length in sorted(buckets):
        idxs = np.asarray(buckets[length])
        idxs = idxs[rng.permutation(len(idxs))]
        for lo in range(0, len(idxs), batch_size):
            batches.append(idxs[lo:lo + batch_size])
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def count_steps_per_epoch(examples, batch_size: int) -> int:
    buckets: dict[int, int] = {}
    for ex in examples:
        buckets[len(ex.items)] = buckets.get(len(ex.items), 0) + 1
    return sum(math.ceil(n / batch_size) for n in buckets.values())


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

    for epoch in range(state.epoch, end_epoch):
        warmup = epoch < warm_epochs
        sums = np.zeros(4)
        n_steps = 0
        for batch_idx in _bucketed_batches(examples, tcfg.batch_size, state.rng):
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
            sums += (bd.l_diff, bd.l_rec, bd.l_tri_cl, bd.l_total)
            n_steps += 1
        state.epoch = epoch + 1
        record = {"epoch": state.epoch, "stage": "warmup" if warmup else "main",
                  "l_diff": sums[0] / n_steps, "l_rec": sums[1] / n_steps,
                  "l_tri_cl": sums[2] / n_steps, "l_total": sums[3] / n_steps}
        if eval_every > 0 and state.epoch % eval_every == 0 and split.validation:
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
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "latest"), state)
    return state


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT_VERSION = 2


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
        "epoch": state.epoch,
        "global_step": state.global_step,
        "adam_t": state.opt.t,
        "rng_state": state.rng.bit_generator.state,
        "best_metric": (None if state.best_metric == float("-inf")
                        else state.best_metric),
        "best_epoch": state.best_epoch,
        "has_best": state.best_params is not None,
        "history": state.history,
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
    with open(os.path.join(ckpt_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError("unsupported checkpoint format %r" % manifest.get("format_version"))
    model_cfg = ModelConfig(**manifest["model_cfg"])
    train_cfg = TrainConfig(**manifest["train_cfg"])
    sched = build_schedule(**manifest["schedule"])
    model_cfg.validate()
    specs = [(name, shape) for name, shape, _ in param_specs(model_cfg)]
    if [[n, list(s)] for n, s in specs] != [[n, list(s)] for n, s in manifest["params"]]:
        raise ValueError("checkpoint parameter manifest does not match the config")
    n_params = sum(math.prod(s) for _, s in specs)
    params = ParameterSet(model_cfg, OrderedDict(
        (name, Tensor(arr, requires_grad=True))
        for name, arr in _split_blob(_read_blob(ckpt_dir, "params.bin", n_params), specs)))
    m, v = np.split(_read_blob(ckpt_dir, "optimizer.bin", 2 * n_params), 2)
    opt = Adam.restored(manifest["adam_t"], dict(_split_blob(m, specs)),
                        dict(_split_blob(v, specs)), train_cfg.beta1,
                        train_cfg.beta2, train_cfg.adam_eps)
    rng = np.random.default_rng()
    rng.bit_generator.state = manifest["rng_state"]
    best_metric = manifest["best_metric"]
    state = TrainState(params=params, model_cfg=model_cfg, train_cfg=train_cfg,
                       sched=sched, variant_name=manifest["variant"], opt=opt,
                       rng=rng, epoch=manifest["epoch"],
                       global_step=manifest["global_step"],
                       best_metric=float("-inf") if best_metric is None else best_metric,
                       best_epoch=manifest["best_epoch"],
                       history=list(manifest["history"]))
    if manifest["has_best"]:
        state.best_params = _read_blob(ckpt_dir, "best.bin", n_params)
    return state
