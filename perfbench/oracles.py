"""Correctness oracles for the benchmark, built from crossdiff's public functions.

Nothing here is timed. The probe batch fixes every random input of one
training forward pass (prefix length, augmentations, timesteps and noise) so
that its loss is a deterministic function of the parameters; the gradient
check and the before/after objective comparison both run on it.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from crossdiff import data, network, objectives, trainer

PROBE_SIZE = 16
PROBE_PREFIX_LEN = 5      # every user that survives the default filter has one
PROBE_AUG_RATE = 0.2
GRAD_CHECK_STEP = 1e-4    # at 1e-5 rounding in a loss of ~600 (d=256) reached 8.5e-7
GRAD_CHECK_TOL = 1e-5     # relative; correct gradients give 1e-9 to 1.1e-6 with this step
NDCG_MIN_Z = 5.0          # standard errors a trained model must beat random ranking by


@dataclass
class Probe:
    batch: network.SequenceBatch
    t: np.ndarray
    eps: np.ndarray


def probe_batch(split: data.DatasetSplit, cfg: network.ModelConfig) -> Probe:
    """The first PROBE_SIZE training prefixes of length PROBE_PREFIX_LEN, fixed draws."""
    examples = [ex for ex in network.build_training_examples(split)
                if len(ex.items) == PROBE_PREFIX_LEN][:PROBE_SIZE]
    if len(examples) < 2:
        raise ValueError("split has fewer than two prefixes of length %d"
                         % PROBE_PREFIX_LEN)
    ops = data.AUGMENTATION_OPS
    augmented = [data.augment(data.UserSequence(ex.user_index, list(ex.items)),
                              data.AugmentationSpec(ops[i % len(ops)], PROBE_AUG_RATE,
                                                    1000 + i),
                              split.vocab_x, split.vocab_y,
                              max_seq_len=cfg.max_seq_len).items
                 for i, ex in enumerate(examples)]
    batch = network.make_train_batch(examples, split.vocab_x, split.vocab_y, augmented)
    B = batch.size
    t = (np.arange(B, dtype=np.int64) * 7) % cfg.T + 1
    eps = np.random.default_rng(12345).standard_normal((B, cfg.d))
    return Probe(batch=batch, t=t, eps=eps)


def probe_loss(params: network.ParameterSet, cfg: network.ModelConfig, sched,
               probe: Probe):
    """Full-variant objective on the probe batch, as trainer.train_step sums it."""
    b = probe.batch
    bundle = network.training_forward(params, cfg, b, network.VARIANTS["full"], sched,
                                      probe.t, probe.eps)
    gb = bundle.guidance
    l_diff = objectives.diffusion_loss(bundle.x0, bundle.x0_hat)
    l_rec = objectives.rec_loss(bundle.x0_hat, gb.gx_hat, gb.gy_hat, b.tx, b.wx,
                                b.ty, b.wy, params["emb_x"], params["emb_y"])
    l_cl = objectives.tri_view_cl_loss(bundle.x0_hat, gb.gd_hat, bundle.h_aug)
    return objectives.total_loss(l_diff, l_rec, l_cl)[0]


def analytic_grads(params: network.ParameterSet, loss_fn) -> tuple[float, dict]:
    """Loss value and per-parameter gradient of loss_fn(params), zeros where none flows."""
    params.zero_grads()
    loss = loss_fn(params)
    loss.backward()
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for name, p in params.items()}
    params.zero_grads()
    return float(loss.data), grads


def unit_direction(params: network.ParameterSet, seed: int = 2024) -> np.ndarray:
    u = np.random.default_rng(seed).standard_normal(params.n_params)
    return u / np.linalg.norm(u)


def fd_directional(params: network.ParameterSet, loss_fn, u: np.ndarray,
                   h: float = GRAD_CHECK_STEP) -> float:
    """Central difference of loss_fn along u; leaves the parameters bit-identical."""
    theta = params.to_vector()
    try:
        params.from_vector(theta + h * u)
        up = float(loss_fn(params).data)
        params.from_vector(theta - h * u)
        dn = float(loss_fn(params).data)
    finally:
        params.from_vector(theta)
    return (up - dn) / (2.0 * h)


def directional_error(params: network.ParameterSet, grads: dict, u: np.ndarray,
                      fd: float) -> float:
    """Relative gap between grads . u and the finite difference along u."""
    g = np.concatenate([grads[name].ravel() for name in params.names()])
    a = float(g @ u)
    return abs(a - fd) / max(abs(a), abs(fd), 1e-300)


def random_ndcg(n_negatives: int, k: int = 10) -> tuple[float, float]:
    """Mean and per-user standard deviation of NDCG@k under random ranking.

    With n negatives and no ties the positive's rank is uniform on 1..n+1,
    so NDCG@k has mean sum_{r<=k} 1/log2(r+1) / (n+1).
    """
    n1 = n_negatives + 1
    gains = [1.0 / math.log2(r + 1.0) for r in range(1, min(k, n1) + 1)]
    mean = sum(gains) / n1
    second = sum(g * g for g in gains) / n1
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def ndcg_margin_z(ndcg: float, n_negatives: int, n_users: int, k: int = 10) -> float:
    """Standard errors by which an observed NDCG@k exceeds random ranking."""
    mean, sd = random_ndcg(n_negatives, k)
    return (ndcg - mean) / (sd / math.sqrt(n_users))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def checkpoint_roundtrip(state: trainer.TrainState, ckpt_dir: str) -> tuple[bool, int]:
    """Save then load; True when parameters, moments and counters come back bit-identical.

    Returns (identical, bytes on disk). The directory is removed afterwards.
    """
    try:
        trainer.save_checkpoint(ckpt_dir, state)
        n_bytes = sum(os.path.getsize(os.path.join(ckpt_dir, f))
                      for f in os.listdir(ckpt_dir))
        loaded = trainer.load_checkpoint(ckpt_dir)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    names = state.params.names()
    same = (names == loaded.params.names()
            and all(_same_bits(state.params[n].data, loaded.params[n].data)
                    and _same_bits(state.opt.m[n], loaded.opt.m[n])
                    and _same_bits(state.opt.v[n], loaded.opt.v[n]) for n in names)
            and state.opt.t == loaded.opt.t
            and state.global_step == loaded.global_step
            and state.rng.bit_generator.state == loaded.rng.bit_generator.state)
    return same, n_bytes
