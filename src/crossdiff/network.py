"""Model parameters and forward passes.

Architecture: token embeddings shared between the guidance path and the
scoring rule; one transformer encoder bank per domain plus a shared bank; a
projection that re-interleaves the two domain encodings into guidance rows;
and a denoiser that encodes the noisy target token and cross-attends over the
guidance. All blocks are pre-norm residual.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .autograd import (Tensor, concat, gather_concat, gather_rows, gelu,
                       layer_norm, masked_softmax, matmul, reshape, slice_rows,
                       swapaxes, take_rows)
from .data import DOMAIN_X, DOMAIN_Y, N_RESERVED, PAD_OFFSET, UserSequence, Vocab
from .diffusion import forward_diffuse


@dataclass(frozen=True)
class ModelConfig:
    d: int = 256
    n_heads: int = 1
    enc_layers: int = 2
    dec_layers: int = 1
    max_seq_len: int = 15
    T: int = 50
    vocab_x_size: int = 0   # rows including mask/pad
    vocab_y_size: int = 0

    def validate(self) -> None:
        if self.d < 1 or self.d % self.n_heads != 0:
            raise ValueError("d=%d must be a positive multiple of n_heads=%d"
                             % (self.d, self.n_heads))
        for name in ("enc_layers", "dec_layers", "max_seq_len", "T"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.vocab_x_size <= N_RESERVED or self.vocab_y_size <= N_RESERVED:
            raise ValueError("vocab sizes must exceed the %d reserved rows" % N_RESERVED)


@dataclass(frozen=True)
class VariantConfig:
    """Feature switches for the ablation grid."""
    use_de: bool = True        # per-domain encoders + interleaving projection
    use_guidance: bool = True  # feed the fused rows to the denoiser
    use_tricl: bool = True     # three-view contrastive objective

    def validate(self) -> None:
        if self.use_guidance and not self.use_de:
            raise ValueError("guidance requires the per-domain encoders")
        if self.use_tricl and not self.use_de:
            raise ValueError("the contrastive objective requires the per-domain encoders")


VARIANTS = {
    "diff": VariantConfig(use_de=False, use_guidance=False, use_tricl=False),
    "diff_de": VariantConfig(use_de=True, use_guidance=False, use_tricl=False),
    "diff_de_g": VariantConfig(use_de=True, use_guidance=True, use_tricl=False),
    "diff_de_tricl": VariantConfig(use_de=True, use_guidance=False, use_tricl=True),
    "full": VariantConfig(use_de=True, use_guidance=True, use_tricl=True),
}


# ---------------------------------------------------------------------------
# parameters

def _layer_specs(prefix: str, d: int, query_norm: bool):
    ln_first = "lnq" if query_norm else "ln1"
    specs = []
    for nm in ("q", "k", "v", "o"):
        specs.append(("%s.attn.w%s" % (prefix, nm), (d, d), "linear"))
        specs.append(("%s.attn.b%s" % (prefix, nm), (d,), "zero"))
    for ln in (ln_first, "ln2"):
        specs.append(("%s.%s.g" % (prefix, ln), (d,), "one"))
        specs.append(("%s.%s.b" % (prefix, ln), (d,), "zero"))
    specs.append(("%s.mlp.w1" % prefix, (d, 4 * d), "linear"))
    specs.append(("%s.mlp.b1" % prefix, (4 * d,), "zero"))
    specs.append(("%s.mlp.w2" % prefix, (4 * d, d), "linear"))
    specs.append(("%s.mlp.b2" % prefix, (d,), "zero"))
    return specs


def param_specs(cfg: ModelConfig):
    """Ordered (name, shape, init kind) for every parameter."""
    d = cfg.d
    specs = [("emb_x", (cfg.vocab_x_size, d), "embed"),
             ("emb_y", (cfg.vocab_y_size, d), "embed"),
             ("pos", (cfg.max_seq_len, d), "embed"),
             ("step_emb", (cfg.T, d), "embed")]
    for bank in ("enc_x", "enc_y", "enc_c"):
        for i in range(cfg.enc_layers):
            specs.extend(_layer_specs("%s.%d" % (bank, i), d, query_norm=False))
    for i in range(cfg.dec_layers):
        specs.extend(_layer_specs("dec.%d" % i, d, query_norm=True))
    specs.append(("fuse.w", (d, d), "identity"))
    return specs


class ParameterSet:
    """Named parameter tensors in a fixed order."""

    def __init__(self, cfg: ModelConfig, tensors: "OrderedDict[str, Tensor]"):
        self.cfg = cfg
        self._tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())

    @property
    def n_params(self) -> int:
        return sum(t.data.size for t in self._tensors.values())

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def to_vector(self) -> np.ndarray:
        return np.concatenate([t.data.ravel() for t in self._tensors.values()])

    def from_vector(self, vec: np.ndarray) -> None:
        if vec.size != self.n_params:
            raise ValueError("vector length %d does not match parameter count %d"
                             % (vec.size, self.n_params))
        off = 0
        for t in self._tensors.values():
            n = t.data.size
            t.data = vec[off:off + n].reshape(t.data.shape).copy()
            off += n


def init_parameters(cfg: ModelConfig, rng_seed: int = 0) -> ParameterSet:
    """Deterministic initialization.

    Embedding-style tables are small-scale normal draws with the padding rows
    zeroed; projection matrices are scaled-uniform with fan-based bounds; norms
    start at identity; the fusion projection starts as the identity map.
    """
    cfg.validate()
    rng = np.random.default_rng(rng_seed)
    tensors: OrderedDict[str, Tensor] = OrderedDict()
    for name, shape, kind in param_specs(cfg):
        if kind == "embed":
            data = rng.normal(0.0, 0.02, size=shape)
        elif kind == "linear":
            fan_in, fan_out = shape[0], shape[1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-bound, bound, size=shape)
        elif kind == "zero":
            data = np.zeros(shape)
        elif kind == "one":
            data = np.ones(shape)
        elif kind == "identity":
            data = np.eye(shape[0])
        else:
            raise AssertionError(kind)
        tensors[name] = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
    tensors["emb_x"].data[PAD_OFFSET] = 0.0
    tensors["emb_y"].data[PAD_OFFSET] = 0.0
    return ParameterSet(cfg, tensors)


def expected_param_count(cfg: ModelConfig) -> int:
    d = cfg.d
    per_layer = 12 * d * d + 13 * d
    emb = (cfg.vocab_x_size + cfg.vocab_y_size + cfg.max_seq_len + cfg.T) * d
    return emb + (3 * cfg.enc_layers + cfg.dec_layers) * per_layer + d * d


# ---------------------------------------------------------------------------
# batches

@dataclass(frozen=True)
class TrainingExample:
    user_index: int
    items: tuple            # merged prefix, ((global index, domain), ...)
    next_item: tuple        # (global index, domain), the diffusion target
    other_item: tuple | None  # first later item from the other domain, if any


def build_training_examples(split) -> list[TrainingExample]:
    """Every proper prefix of every training sequence becomes one example."""
    out = []
    for seq in split.train:
        items = list(seq.items)
        for cut in range(1, len(items)):
            nxt = items[cut]
            other = None
            for g, d in items[cut + 1:]:
                if d != nxt[1]:
                    other = (g, d)
                    break
            out.append(TrainingExample(seq.user_index, tuple(items[:cut]),
                                       nxt, other))
    return out


@dataclass
class SequenceBatch:
    user_index: np.ndarray       # (B,)
    merged_idx: np.ndarray       # (B, Lc) global indices, right-padded
    merged_valid: np.ndarray     # (B, Lc) 0/1
    merged_last: np.ndarray      # (B,) index of last real position
    x_idx: np.ndarray            # (B, Lx)
    x_valid: np.ndarray
    x_last: np.ndarray
    y_idx: np.ndarray
    y_valid: np.ndarray
    y_last: np.ndarray
    inter_map: np.ndarray        # (B, Lc) rows into [x-rows; y-rows] concat
    x0_idx: np.ndarray | None = None    # (B,) diffusion target indices
    tx: np.ndarray | None = None        # (B,) domain-x target row (real-item local)
    wx: np.ndarray | None = None        # (B,) target presence 0/1
    ty: np.ndarray | None = None
    wy: np.ndarray | None = None
    aug_idx: np.ndarray | None = None
    aug_valid: np.ndarray | None = None
    aug_last: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.merged_idx.shape[0])


def _pad_rows(rows: list[list[int]], pad_value: int, min_len: int = 1):
    L = max(min_len, max((len(r) for r in rows), default=0))
    idx = np.full((len(rows), L), pad_value, dtype=np.int64)
    valid = np.zeros((len(rows), L))
    last = np.zeros(len(rows), dtype=np.int64)
    for b, r in enumerate(rows):
        if r:
            idx[b, :len(r)] = r
            valid[b, :len(r)] = 1.0
            last[b] = len(r) - 1
    return idx, valid, last


def _assemble(seqs: list, vocab_x: Vocab, vocab_y: Vocab):
    merged, xs, ys = [], [], []
    for items in seqs:
        merged.append([g for g, _ in items])
        xs.append([g for g, d in items if d == DOMAIN_X])
        ys.append([g for g, d in items if d == DOMAIN_Y])
    m_idx, m_valid, m_last = _pad_rows(merged, vocab_x.pad_index)
    x_idx, x_valid, x_last = _pad_rows(xs, vocab_x.pad_index)
    y_idx, y_valid, y_last = _pad_rows(ys, vocab_y.pad_index)
    Lx = x_idx.shape[1]
    inter = np.zeros(m_idx.shape, dtype=np.int64)
    for b, items in enumerate(seqs):
        rx = ry = 0
        for i, (_, d) in enumerate(items):
            if d == DOMAIN_X:
                inter[b, i] = rx
                rx += 1
            else:
                inter[b, i] = Lx + ry
                ry += 1
    return dict(merged_idx=m_idx, merged_valid=m_valid, merged_last=m_last,
                x_idx=x_idx, x_valid=x_valid, x_last=x_last,
                y_idx=y_idx, y_valid=y_valid, y_last=y_last, inter_map=inter)


def _target_row(g: int, domain: str, vocab_x: Vocab, vocab_y: Vocab) -> int:
    v = vocab_x if domain == DOMAIN_X else vocab_y
    row = g - v.base - N_RESERVED
    if not (0 <= row < v.n_items):
        raise ValueError("target index %d is not a real item of domain %s" % (g, domain))
    return row


def make_train_batch(examples: list[TrainingExample], vocab_x: Vocab, vocab_y: Vocab,
                     augmented: list | None = None) -> SequenceBatch:
    if not examples:
        raise ValueError("empty batch")
    core = _assemble([ex.items for ex in examples], vocab_x, vocab_y)
    B = len(examples)
    x0_idx = np.zeros(B, dtype=np.int64)
    tx = np.zeros(B, dtype=np.int64)
    wx = np.zeros(B)
    ty = np.zeros(B, dtype=np.int64)
    wy = np.zeros(B)
    for b, ex in enumerate(examples):
        g, dom = ex.next_item
        x0_idx[b] = g
        targets = [(g, dom)] + ([ex.other_item] if ex.other_item else [])
        for tg, td in targets:
            row = _target_row(tg, td, vocab_x, vocab_y)
            if td == DOMAIN_X:
                tx[b], wx[b] = row, 1.0
            else:
                ty[b], wy[b] = row, 1.0
    batch = SequenceBatch(user_index=np.array([ex.user_index for ex in examples]),
                          x0_idx=x0_idx, tx=tx, wx=wx, ty=ty, wy=wy, **core)
    if augmented is not None:
        rows = [[g for g, _ in items] for items in augmented]
        batch.aug_idx, batch.aug_valid, batch.aug_last = _pad_rows(rows, vocab_x.pad_index)
    return batch


def make_eval_batch(sequences: list[UserSequence], vocab_x: Vocab, vocab_y: Vocab) -> SequenceBatch:
    if not sequences:
        raise ValueError("empty batch")
    core = _assemble([list(s.items) for s in sequences], vocab_x, vocab_y)
    return SequenceBatch(user_index=np.array([s.user_index for s in sequences]), **core)


# ---------------------------------------------------------------------------
# forward passes

def _proj(params: ParameterSet, prefix: str, which: str, x: Tensor) -> Tensor:
    return x @ params["%s.attn.w%s" % (prefix, which)] + params["%s.attn.b%s" % (prefix, which)]


def _split_heads(t: Tensor, B: int, L: int, H: int, dh: int) -> Tensor:
    return swapaxes(reshape(t, (B, L, H, dh)), 1, 2)


def _attention(params: ParameterSet, prefix: str, q_in: Tensor, kv: Tensor,
               mask: np.ndarray, cfg: ModelConfig) -> Tensor:
    B, Lq = q_in.data.shape[0], q_in.data.shape[1]
    Lk = kv.data.shape[1]
    H, dh = cfg.n_heads, cfg.d // cfg.n_heads
    q = _split_heads(_proj(params, prefix, "q", q_in), B, Lq, H, dh)
    k = _split_heads(_proj(params, prefix, "k", kv), B, Lk, H, dh)
    v = _split_heads(_proj(params, prefix, "v", kv), B, Lk, H, dh)
    scores = matmul(q, swapaxes(k, -1, -2)) * (1.0 / math.sqrt(dh))
    probs = masked_softmax(scores, mask)
    ctx = reshape(swapaxes(matmul(probs, v), 1, 2), (B, Lq, cfg.d))
    return _proj(params, prefix, "o", ctx)


def _mlp(params: ParameterSet, prefix: str, x: Tensor) -> Tensor:
    h = gelu(x @ params[prefix + ".mlp.w1"] + params[prefix + ".mlp.b1"])
    return h @ params[prefix + ".mlp.w2"] + params[prefix + ".mlp.b2"]


def _block(params: ParameterSet, prefix: str, h: Tensor, mask: np.ndarray,
           cfg: ModelConfig, guide: Tensor | None = None) -> Tensor:
    """Pre-norm residual block: self-attention (norm ln1), or cross-attention
    over `guide` (query norm lnq), then the MLP (norm ln2)."""
    ln = "lnq" if guide is not None else "ln1"
    a = layer_norm(h, params["%s.%s.g" % (prefix, ln)], params["%s.%s.b" % (prefix, ln)])
    h = h + _attention(params, prefix, a, a if guide is None else guide, mask, cfg)
    m = layer_norm(h, params[prefix + ".ln2.g"], params[prefix + ".ln2.b"])
    return h + _mlp(params, prefix, m)


def causal_mask(valid: np.ndarray) -> np.ndarray:
    """(B,1,L,L) mask: key j visible from query i iff j <= i and j is real."""
    L = valid.shape[1]
    tri = np.tril(np.ones((L, L)))
    return tri[None, None, :, :] * valid[:, None, None, :]


def embed_sequence(params: ParameterSet, cfg: ModelConfig, idx: np.ndarray) -> Tensor:
    """Token rows from the concatenated domain tables plus position rows."""
    idx = np.asarray(idx)
    L = idx.shape[-1]
    if L > cfg.max_seq_len:
        raise ValueError("sequence length %d exceeds max_seq_len %d" % (L, cfg.max_seq_len))
    tok = gather_concat(params["emb_x"], params["emb_y"], idx)
    pos = reshape(slice_rows(params["pos"], 0, L), (1, L, cfg.d))
    return tok + pos


def encode_domain(params: ParameterSet, cfg: ModelConfig, bank: str, h: Tensor,
                  valid: np.ndarray) -> Tensor:
    """Run one encoder bank (enc_x / enc_y / enc_c) causally over embedded tokens."""
    mask = causal_mask(valid)
    for i in range(cfg.enc_layers):
        h = _block(params, "%s.%d" % (bank, i), h, mask, cfg)
    return h


def fuse_guidance(params: ParameterSet, gx_rows: Tensor, gy_rows: Tensor,
                  inter_map: np.ndarray) -> Tensor:
    """Re-interleave domain encodings to original order, then project."""
    cat = concat([gx_rows, gy_rows], axis=1)
    rows = take_rows(cat, inter_map)
    return matmul(rows, params["fuse.w"])


def pool_last(h: Tensor, last: np.ndarray) -> Tensor:
    """Row at the last real position of each sequence."""
    B, d = h.data.shape[0], h.data.shape[2]
    out = take_rows(h, np.asarray(last).reshape(B, 1))
    return reshape(out, (B, d))


def denoise(params: ParameterSet, cfg: ModelConfig, x_t: Tensor, t: np.ndarray,
            guide: Tensor, guide_valid: np.ndarray) -> Tensor:
    """Estimate the clean target vector from its noisy version under guidance."""
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > cfg.T):
        raise ValueError("timesteps must lie in [1, %d]" % cfg.T)
    if np.any(guide_valid.sum(axis=-1) < 1):
        raise ValueError("denoise requires at least one guidance row per example")
    B = x_t.data.shape[0]
    tok = x_t + gather_rows(params["step_emb"], t - 1)
    tok = reshape(tok, (B, 1, cfg.d))
    self_mask = np.ones((B, 1, 1, 1))
    for i in range(cfg.enc_layers):
        tok = _block(params, "enc_c.%d" % i, tok, self_mask, cfg)
    cross = guide_valid[:, None, None, :]
    for i in range(cfg.dec_layers):
        tok = _block(params, "dec.%d" % i, tok, cross, cfg, guide)
    return reshape(tok, (B, cfg.d))


def encode_aug(params: ParameterSet, cfg: ModelConfig, idx: np.ndarray,
               valid: np.ndarray, last: np.ndarray) -> Tensor:
    """Augmented-view representation from the shared encoder bank."""
    h = embed_sequence(params, cfg, idx)
    h = encode_domain(params, cfg, "enc_c", h, valid)
    return pool_last(h, last)


# ---------------------------------------------------------------------------
# model-level forward

@dataclass
class GuidanceBundle:
    guide: Tensor
    guide_valid: np.ndarray
    gx_hat: Tensor | None = None
    gy_hat: Tensor | None = None
    gd_hat: Tensor | None = None


def guidance_forward(params: ParameterSet, cfg: ModelConfig, batch: SequenceBatch,
                     variant: VariantConfig) -> GuidanceBundle:
    """Everything upstream of the denoiser for one batch of sequences."""
    variant.validate()
    gx_hat = gy_hat = gd_hat = None
    fused = None
    if variant.use_de:
        hx = embed_sequence(params, cfg, batch.x_idx)
        gx_rows = encode_domain(params, cfg, "enc_x", hx, batch.x_valid)
        hy = embed_sequence(params, cfg, batch.y_idx)
        gy_rows = encode_domain(params, cfg, "enc_y", hy, batch.y_valid)
        fused = fuse_guidance(params, gx_rows, gy_rows, batch.inter_map)
        gx_hat = pool_last(gx_rows, batch.x_last)
        gy_hat = pool_last(gy_rows, batch.y_last)
        gd_hat = pool_last(fused, batch.merged_last)
    if variant.use_guidance:
        guide, guide_valid = fused, batch.merged_valid
    else:
        hm = embed_sequence(params, cfg, batch.merged_idx)
        shared = encode_domain(params, cfg, "enc_c", hm, batch.merged_valid)
        if variant.use_de:
            B = batch.size
            guide = reshape(pool_last(shared, batch.merged_last), (B, 1, cfg.d))
            guide_valid = np.ones((B, 1))
        else:
            guide, guide_valid = shared, batch.merged_valid
    return GuidanceBundle(guide=guide, guide_valid=guide_valid,
                          gx_hat=gx_hat, gy_hat=gy_hat, gd_hat=gd_hat)


@dataclass
class ForwardBundle:
    guidance: GuidanceBundle
    x0: Tensor | None = None
    x0_hat: Tensor | None = None
    h_aug: Tensor | None = None


def training_forward(params: ParameterSet, cfg: ModelConfig, batch: SequenceBatch,
                     variant: VariantConfig, sched, t: np.ndarray | None,
                     eps: np.ndarray | None, warmup: bool = False) -> ForwardBundle:
    """Produce every representation the objectives need for one batch.

    During warm-up the diffusion and contrastive paths are skipped entirely,
    so only the guidance encoders receive gradient.
    """
    gb = guidance_forward(params, cfg, batch, variant)
    bundle = ForwardBundle(guidance=gb)
    if warmup:
        return bundle
    if t is None or eps is None:
        raise ValueError("main-stage forward requires sampled timesteps and noise")
    x0 = gather_concat(params["emb_x"], params["emb_y"], batch.x0_idx)
    x_t = forward_diffuse(x0, t, eps, sched)
    bundle.x0 = x0
    bundle.x0_hat = denoise(params, cfg, x_t, t, gb.guide, gb.guide_valid)
    if variant.use_tricl and batch.aug_idx is not None:
        bundle.h_aug = encode_aug(params, cfg, batch.aug_idx, batch.aug_valid,
                                  batch.aug_last)
    return bundle
