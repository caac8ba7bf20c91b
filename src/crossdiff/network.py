"""Model parameters and forward passes.

Architecture: token embeddings shared between the guidance path and the
scoring rule; one transformer encoder bank per domain plus a shared bank; a
projection that re-interleaves the two domain encodings into guidance rows;
and a denoiser that encodes the noisy target token and cross-attends over the
guidance.

A batch holds only the merged sequences. The per-domain encoders read each
domain's view, which `domain_views` derives from the token indices (domain
y's start at vocab_x_size): that domain's tokens in order, at the merged
width, with the map that puts their encodings back in merged order.

Every bank runs one pre-norm residual block (norms ln1, ln2) over rows
(N, d); the banks differ only in what attention reads, whose keys have no
bias: it would shift every score of a query alike. An encoder bank attends
causally over its sequence: its rows are the packed real tokens, and only
attention sees the padded (B, H, L, .) layout, with zero queries, keys and
values for padded rows. Each real row keeps the padded computation's bits,
because every row-wise product is the row-invariant GEMM of
`autograd.matmul`; when only each sequence's last row is read, the final
block finishes that row alone. The denoiser's token is one row per example:
in enc_c it attends only to itself, so its attention is v(x); in dec it
attends over the guide, whose keys and values `guide_memory` projects once
per batch for a whole reverse chain.

Within one training step, enc_x, enc_y and the augmented view's enc_c read
none of each other's outputs, so the forward starts enc_y and then the
augmented view (an `autograd._Worker`'s start) before it runs enc_x, and
takes the view only when the contrastive term needs it. Backward's walk
order follows only the graph's edges, not the order in which nodes were
built, so every bit is that of the inline forward.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .autograd import (Tensor, concat, gather_concat, gather_rows, gelu,
                       layer_norm, masked_softmax, matmul, pack_rows, reshape,
                       slice_rows, swapaxes, take_rows, unpack_rows)
from .data import DOMAIN_X, N_RESERVED, PAD_OFFSET, UserSequence, Vocab
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
        for name in ("n_heads", "enc_layers", "dec_layers", "max_seq_len", "T"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)
        if self.d < 1 or self.d % self.n_heads != 0:
            raise ValueError("d=%d must be a positive multiple of n_heads=%d"
                             % (self.d, self.n_heads))
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

def _layer_specs(prefix: str, d: int):
    specs = []
    for nm in ("q", "k", "v", "o"):
        specs.append(("%s.attn.w%s" % (prefix, nm), (d, d), "linear"))
        if nm != "k":   # the softmax ignores q·bk, the same for every key of a query
            specs.append(("%s.attn.b%s" % (prefix, nm), (d,), "zero"))
    for ln in ("ln1", "ln2"):
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
            specs.extend(_layer_specs("%s.%d" % (bank, i), d))
    for i in range(cfg.dec_layers):
        specs.extend(_layer_specs("dec.%d" % i, d))
    specs.append(("fuse.w", (d, d), "identity"))
    return specs


class ParameterSet(dict):
    """Named parameter tensors, in the order of `shapes`, stored in one
    contiguous float64 vector: each tensor's `.data` is a view of its slot of
    `store`, so whatever writes the store in place (Adam, `from_vector`)
    writes every tensor, and `store` is what a checkpoint saves. Rebinding a
    tensor's `.data` detaches it from the store; `Adam.step` refuses that."""

    def __init__(self, store: np.ndarray, shapes):
        super().__init__()
        off = 0
        for name, shape in shapes:
            n = math.prod(shape)
            self[name] = Tensor(store[off:off + n].reshape(shape), requires_grad=True)
            off += n
        if off != store.size:
            raise ValueError("store holds %d values, the shapes %d" % (store.size, off))
        self.store = store

    def names(self):
        return list(self)

    @property
    def n_params(self) -> int:
        return self.store.size

    def zero_grads(self) -> None:
        for t in self.values():
            t.grad = None

    def to_vector(self) -> np.ndarray:
        """A copy of the store, unchanged by later steps."""
        return self.store.copy()

    def from_vector(self, vec: np.ndarray) -> None:
        if vec.size != self.n_params:
            raise ValueError("vector length %d does not match parameter count %d"
                             % (vec.size, self.n_params))
        self.store[:] = vec


def init_parameters(cfg: ModelConfig, rng_seed: int = 0) -> ParameterSet:
    """Deterministic initialization, drawn straight into the store's slots.

    Embedding-style tables are small-scale normal draws with the padding rows
    zeroed; projection matrices are scaled-uniform with fan-based bounds; norms
    start at identity; the fusion projection starts as the identity map.
    """
    cfg.validate()
    rng = np.random.default_rng(rng_seed)
    specs = param_specs(cfg)
    params = ParameterSet(np.empty(sum(math.prod(shape) for _, shape, _ in specs)),
                          [(name, shape) for name, shape, _ in specs])
    for name, shape, kind in specs:
        if kind == "embed":
            data = rng.normal(0.0, 0.02, size=shape)
        elif kind == "linear":
            fan_in, fan_out = shape[0], shape[1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            data = rng.uniform(-bound, bound, size=shape)
        elif kind == "zero":
            data = 0.0
        elif kind == "one":
            data = 1.0
        elif kind == "identity":
            data = np.eye(shape[0])
        else:
            raise AssertionError(kind)
        params[name].data[...] = data
    params["emb_x"].data[PAD_OFFSET] = 0.0
    params["emb_y"].data[PAD_OFFSET] = 0.0
    return params


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
    """Merged sequences, right-padded; `domain_views` derives each domain's rows."""
    user_index: np.ndarray       # (B,)
    idx: np.ndarray              # (B, L) global indices
    valid: np.ndarray            # (B, L) 0/1
    x0_idx: np.ndarray | None = None    # (B,) diffusion target indices
    tx: np.ndarray | None = None        # (B,) domain-x target row (real-item local)
    wx: np.ndarray | None = None        # (B,) target presence 0/1
    ty: np.ndarray | None = None
    wy: np.ndarray | None = None
    aug_idx: np.ndarray | None = None
    aug_valid: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.idx.shape[0])


def _pad_rows(seqs: list, pad_value: int):
    """(idx, valid) of item sequences ((global index, domain), ...), right-padded."""
    lengths = np.array([len(items) for items in seqs])
    valid = np.arange(max(1, lengths.max())) < lengths[:, None]
    idx = np.full(valid.shape, pad_value, dtype=np.int64)
    idx[valid] = [g for items in seqs for g, _ in items]
    return idx, valid.astype(np.float64)


def last_positions(valid: np.ndarray) -> np.ndarray:
    """(B,) index of each row's last real position, 0 for a row with none."""
    return np.maximum(valid.sum(axis=1).astype(np.int64) - 1, 0)


def domain_views(cfg: ModelConfig, idx: np.ndarray, valid: np.ndarray):
    """Each domain's view of merged rows, and the map back to merged order.

    A token belongs to domain y iff its index is at least vocab_x_size. A
    domain's view keeps the merged width L and holds that domain's tokens in
    order at the front, then the domain's pad index. Returns
    ((x_idx, x_valid), (y_idx, y_valid), inter_map), where inter_map (B, L)
    gives each real merged position's row in the concatenated [x; y] views
    (x rows 0..L-1, y rows L..2L-1) and maps padded positions to row 0.
    """
    real = np.asarray(valid) > 0
    in_y = idx >= cfg.vocab_x_size
    views = []
    for keep, pad in ((real & ~in_y, PAD_OFFSET), (real & in_y, cfg.vocab_x_size + PAD_OFFSET)):
        order = np.argsort(~keep, axis=1, kind="stable")
        view_valid = np.take_along_axis(keep, order, axis=1)
        views.append((np.where(view_valid, np.take_along_axis(idx, order, axis=1), pad),
                      view_valid.astype(np.float64)))
    rank_x = np.cumsum(real & ~in_y, axis=1) - 1
    rank_y = np.cumsum(real & in_y, axis=1) - 1 + idx.shape[1]
    inter_map = np.where(real, np.where(in_y, rank_y, rank_x), 0)
    return views[0], views[1], inter_map


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
    idx, valid = _pad_rows([ex.items for ex in examples], vocab_x.pad_index)
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
                          idx=idx, valid=valid, x0_idx=x0_idx, tx=tx, wx=wx, ty=ty, wy=wy)
    if augmented is not None:
        batch.aug_idx, batch.aug_valid = _pad_rows(augmented, vocab_x.pad_index)
    return batch


def make_eval_batch(sequences: list[UserSequence], vocab_x: Vocab, vocab_y: Vocab) -> SequenceBatch:
    if not sequences:
        raise ValueError("empty batch")
    idx, valid = _pad_rows([s.items for s in sequences], vocab_x.pad_index)
    return SequenceBatch(user_index=np.array([s.user_index for s in sequences]),
                         idx=idx, valid=valid)


def pad_batch(batch: SequenceBatch, L: int, pad_index: int) -> SequenceBatch:
    """The batch with its rows right-padded with pad_index to length L.

    `evaluate` pads every batch to the model's max_seq_len, so that each
    attention row, in every view, sums over the same keys whoever shares the
    batch; an encoder pays for the padded rows in attention only.
    """
    width = ((0, 0), (0, L - batch.idx.shape[1]))
    return replace(batch, idx=np.pad(batch.idx, width, constant_values=pad_index),
                   valid=np.pad(batch.valid, width))


# ---------------------------------------------------------------------------
# forward passes

def _proj(params: ParameterSet, prefix: str, which: str, x: Tensor) -> Tensor:
    return matmul(x, params["%s.attn.w%s" % (prefix, which)],
                  params.get("%s.attn.b%s" % (prefix, which)))


def _heads(t: Tensor, B: int, L: int, cfg: ModelConfig) -> Tensor:
    """Rows (B·L, d), or any stack of them, as split heads (B, H, L, d/H)."""
    return swapaxes(reshape(t, (B, L, cfg.n_heads, cfg.d // cfg.n_heads)), 1, 2)


def _attend(q, k, v, mask: np.ndarray, cfg: ModelConfig) -> Tensor:
    """Context rows (B·Lq, d) of split-head queries over split-head keys and values."""
    B, Lq, dh = q.data.shape[0], q.data.shape[2], q.data.shape[3]
    probs = masked_softmax(matmul(q, swapaxes(k, -1, -2)) * (1.0 / math.sqrt(dh)), mask)
    return reshape(swapaxes(matmul(probs, v), 1, 2), (B * Lq, cfg.d))


def _block(params: ParameterSet, prefix: str, x: Tensor, context,
           keep: np.ndarray | None = None) -> Tensor:
    """Pre-norm residual block over the rows x (N, d): x + o(context(a)), with a
    the ln1 norm of x, then the MLP of the ln2 norm.

    context, all that differs between the banks, maps a to the attention
    rows. With keep (indices into x's rows), only those rows go on, and
    context returns only theirs.
    """
    a = layer_norm(x, params[prefix + ".ln1.g"], params[prefix + ".ln1.b"])
    ctx = context(a)
    if keep is not None:
        x = pack_rows(x, keep)
    x = x + _proj(params, prefix, "o", ctx)
    m = layer_norm(x, params[prefix + ".ln2.g"], params[prefix + ".ln2.b"])
    u = gelu(matmul(m, params[prefix + ".mlp.w1"], params[prefix + ".mlp.b1"]))
    return x + matmul(u, params[prefix + ".mlp.w2"], params[prefix + ".mlp.b2"])


def causal_mask(valid: np.ndarray) -> np.ndarray:
    """(B,1,L,L) mask: key j visible from query i iff j <= i and j is real."""
    L = valid.shape[1]
    tri = np.tril(np.ones((L, L)))
    return tri[None, None, :, :] * valid[:, None, None, :]


def check_seq_lens(cfg: ModelConfig, seqs) -> None:
    """Raise naming the first user whose sequence is longer than max_seq_len.

    seqs holds anything with user_index and items (UserSequence,
    TrainingExample); callers check whole inputs before running any batch.
    """
    for s in seqs:
        if len(s.items) > cfg.max_seq_len:
            raise ValueError("user %d: sequence length %d exceeds max_seq_len %d"
                             % (s.user_index, len(s.items), cfg.max_seq_len))


def check_vocab_sizes(cfg: ModelConfig, vocab_x: Vocab, vocab_y: Vocab) -> None:
    """Raise unless the vocabularies have as many rows as the model's embedding tables.

    Checkpoints do not record item ids, so a split with the same sizes but
    other items passes.
    """
    if (vocab_x.size, vocab_y.size) != (cfg.vocab_x_size, cfg.vocab_y_size):
        raise ValueError("the split's vocabularies have %d (x) and %d (y) rows, but the "
                         "model's embedding tables have %d and %d"
                         % (vocab_x.size, vocab_y.size, cfg.vocab_x_size, cfg.vocab_y_size))


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
                  valid: np.ndarray, last: np.ndarray | None = None) -> Tensor:
    """Run one encoder bank (enc_x / enc_y / enc_c) causally over embedded tokens.

    h is (B, L, d) and valid (B, L). The blocks run on the packed rows: every
    real token, and position 0 of a sequence that has none, which pool_last
    reads; the output's other rows are zeros. With last (B,) given, the
    result is pool_last(full output, last) as a (B, d) stack.
    """
    B, L, d = h.data.shape
    real = np.asarray(valid) > 0
    real[:, 0] |= ~real.any(axis=1)
    rows = np.flatnonzero(real)
    out, keep = rows, None
    if last is not None:
        last = np.asarray(last)
        if last.shape != (B,) or np.any((last < 0) | (last >= L)):
            raise ValueError("last must hold one position in [0, %d) per sequence" % L)
        out = np.arange(B) * L + last
        if not np.all(real.ravel()[out]):
            raise ValueError("last must index a real token, or row 0 of an empty sequence")
        keep = np.searchsorted(rows, out)
    mask = causal_mask(valid)
    x = pack_rows(h, rows)
    for i in range(cfg.enc_layers):
        prefix = "%s.%d" % (bank, i)
        final = i == cfg.enc_layers - 1

        def context(a):
            q, k, v = (_heads(unpack_rows(_proj(params, prefix, w, a), rows, (B, L, d)),
                              B, L, cfg) for w in "qkv")
            return pack_rows(_attend(q, k, v, mask, cfg), out if final else rows)

        x = _block(params, prefix, x, context, keep=keep if final else None)
    return x if last is not None else unpack_rows(x, rows, (B, L, d))


def encode_sequence(params: ParameterSet, cfg: ModelConfig, bank: str, idx: np.ndarray,
                    valid: np.ndarray, last_only: bool = False) -> Tensor:
    """embed_sequence, then encode_domain; with last_only, only each
    sequence's row at last_positions(valid), as a (B, d) stack."""
    h = embed_sequence(params, cfg, idx)
    return encode_domain(params, cfg, bank, h, valid,
                         last=last_positions(valid) if last_only else None)


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


@dataclass
class GuideMemory:
    """The guide as the decoder reads it: split-head keys and values for
    every dec.<i> layer, and the (B,1,1,Lg) key mask."""
    kv: list
    mask: np.ndarray


def guide_memory(params: ParameterSet, cfg: ModelConfig, guide: Tensor,
                 guide_valid: np.ndarray) -> GuideMemory:
    """Project the guide into the decoder's keys and values.

    The guide is fixed across a reverse chain, so the sampler builds this
    once per batch and every denoising step reuses it.
    """
    if np.any(guide_valid.sum(axis=-1) < 1):
        raise ValueError("denoise requires at least one guidance row per example")
    B, Lg = guide.data.shape[:2]
    kv = [tuple(_heads(_proj(params, "dec.%d" % i, w, guide), B, Lg, cfg) for w in "kv")
          for i in range(cfg.dec_layers)]
    return GuideMemory(kv=kv, mask=guide_valid[:, None, None, :])


def denoise(params: ParameterSet, cfg: ModelConfig, x_t: Tensor, t: np.ndarray,
            memory: GuideMemory) -> Tensor:
    """Estimate the clean target vector from its noisy version under the
    guidance that `memory` (from guide_memory) holds."""
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > cfg.T):
        raise ValueError("timesteps must lie in [1, %d]" % cfg.T)
    B = x_t.data.shape[0]
    tok = x_t + gather_rows(params["step_emb"], t - 1)
    for i in range(cfg.enc_layers):
        # the token is its own only key, and a softmax over one key is exactly 1
        prefix = "enc_c.%d" % i
        tok = _block(params, prefix, tok, lambda a: _proj(params, prefix, "v", a))
    for i in range(cfg.dec_layers):
        prefix = "dec.%d" % i
        k, v = memory.kv[i]
        tok = _block(params, prefix, tok,
                     lambda a: _attend(_heads(_proj(params, prefix, "q", a), B, 1, cfg),
                                       k, v, memory.mask, cfg))
    return tok


# ---------------------------------------------------------------------------
# model-level forward

@dataclass
class GuidanceBundle:
    guide: Tensor | None = None   # None when the forward builds no guide (warm-up)
    guide_valid: np.ndarray | None = None
    gx_hat: Tensor | None = None
    gy_hat: Tensor | None = None
    gd_hat: Tensor | None = None
    take_aug: Callable[[], Tensor] | None = None   # gives the augmented view's encoding


def guidance_forward(params: ParameterSet, cfg: ModelConfig, batch: SequenceBatch,
                     variant: VariantConfig, start=functools.partial,
                     aug: bool = False, guide: bool = True) -> GuidanceBundle:
    """Everything upstream of the denoiser for one batch of sequences.

    start is an `autograd._Worker`'s start; by default each branch runs
    where its result is taken. enc_y is a branch, and with aug the batch's
    augmented view goes through enc_c (pooled) as a branch started right
    behind it, which the bundle's take_aug takes. Without guide (warm-up)
    the bundle holds no guide.

    The domain encoders run every row only for a guided variant's guide;
    otherwise they encode each sequence's last row alone, and gd_hat is
    fuse.w applied to the row of the merged sequence's last token. Each row
    has the bits of the full computation's.
    """
    variant.validate()
    gx_hat = gy_hat = gd_hat = None
    take_aug = guide_rows = guide_valid = None
    full_rows = guide and variant.use_guidance
    last = last_positions(batch.valid)
    if variant.use_de:
        (x_idx, x_valid), (y_idx, y_valid), inter_map = domain_views(cfg, batch.idx, batch.valid)
        gy = start(encode_sequence, params, cfg, "enc_y", y_idx, y_valid,
                   last_only=not full_rows)
    if aug:
        take_aug = start(encode_sequence, params, cfg, "enc_c", batch.aug_idx,
                         batch.aug_valid, last_only=True)
    if variant.use_de:
        gx = encode_sequence(params, cfg, "enc_x", x_idx, x_valid, last_only=not full_rows)
        gy = gy()
        if full_rows:
            guide_rows = fuse_guidance(params, gx, gy, inter_map)
            guide_valid = batch.valid
            gx_hat = pool_last(gx, last_positions(x_valid))
            gy_hat = pool_last(gy, last_positions(y_valid))
            gd_hat = pool_last(guide_rows, last)
        else:
            gx_hat, gy_hat = gx, gy
            # the merged last token is domain x's last token or domain y's
            in_y = inter_map[np.arange(batch.size), last] >= batch.idx.shape[1]
            pair = reshape(concat([gx, gy], axis=1), (batch.size, 2, cfg.d))
            gd_hat = matmul(pool_last(pair, in_y.astype(np.int64)), params["fuse.w"])
    if guide and not variant.use_de:
        guide_rows = encode_sequence(params, cfg, "enc_c", batch.idx, batch.valid)
        guide_valid = batch.valid
    elif guide and not full_rows:
        pooled = encode_sequence(params, cfg, "enc_c", batch.idx, batch.valid, last_only=True)
        guide_rows = reshape(pooled, (batch.size, 1, cfg.d))
        guide_valid = np.ones((batch.size, 1))
    return GuidanceBundle(guide=guide_rows, guide_valid=guide_valid, gx_hat=gx_hat,
                          gy_hat=gy_hat, gd_hat=gd_hat, take_aug=take_aug)


@dataclass
class ForwardBundle:
    guidance: GuidanceBundle
    x0: Tensor | None = None
    x0_hat: Tensor | None = None

    @functools.cached_property
    def h_aug(self) -> Tensor | None:
        """The augmented view's pooled encoding, which only the contrastive
        term reads: taking it waits for its branch on the worker, or runs it
        without a pool."""
        take = self.guidance.take_aug
        return None if take is None else take()


def training_forward(params: ParameterSet, cfg: ModelConfig, batch: SequenceBatch,
                     variant: VariantConfig, sched, t: np.ndarray | None,
                     eps: np.ndarray | None, start=functools.partial) -> ForwardBundle:
    """Produce every representation the objectives need for one batch.

    With neither timesteps nor noise (the warm-up stage) the diffusion and
    contrastive paths are skipped entirely and no guide is built, so only
    the domain encoders and the embeddings receive gradient.

    start is guidance_forward's. The forward returns without taking the
    augmented view: the bundle's h_aug takes it, so a caller can build the
    terms that do not read it first.
    """
    if (t is None) != (eps is None):
        raise ValueError("pass both timesteps and noise (main stage) or neither (warm-up)")
    gb = guidance_forward(params, cfg, batch, variant, start,
                          aug=(t is not None and variant.use_tricl
                               and batch.aug_idx is not None),
                          guide=t is not None)
    if t is None:
        return ForwardBundle(guidance=gb)
    x0 = gather_concat(params["emb_x"], params["emb_y"], batch.x0_idx)
    x_t = forward_diffuse(x0, t, eps, sched)
    memory = guide_memory(params, cfg, gb.guide, gb.guide_valid)
    return ForwardBundle(gb, x0, denoise(params, cfg, x_t, t, memory))
