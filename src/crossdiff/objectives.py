"""Training objectives.

Three terms, summed unweighted: a squared-error reconstruction loss on the
denoised target vector, cross-entropy recommendation losses tying the
denoised vector and the pooled domain encodings to the next item of each
domain, and a three-view contrastive loss over the denoised vector, the
pooled fused encoding, and an augmented-sequence encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import (Tensor, concat, exp, l2_normalize, log, matmul, mean,
                       slice_rows, sum_, swapaxes, take_last_axis)
from .data import N_RESERVED


def diffusion_loss(x0: Tensor, x0_hat: Tensor) -> Tensor:
    """Squared error summed over the embedding axis, averaged over the batch."""
    if x0.data.shape != x0_hat.data.shape:
        raise ValueError("shape mismatch: %r vs %r" % (x0.data.shape, x0_hat.data.shape))
    diff = x0_hat - x0
    return mean(sum_(diff * diff, axis=-1))


def _real_rows_t(emb: Tensor) -> Tensor:
    """(d, n_items) view of one embedding table without its reserved rows."""
    return swapaxes(slice_rows(emb, N_RESERVED, emb.data.shape[0]), 0, 1)


def _masked_ce_sum(logits: Tensor, target: np.ndarray, weight: np.ndarray) -> Tensor:
    """Cross-entropy per row, zeroed where weight is 0, summed over the batch."""
    shift = logits.data.max(axis=-1, keepdims=True)   # constant, keeps exp in range
    z = logits - shift
    lse = log(sum_(exp(z), axis=-1))
    picked = take_last_axis(z, np.asarray(target))
    return sum_((lse - picked) * np.asarray(weight, dtype=np.float64))


def rec_loss(x0_hat: Tensor | None, gx_hat: Tensor | None, gy_hat: Tensor | None,
             tx: np.ndarray, wx: np.ndarray, ty: np.ndarray, wy: np.ndarray,
             emb_x: Tensor, emb_y: Tensor) -> Tensor:
    """Next-item cross-entropy against each domain's real-item rows.

    Each present head (denoised vector, pooled domain encodings) is scored
    against the embedding table of every domain that has a target for the
    example; targets are real-item local rows. Result is averaged over the
    batch, counting each example once regardless of how many terms it has.
    """
    heads_x = [h for h in (x0_hat, gx_hat) if h is not None]
    heads_y = [h for h in (x0_hat, gy_hat) if h is not None]
    if not heads_x and not heads_y:
        raise ValueError("rec_loss needs at least one scoring head")
    B = (heads_x or heads_y)[0].data.shape[0]
    ex_t = _real_rows_t(emb_x)
    ey_t = _real_rows_t(emb_y)
    total = None
    for h in heads_x:
        term = _masked_ce_sum(matmul(h, ex_t), tx, wx)
        total = term if total is None else total + term
    for h in heads_y:
        term = _masked_ce_sum(matmul(h, ey_t), ty, wy)
        total = term if total is None else total + term
    return total * (1.0 / B)


def tri_view_cl_loss(h_c: Tensor, h_d: Tensor, h_aug: Tensor) -> Tensor:
    """Three-view contrastive loss.

    Views are stacked into 3B rows; for every ordered pair of distinct views
    of the same user, the positive similarity competes against all 3(B-1)
    views of other users. Views are length-normalized, which keeps the
    similarities bounded.
    """
    B = h_c.data.shape[0]
    if B < 2:
        raise ValueError("contrastive loss needs batch size >= 2, got %d" % B)
    V = concat([l2_normalize(v) for v in (h_c, h_d, h_aug)], axis=0)   # (3B, d)
    S = matmul(V, swapaxes(V, 0, 1))                   # (3B, 3B) similarities
    E = exp(S)
    user = np.tile(np.arange(B), 3)
    neg_mask = (user[:, None] != user[None, :]).astype(np.float64)
    neg_sum = sum_(E * neg_mask, axis=-1)              # (3B,)
    cols = np.arange(B)
    terms = []
    for vi in range(3):
        block_s = slice_rows(S, vi * B, (vi + 1) * B)          # (B, 3B)
        n_a = slice_rows(neg_sum, vi * B, (vi + 1) * B)        # (B,)
        for vj in range(3):
            if vj == vi:
                continue
            s_ap = take_last_axis(block_s, cols + vj * B)      # (B,)
            terms.append(log(exp(s_ap) + n_a) - s_ap)
    return mean(concat(terms, axis=0))


@dataclass(frozen=True)
class LossBreakdown:
    l_diff: float
    l_rec: float
    l_tri_cl: float
    l_total: float


def total_loss(l_diff: Tensor | None, l_rec: Tensor | None,
               l_tri_cl: Tensor | None) -> tuple[Tensor, LossBreakdown]:
    """Unweighted sum of the present terms plus a float snapshot.

    A non-finite component is a hard error naming the term; silently
    propagating it would poison the optimizer state.
    """
    named = [("l_diff", l_diff), ("l_rec", l_rec), ("l_tri_cl", l_tri_cl)]
    present = [(n, t) for n, t in named if t is not None]
    if not present:
        raise ValueError("total_loss needs at least one component")
    for name, t in present:
        if not np.isfinite(t.data):
            raise FloatingPointError("non-finite loss component %s = %r" % (name, t.data))
    total = None
    for _, t in present:
        total = t if total is None else total + t
    vals = {n: (float(t.data) if t is not None else 0.0) for n, t in named}
    return total, LossBreakdown(l_diff=vals["l_diff"], l_rec=vals["l_rec"],
                                l_tri_cl=vals["l_tri_cl"],
                                l_total=float(total.data))
