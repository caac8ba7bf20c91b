"""Loss terms checked against brute-force loop oracles and closed forms."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from crossdiff import autograd as ag
from crossdiff.autograd import Tensor
from crossdiff.data import N_RESERVED
from crossdiff.objectives import (
    LossBreakdown,
    diffusion_loss,
    rec_loss,
    total_loss,
    tri_view_cl_loss,
)

N_INSTANCES = 100
TOL = 1e-10


def oracle_diffusion(x0, x0_hat):
    B = x0.shape[0]
    total = 0.0
    for b in range(B):
        total += float(np.sum((x0_hat[b] - x0[b]) ** 2))
    return total / B


def oracle_rec(x0_hat, gx_hat, gy_hat, tx, wx, ty, wy, emb_x, emb_y):
    B = len(tx)
    real_x = emb_x[N_RESERVED:]
    real_y = emb_y[N_RESERVED:]
    total = 0.0
    for head in (x0_hat, gx_hat):
        if head is None:
            continue
        for b in range(B):
            if wx[b]:
                logits = head[b] @ real_x.T
                total += wx[b] * (logsumexp(logits) - logits[tx[b]])
    for head in (x0_hat, gy_hat):
        if head is None:
            continue
        for b in range(B):
            if wy[b]:
                logits = head[b] @ real_y.T
                total += wy[b] * (logsumexp(logits) - logits[ty[b]])
    return total / B


def oracle_tricl(h_c, h_d, h_aug, normalize=True):
    views = [np.array(v, dtype=float) for v in (h_c, h_d, h_aug)]
    if normalize:
        views = [v / np.sqrt((v * v).sum(axis=-1, keepdims=True) + 1e-12)
                 for v in views]
    B = views[0].shape[0]
    rows = np.concatenate(views, axis=0)
    owner = [u for _ in range(3) for u in range(B)]
    terms = []
    for vi in range(3):
        for vj in range(3):
            if vj == vi:
                continue
            for u in range(B):
                anchor = views[vi][u]
                s_ap = float(anchor @ views[vj][u])
                neg = sum(math.exp(float(anchor @ rows[w]))
                          for w in range(3 * B) if owner[w] != u)
                terms.append(math.log(math.exp(s_ap) + neg) - s_ap)
    return sum(terms) / len(terms)


def loop_tricl(h_c, h_d, h_aug):
    """The contrastive loss with one block of autograd terms per ordered view
    pair, the reference tri_view_cl_loss must match bit for bit."""
    B = h_c.data.shape[0]
    V = ag.concat([ag.l2_normalize(v) for v in (h_c, h_d, h_aug)], axis=0)
    S = ag.matmul(V, ag.swapaxes(V, 0, 1))
    E = ag.exp(S)
    user = np.tile(np.arange(B), 3)
    neg_mask = (user[:, None] != user[None, :]).astype(np.float64)
    neg_sum = ag.sum_(E * neg_mask, axis=-1)
    cols = np.arange(B)
    terms = []
    for vi in range(3):
        block_s = ag.slice_rows(S, vi * B, (vi + 1) * B)
        n_a = ag.slice_rows(neg_sum, vi * B, (vi + 1) * B)
        for vj in range(3):
            if vj == vi:
                continue
            s_ap = ag.take_last_axis(block_s, cols + vj * B)
            terms.append(ag.log(ag.exp(s_ap) + n_a) - s_ap)
    return ag.mean(ag.concat(terms, axis=0))


class TestDiffusionLoss:
    def test_matches_oracle(self, rel_err):
        rng = np.random.default_rng(10)
        for _ in range(N_INSTANCES):
            B = int(rng.integers(1, 9))
            d = int(rng.integers(1, 13))
            x0 = rng.normal(size=(B, d)) * rng.uniform(0.1, 10)
            xh = rng.normal(size=(B, d))
            got = diffusion_loss(Tensor(x0), Tensor(xh)).data
            assert rel_err(got, oracle_diffusion(x0, xh)) < TOL

    def test_zero_at_perfect_reconstruction(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        assert diffusion_loss(x, Tensor(x.data.copy())).data == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            diffusion_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestRecLoss:
    def rand_instance(self, rng):
        B = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        nx = int(rng.integers(3, 9))
        ny = int(rng.integers(3, 9))
        emb_x = rng.normal(size=(nx + N_RESERVED, d))
        emb_y = rng.normal(size=(ny + N_RESERVED, d))
        heads = [rng.normal(size=(B, d)) if rng.random() < 0.8 else None
                 for _ in range(3)]
        if all(h is None for h in heads):
            heads[0] = rng.normal(size=(B, d))
        tx = rng.integers(0, nx, size=B)
        ty = rng.integers(0, ny, size=B)
        wx = (rng.random(B) < 0.7).astype(float)
        wy = (rng.random(B) < 0.7).astype(float)
        return heads, tx, wx, ty, wy, emb_x, emb_y

    def test_matches_oracle(self, rel_err):
        rng = np.random.default_rng(11)
        for _ in range(N_INSTANCES):
            (x0h, gxh, gyh), tx, wx, ty, wy, ex, ey = self.rand_instance(rng)
            got = rec_loss(None if x0h is None else Tensor(x0h),
                           None if gxh is None else Tensor(gxh),
                           None if gyh is None else Tensor(gyh),
                           tx, wx, ty, wy, Tensor(ex), Tensor(ey)).data
            want = oracle_rec(x0h, gxh, gyh, tx, wx, ty, wy, ex, ey)
            assert rel_err(got, want) < TOL

    def test_uniform_logits_give_log_n(self):
        # a zero head scores every item identically: CE = ln(catalog size)
        rng = np.random.default_rng(12)
        B, d, nx = 5, 4, 11
        emb_x = rng.normal(size=(nx + N_RESERVED, d))
        emb_y = rng.normal(size=(6 + N_RESERVED, d))
        got = rec_loss(Tensor(np.zeros((B, d))), None, None,
                       np.zeros(B, dtype=int), np.ones(B),
                       np.zeros(B, dtype=int), np.zeros(B),
                       Tensor(emb_x), Tensor(emb_y)).data
        assert abs(got - math.log(nx)) < TOL

    def test_reserved_rows_excluded(self):
        # blowing up the mask/pad rows must not change the loss
        rng = np.random.default_rng(13)
        B, d, nx, ny = 3, 4, 5, 5
        emb_x = rng.normal(size=(nx + N_RESERVED, d))
        emb_y = rng.normal(size=(ny + N_RESERVED, d))
        head = rng.normal(size=(B, d))
        args = (np.array([1, 2, 0]), np.ones(B), np.array([0, 0, 4]), np.ones(B))
        base = rec_loss(Tensor(head), None, None, *args,
                        Tensor(emb_x), Tensor(emb_y)).data
        emb_x2 = emb_x.copy()
        emb_x2[:N_RESERVED] = 1e6
        bumped = rec_loss(Tensor(head), None, None, *args,
                          Tensor(emb_x2), Tensor(emb_y)).data
        assert bumped == base

    def test_absent_weights_drop_terms(self):
        rng = np.random.default_rng(14)
        B, d = 4, 3
        emb_x = rng.normal(size=(5 + N_RESERVED, d))
        emb_y = rng.normal(size=(5 + N_RESERVED, d))
        head = rng.normal(size=(B, d))
        got = rec_loss(Tensor(head), None, None,
                       np.zeros(B, dtype=int), np.zeros(B),
                       np.zeros(B, dtype=int), np.zeros(B),
                       Tensor(emb_x), Tensor(emb_y)).data
        assert got == 0.0

    def test_needs_a_head(self):
        with pytest.raises(ValueError, match="head"):
            rec_loss(None, None, None, np.zeros(1, dtype=int), np.ones(1),
                     np.zeros(1, dtype=int), np.ones(1),
                     Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))))


class TestTriViewCL:
    def test_matches_oracle(self, rel_err):
        rng = np.random.default_rng(15)
        for _ in range(N_INSTANCES):
            B = int(rng.integers(2, 7))
            d = int(rng.integers(2, 9))
            vs = [rng.normal(size=(B, d)) * rng.uniform(0.2, 5) for _ in range(3)]
            got = tri_view_cl_loss(*[Tensor(v) for v in vs]).data
            assert rel_err(got, oracle_tricl(*vs)) < TOL

    def test_equal_similarity_closed_form(self):
        # every view of every user is the same unit vector, so every
        # similarity is 1 and each term reduces to log(3(B-1)+1)
        for B in (2, 4, 9):
            v = np.tile(np.eye(3)[0], (B, 1))
            got = tri_view_cl_loss(Tensor(v.copy()), Tensor(v.copy()),
                                   Tensor(v.copy())).data
            assert abs(got - math.log(3 * (B - 1) + 1)) < TOL

    def test_orthogonal_users_closed_form(self):
        # own views identical, other users orthogonal: s_ap=1, negatives e^0
        B, d = 4, 8
        v = np.eye(d)[:B]
        got = tri_view_cl_loss(Tensor(v.copy()), Tensor(v.copy()),
                               Tensor(v.copy())).data
        want = math.log(math.exp(1.0) + 3 * (B - 1)) - 1.0
        assert abs(got - want) < 1e-9   # the normalize eps shifts s_ap slightly

    def test_user_permutation_invariance(self, rel_err):
        rng = np.random.default_rng(16)
        B, d = 6, 5
        vs = [rng.normal(size=(B, d)) for _ in range(3)]
        perm = rng.permutation(B)
        base = tri_view_cl_loss(*[Tensor(v) for v in vs]).data
        shuf = tri_view_cl_loss(*[Tensor(v[perm]) for v in vs]).data
        assert rel_err(shuf, base) < TOL

    def test_separated_beats_collapsed(self):
        rng = np.random.default_rng(17)
        B, d = 5, 16
        good = np.eye(d)[:B] * 3.0
        sep = tri_view_cl_loss(Tensor(good), Tensor(good.copy()),
                               Tensor(good.copy())).data
        col = tri_view_cl_loss(*[Tensor(rng.normal(size=(B, d)))
                                 for _ in range(3)]).data
        assert sep < col

    def test_prenormalized_matches(self, rel_err):
        rng = np.random.default_rng(18)
        B, d = 4, 6
        vs = [rng.normal(size=(B, d)) for _ in range(3)]
        unit = [v / np.linalg.norm(v, axis=-1, keepdims=True) for v in vs]
        a = tri_view_cl_loss(*[Tensor(v) for v in vs]).data
        b = tri_view_cl_loss(*[Tensor(u) for u in unit]).data
        assert rel_err(a, b) < 1e-8

    @pytest.mark.parametrize("B,d", [(2, 4), (7, 8), (128, 32)])
    def test_matches_loop_form_bits(self, B, d):
        rng = np.random.default_rng(B)
        vs = [rng.normal(size=(B, d)) * rng.uniform(0.2, 5) for _ in range(3)]
        results = []
        for loss_fn in (tri_view_cl_loss, loop_tricl):
            views = [Tensor(v.copy(), requires_grad=True) for v in vs]
            loss = loss_fn(*views)
            loss.backward()
            results.append([loss.data] + [v.grad for v in views])
        for got, want in zip(*results):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_small_batch_rejected(self):
        one = Tensor(np.ones((1, 4)))
        with pytest.raises(ValueError, match="batch size"):
            tri_view_cl_loss(one, one, one)


class TestTotalLoss:
    def test_sums_present_terms(self):
        t, bd = total_loss(Tensor(np.float64(1.5)), Tensor(np.float64(2.0)),
                           Tensor(np.float64(0.25)))
        assert t.data == 3.75
        assert bd == LossBreakdown(1.5, 2.0, 0.25, 3.75)

    def test_missing_terms_are_zero_in_breakdown(self):
        t, bd = total_loss(None, Tensor(np.float64(2.0)), None)
        assert t.data == 2.0
        assert bd.l_diff == 0.0 and bd.l_tri_cl == 0.0 and bd.l_total == 2.0

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError, match="component"):
            total_loss(None, None, None)

    def test_non_finite_names_term(self):
        with pytest.raises(FloatingPointError, match="l_rec"):
            total_loss(Tensor(np.float64(1.0)), Tensor(np.float64(np.nan)), None)
        with pytest.raises(FloatingPointError, match="l_tri_cl"):
            total_loss(None, None, Tensor(np.float64(np.inf)))

    def test_gradient_flows_to_components(self):
        a = Tensor(np.float64(1.0), requires_grad=True)
        b = Tensor(np.float64(2.0), requires_grad=True)
        t, _ = total_loss(a * 2.0, b * b, None)
        t.backward()
        assert a.grad == 2.0
        assert b.grad == 4.0
