"""Ranking metrics against brute-force oracles plus harness-level properties."""

import math
import multiprocessing
import os

import numpy as np
import pytest

import crossdiff.trainer as trainer_mod
from crossdiff.data import DOMAIN_X, DOMAIN_Y, UserSequence, Vocab
from crossdiff import evaluation, network
from crossdiff.diffusion import build_schedule, reverse_step, strided_steps
from crossdiff.evaluation import (
    MetricReport,
    auto_negatives,
    compute_metrics,
    evaluate,
    noise_robustness,
    overall_ndcg,
    rank_of_positive,
    sample_batch,
    sample_negatives,
    score_items,
    step_sweep,
)
from crossdiff.network import (
    VARIANTS,
    guidance_forward,
    init_parameters,
    make_eval_batch,
    pad_batch,
)
from crossdiff.autograd import Tensor, no_grad

from conftest import tiny_model_cfg


def oracle_metrics(ranks, cutoffs=(5, 10), mrr_cutoff=10):
    n = len(ranks)
    hit = {k: sum(1 for r in ranks if r <= k) / n for k in cutoffs}
    ndcg = {k: sum(1.0 / math.log2(r + 1) for r in ranks if r <= k) / n
            for k in cutoffs}
    mrr = sum(1.0 / r for r in ranks if r <= mrr_cutoff) / n
    return mrr, hit, ndcg


class TestRank:
    def test_strict_winner(self):
        assert rank_of_positive(np.array([5.0, 1.0, 2.0])) == 1

    def test_pessimistic_ties(self):
        assert rank_of_positive(np.array([1.0, 1.0, 0.5])) == 2
        assert rank_of_positive(np.array([1.0, 1.0, 1.0])) == 3

    def test_worst_case(self):
        assert rank_of_positive(np.array([0.0, 1.0, 2.0, 3.0])) == 4

    def test_singleton(self):
        assert rank_of_positive(np.array([7.0])) == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            rank_of_positive(np.array([]))
        with pytest.raises(ValueError, match="non-finite"):
            rank_of_positive(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            rank_of_positive(np.array([np.inf, 1.0]))


class TestComputeMetrics:
    def test_matches_oracle_on_random_lists(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            ranks = rng.integers(1, 1001, size=n)
            mv = compute_metrics(ranks)
            mrr, hit, ndcg = oracle_metrics(list(ranks))
            assert abs(mv.mrr - mrr) < 1e-12
            for k in (5, 10):
                assert abs(mv.hit[k] - hit[k]) < 1e-12
                assert abs(mv.ndcg[k] - ndcg[k]) < 1e-12
            assert mv.n_users == n

    def test_inequalities(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ranks = rng.integers(1, 30, size=int(rng.integers(1, 25)))
            mv = compute_metrics(ranks)
            assert mv.hit[5] <= mv.hit[10]
            assert mv.ndcg[5] <= mv.ndcg[10]
            assert mv.ndcg[5] <= mv.hit[5] and mv.ndcg[10] <= mv.hit[10]
            assert mv.mrr <= mv.hit[10]
            for v in (mv.mrr, mv.hit[5], mv.hit[10], mv.ndcg[5], mv.ndcg[10]):
                assert 0.0 <= v <= 1.0

    def test_exact_small_case(self):
        mv = compute_metrics([1, 3, 11])
        assert mv.hit[5] == pytest.approx(2 / 3, abs=1e-15)
        assert mv.hit[10] == pytest.approx(2 / 3, abs=1e-15)
        assert mv.ndcg[10] == pytest.approx((1.0 + 1.0 / math.log2(4)) / 3, abs=1e-15)
        assert mv.mrr == pytest.approx((1.0 + 1.0 / 3) / 3, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="no ranks"):
            compute_metrics([])
        with pytest.raises(ValueError, match="1-based"):
            compute_metrics([0, 2])

    def test_uniform_scorer_mrr(self):
        # iid continuous scores make the positive's rank uniform on 1..1000;
        # the truncated expectation is H_10 / 1000
        n_users, n_cand = 2500, 1000
        rng = np.random.default_rng(32)
        ranks = [rank_of_positive(rng.normal(size=n_cand)) for _ in range(n_users)]
        mv = compute_metrics(ranks)
        h10 = sum(1.0 / r for r in range(1, 11))
        mean = h10 / n_cand
        second = sum(1.0 / r ** 2 for r in range(1, 11)) / n_cand
        sigma = math.sqrt((second - mean ** 2) / n_users)
        assert abs(mv.mrr - mean) < 3 * sigma
        assert abs(mean - 0.00293) < 1e-5


class TestOverallNdcg:
    def test_user_weighted(self):
        ra = compute_metrics([1, 1, 2])        # 3 users
        rb = compute_metrics([20])             # 1 user
        rep = MetricReport(per_domain={"x": ra, "y": rb}, n_users=4, fingerprint={})
        want = (ra.ndcg[10] * 3 + rb.ndcg[10] * 1) / 4
        assert overall_ndcg(rep, 10) == pytest.approx(want, abs=1e-15)

    def test_empty_report(self):
        rep = MetricReport(per_domain={}, n_users=0, fingerprint={})
        with pytest.raises(ValueError, match="no users"):
            overall_ndcg(rep)


class TestNegatives:
    def test_count_distinct_excluded(self):
        vocab = Vocab(DOMAIN_X, 0, ["i%d" % i for i in range(30)])
        exclude = {vocab.index_of("i0"), vocab.index_of("i1"), vocab.index_of("i2")}
        rng = np.random.default_rng(33)
        negs = sample_negatives(rng, vocab, exclude, 20)
        assert len(negs) == 20
        assert len(set(negs.tolist())) == 20
        assert not (set(negs.tolist()) & exclude)
        for g in negs:
            assert vocab.contains(int(g))
            assert int(g) not in (vocab.mask_index, vocab.pad_index)

    def test_deterministic_per_stream(self):
        vocab = Vocab(DOMAIN_X, 0, ["i%d" % i for i in range(30)])
        a = sample_negatives(np.random.default_rng(7), vocab, set(), 10)
        b = sample_negatives(np.random.default_rng(7), vocab, set(), 10)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 5, 91])
    def test_matches_comprehension_reference(self, seed):
        vx = Vocab(DOMAIN_X, 0, ["x%d" % i for i in range(40)])
        vy = Vocab(DOMAIN_Y, vx.size, ["y%d" % i for i in range(25)])
        rng = np.random.default_rng(seed)
        for vocab in (vx, vy):
            for exclude in (set(), set(rng.choice(vocab.real_indices(), 9).tolist()),
                            set(vx.real_indices()[:7].tolist())
                            | set(vy.real_indices()[3:11].tolist())
                            | {vx.pad_index, vy.mask_index}):
                s = set(exclude)
                cand = np.array([i for i in vocab.real_indices() if i not in s],
                                dtype=np.int64)
                want = np.random.default_rng([seed, 1]).choice(cand, size=12, replace=False)
                got = sample_negatives(np.random.default_rng([seed, 1]), vocab, exclude, 12)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_insufficient_pool(self):
        vocab = Vocab(DOMAIN_X, 0, ["a", "b", "c"])
        with pytest.raises(ValueError, match="eligible negatives"):
            sample_negatives(np.random.default_rng(0), vocab, {vocab.index_of("a")}, 3)

    def test_auto_negatives_bound(self, monkeypatch):
        vx = Vocab(DOMAIN_X, 0, ["i%d" % i for i in range(20)])
        vy = Vocab(DOMAIN_Y, vx.size, ["j%d" % i for i in range(10)])

        class Stub:
            vocab_x, vocab_y = vx, vy
            validation = [(UserSequence(0, [(vx.index_of("i0"), DOMAIN_X)]),
                           (vx.index_of("i1"), DOMAIN_X))]
            test = [(UserSequence(0, [(vy.index_of("j0"), DOMAIN_Y),
                                      (vy.index_of("j1"), DOMAIN_Y)]),
                     (vy.index_of("j2"), DOMAIN_Y))]

            def vocab_of(self, d):
                return vx if d == DOMAIN_X else vy

        stub = Stub()
        # validation user: 20 - 2 = 18 eligible; test user: 10 - 3 = 7
        assert auto_negatives(stub) == 7
        monkeypatch.setattr(evaluation, "AUTO_NEGATIVES_CAP", 5)
        assert auto_negatives(stub) == 5


class TestScoreItems:
    def test_logits_contract(self):
        rng = np.random.default_rng(34)
        emb = rng.normal(size=(12, 6))
        vec = rng.normal(size=6)
        s = score_items(vec, None, emb)
        assert s.shape == (12,)
        assert s[0] == -np.inf and s[1] == -np.inf
        assert np.array_equal(s[2:], (emb @ vec)[2:])

    def test_no_false_tie_from_underflow(self):
        # the positive (row 2) beats the negative (row 3) by 100 in logit, but
        # both lie over 745 below the top row, where a softmax underflows to 0
        emb = np.array([[0.0], [0.0], [-800.0], [-900.0], [0.0]])
        s = score_items(np.array([1.0]), None, emb)
        assert rank_of_positive(s[[2, 3]]) == 1

    def test_orders_by_alignment(self):
        emb = np.zeros((5, 3))
        emb[2] = [1.0, 0, 0]
        emb[3] = [3.0, 0, 0]
        emb[4] = [-1.0, 0, 0]
        p = score_items(np.array([1.0, 0, 0]), None, emb)
        assert p[3] > p[2] > p[4]

    def test_guidance_vector_added(self):
        rng = np.random.default_rng(35)
        emb = rng.normal(size=(8, 4))
        x0 = rng.normal(size=4)
        g = rng.normal(size=4)
        assert np.allclose(score_items(x0, g, emb), score_items(x0 + g, None, emb),
                           atol=0, rtol=0)


@pytest.fixture(scope="module")
def eval_setup(small_split_mod, sched_mod):
    split = small_split_mod
    cfg = tiny_model_cfg(split)
    params = init_parameters(cfg, rng_seed=17)
    return split, cfg, params, sched_mod


@pytest.fixture(scope="module")
def small_split_mod():
    from conftest import make_split
    split, _ = make_split()
    return split


@pytest.fixture(scope="module")
def sched_mod():
    return build_schedule(6)


class TestSampleBatch:
    def test_batch_composition_invariance(self):
        """Each of 20 users gets the same guidance and sample bits alone as
        in a batch of 20, with batches built as evaluate builds them."""
        from conftest import make_split
        split, _ = make_split(n_users=24)
        seqs = [s for s, _ in split.test[:20]]
        assert len(seqs) == 20
        for d in (8, 64, 128):
            cfg = tiny_model_cfg(split, d=d, T=3)
            params = init_parameters(cfg, rng_seed=3)
            sched = build_schedule(cfg.T)

            def per_user(users, variant):
                batch = pad_batch(make_eval_batch(users, split.vocab_x, split.vocab_y),
                                  cfg.max_seq_len, split.vocab_x.pad_index)
                with no_grad():
                    gb = guidance_forward(params, cfg, batch, VARIANTS[variant])
                x0 = sample_batch(params, cfg, sched, gb.guide, gb.guide_valid,
                                  batch.user_index, seed=5, n_steps=cfg.T)
                hats = [t.data for t in (gb.gx_hat, gb.gy_hat, gb.gd_hat) if t is not None]
                return [b"".join(a[b].tobytes() for a in [gb.guide.data, x0] + hats)
                        for b in range(batch.size)]

            for variant in VARIANTS:
                together = per_user(seqs, variant)
                alone = [per_user([s], variant)[0] for s in seqs]
                differ = [u for u in range(20) if alone[u] != together[u]]
                assert differ == [], (d, variant, differ)

    def test_batch_composition_invariance_wide_mlp(self):
        # at d=128 the second MLP layer is (512, 128): with K > 256, a product
        # of a few rows would take OpenBLAS's small-matrix kernel
        from conftest import make_split
        split, _ = make_split(n_users=24)
        cfg = tiny_model_cfg(split, d=128, T=3)
        params = init_parameters(cfg, rng_seed=3)
        sched = build_schedule(cfg.T)
        batch = make_eval_batch([s for s, _ in split.test[:20]], split.vocab_x,
                                split.vocab_y)
        with no_grad():
            gb = guidance_forward(params, cfg, batch, VARIANTS["full"])

        def sample(rows):
            return sample_batch(params, cfg, sched, Tensor(gb.guide.data[rows]),
                                gb.guide_valid[rows], batch.user_index[rows],
                                seed=5, n_steps=cfg.T)

        full = sample(slice(None))
        assert np.array_equal(sample(slice(7, 8))[0], full[7])

    def test_seed_and_steps_matter(self, eval_setup):
        split, cfg, params, sched = eval_setup
        seqs = [s for s, _ in split.test[:4]]
        batch = make_eval_batch(seqs, split.vocab_x, split.vocab_y)
        with no_grad():
            gb = guidance_forward(params, cfg, batch, VARIANTS["full"])
        a = sample_batch(params, cfg, sched, gb.guide, gb.guide_valid,
                         batch.user_index, seed=5, n_steps=sched.T)
        b = sample_batch(params, cfg, sched, gb.guide, gb.guide_valid,
                         batch.user_index, seed=5, n_steps=sched.T)
        c = sample_batch(params, cfg, sched, gb.guide, gb.guide_valid,
                         batch.user_index, seed=6, n_steps=sched.T)
        d = sample_batch(params, cfg, sched, gb.guide, gb.guide_valid,
                         batch.user_index, seed=5, n_steps=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert np.all(np.isfinite(a))

    @staticmethod
    def _sample(eval_setup, seed=5, n_steps=None):
        split, cfg, params, sched = eval_setup
        batch = make_eval_batch([s for s, _ in split.test[:3]], split.vocab_x,
                                split.vocab_y)
        with no_grad():
            gb = guidance_forward(params, cfg, batch, VARIANTS["full"])
        return sample_batch(params, cfg, sched, gb.guide, gb.guide_valid,
                            batch.user_index, seed=seed,
                            n_steps=sched.T if n_steps is None else n_steps)

    def test_guide_projected_once_per_batch(self, eval_setup, monkeypatch):
        # the decoder's keys and values of the guide are built before the
        # chain, not at each of its T steps
        cfg = eval_setup[1]
        calls = []
        real = network._proj

        def spy(params, prefix, which, x):
            calls.append((prefix, which))
            return real(params, prefix, which, x)

        monkeypatch.setattr(network, "_proj", spy)
        self._sample(eval_setup)
        dec_kv = sorted(c for c in calls if c[0].startswith("dec.") and c[1] in "kv")
        assert dec_kv == sorted(("dec.%d" % i, w) for i in range(cfg.dec_layers)
                                for w in "kv")

    def test_denoiser_called_at_strided_steps(self, eval_setup, monkeypatch):
        sched = eval_setup[3]
        calls = []
        real = evaluation.denoise

        def spy(params, cfg, x_t, t, memory):
            calls.append(np.array(t))
            return real(params, cfg, x_t, t, memory)

        monkeypatch.setattr(evaluation, "denoise", spy)
        self._sample(eval_setup, n_steps=3)
        assert [int(t[0]) for t in calls] == strided_steps(sched.T, 3)
        assert all(np.all(t == t[0]) for t in calls)

    def test_returns_last_denoise_output(self, eval_setup, monkeypatch):
        outputs = []
        real = evaluation.denoise

        def spy(*args):
            out = real(*args)
            outputs.append(out.data.copy())
            return out

        monkeypatch.setattr(evaluation, "denoise", spy)
        got = self._sample(eval_setup)
        assert len(outputs) == eval_setup[3].T
        assert np.array_equal(got, outputs[-1])

    def test_deterministic_under_seed_with_stub_denoiser(self, eval_setup,
                                                          monkeypatch):
        monkeypatch.setattr(evaluation, "denoise",
                            lambda params, cfg, x_t, t, memory: x_t * 0.5)
        a = self._sample(eval_setup, seed=11)
        b = self._sample(eval_setup, seed=11)
        c = self._sample(eval_setup, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n_steps", [1, 2, None])
    def test_matches_per_step_draw_reference(self, eval_setup, monkeypatch, n_steps):
        # reference chain: each user's generator draws its start vector, then
        # one noise vector per non-final transition, one reverse step at a time
        split, cfg, _, sched = eval_setup

        def stub(params, cfg, x_t, t, memory):
            return Tensor(0.5 * x_t.data + 0.01 * t[:, None])

        monkeypatch.setattr(evaluation, "denoise", stub)
        users = [s.user_index for s, _ in split.test[:3]]
        steps = strided_steps(sched.T, sched.T if n_steps is None else n_steps)
        rngs = [np.random.default_rng([5, 0, u]) for u in users]
        x = np.stack([r.standard_normal(cfg.d) for r in rngs])
        for i, t in enumerate(steps):
            x0_hat = stub(None, cfg, Tensor(x), np.full(len(users), t), None).data
            t_prev = steps[i + 1] if i + 1 < len(steps) else 0
            noise = (np.stack([r.standard_normal(cfg.d) for r in rngs]) if t_prev > 0
                     else np.zeros_like(x))
            x = reverse_step(x, t, x0_hat, sched, noise, t_prev=t_prev)
        # the sampler makes only the transitions whose results it uses
        transitions = []
        real_step = evaluation.reverse_step

        def counted(*args, **kwargs):
            transitions.append(args[1])
            return real_step(*args, **kwargs)

        monkeypatch.setattr(evaluation, "reverse_step", counted)
        assert np.array_equal(self._sample(eval_setup, n_steps=n_steps), x0_hat)
        assert transitions == steps[:-1]

    @pytest.mark.parametrize("n_steps", [1, 2, None])
    def test_non_finite_final_sample_rejected(self, eval_setup, monkeypatch, n_steps):
        sched = eval_setup[3]
        last = strided_steps(sched.T, sched.T if n_steps is None else n_steps)[-1]

        def stub(params, cfg, x_t, t, memory):
            return Tensor(np.full_like(x_t.data, np.nan) if t[0] == last else 0.5 * x_t.data)

        monkeypatch.setattr(evaluation, "denoise", stub)
        with pytest.raises(ValueError, match="non-finite"):
            self._sample(eval_setup, n_steps=n_steps)


class TestEvaluate:
    def test_deterministic_and_seed_sensitive(self, eval_setup):
        split, cfg, params, sched = eval_setup
        kw = dict(seed=3, n_negatives=15)
        a = evaluate(split.test, params, cfg, sched, "full",
                     split.vocab_x, split.vocab_y, **kw)
        b = evaluate(split.test, params, cfg, sched, "full",
                     split.vocab_x, split.vocab_y, **kw)
        assert a == b
        c = evaluate(split.test, params, cfg, sched, "full",
                     split.vocab_x, split.vocab_y, seed=4, n_negatives=15)
        assert c.fingerprint["seed"] == 4
        assert a.fingerprint["seed"] == 3

    def test_long_sequence_rejected_before_any_batch(self, eval_setup, monkeypatch):
        # the long sequence sits in the last of three batches
        split, cfg, params, sched = eval_setup
        part = list(split.test[:6])
        seq, target = part[-1]
        long_seq = UserSequence(seq.user_index, (list(seq.items) * 2)[:cfg.max_seq_len + 1])
        part[-1] = (long_seq, target)
        calls = []
        real = evaluation.sample_batch

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "sample_batch", spy)
        with pytest.raises(ValueError, match="user %d: sequence length" % seq.user_index):
            evaluate(part, params, cfg, sched, "full", split.vocab_x, split.vocab_y,
                     n_negatives=5, batch_size=2)
        assert calls == []

    @pytest.mark.parametrize("n_steps", [0, -1, 99])
    def test_bad_n_steps_rejected_before_any_batch(self, eval_setup, monkeypatch, n_steps):
        split, cfg, params, sched = eval_setup
        calls = []
        monkeypatch.setattr(evaluation, "guidance_forward", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match=r"n_steps=%d outside \[1, %d\]" % (n_steps, sched.T)):
            evaluate(split.test, params, cfg, sched, "full", split.vocab_x, split.vocab_y,
                     n_steps=n_steps, n_negatives=5)
        assert calls == []

    def test_batch_size_invariance(self, eval_setup):
        split, cfg, params, sched = eval_setup
        a = evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                     split.vocab_y, seed=3, n_negatives=15, batch_size=64)
        b = evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                     split.vocab_y, seed=3, n_negatives=15, batch_size=3)
        assert a.per_domain == b.per_domain

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_whole_report_batch_size_invariant_for_every_variant(self, eval_setup,
                                                                 variant):
        # a forked worker ranks half of each batch, which relies on this
        split, cfg, params, sched = eval_setup
        a, b, c = (evaluate(split.test, params, cfg, sched, variant, split.vocab_x,
                            split.vocab_y, seed=3, n_negatives=15, batch_size=bs)
                   for bs in (64, 5, 1))
        assert a == b == c

    def test_fingerprint_fields(self, eval_setup):
        split, cfg, params, sched = eval_setup
        rep = evaluate(split.test, params, cfg, sched, "diff", split.vocab_x,
                       split.vocab_y, seed=0, n_negatives=10)
        fp = rep.fingerprint
        assert fp["trained_steps"] == "untrained"
        assert fp["variant"] == "diff"
        assert fp["n_steps"] == sched.T
        assert fp["n_negatives"] == 10
        rep2 = evaluate(split.test, params, cfg, sched, "diff", split.vocab_x,
                        split.vocab_y, seed=0, n_negatives=10, trained_steps=40)
        assert rep2.fingerprint["trained_steps"] == 40

    def test_user_counts_per_domain(self, eval_setup):
        split, cfg, params, sched = eval_setup
        rep = evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                       split.vocab_y, seed=0, n_negatives=10)
        by_dom = {d: 0 for d in ("x", "y")}
        for _, (_, td) in split.test:
            by_dom[td] += 1
        for d, mv in rep.per_domain.items():
            assert mv.n_users == by_dom[d]
        assert rep.n_users == len(split.test)

    def test_validation_errors(self, eval_setup):
        split, cfg, params, sched = eval_setup
        with pytest.raises(ValueError, match="nothing"):
            evaluate([], params, cfg, sched, "full", split.vocab_x, split.vocab_y)
        with pytest.raises(ValueError, match="align"):
            evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                     split.vocab_y, exclude_seqs=[split.test[0][0]])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, eval_setup, monkeypatch, batch_size):
        split, cfg, params, sched = eval_setup
        calls = []
        monkeypatch.setattr(evaluation, "sample_batch",
                            lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                     split.vocab_y, n_negatives=5, batch_size=batch_size)
        assert calls == []

    def test_rejects_fewer_than_one_negative(self, eval_setup):
        # with no negatives every user would rank first and score NDCG@10 = 1
        split, cfg, params, sched = eval_setup
        for k in (0, -3):
            with pytest.raises(ValueError, match="n_negatives"):
                evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                         split.vocab_y, n_negatives=k)

    def test_vocab_size_mismatch_rejected_before_any_batch(self, eval_setup,
                                                            monkeypatch):
        split, cfg, params, sched = eval_setup
        vx = Vocab(DOMAIN_X, 0, split.vocab_x.items + ["extra"])
        vy = Vocab(DOMAIN_Y, vx.size, split.vocab_y.items)
        calls = []
        monkeypatch.setattr(evaluation, "sample_batch", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="%d \\(x\\) and %d \\(y\\) rows, but the model's "
                           "embedding tables have %d and %d"
                           % (vx.size, vy.size, cfg.vocab_x_size, cfg.vocab_y_size)):
            evaluate(split.test, params, cfg, sched, "full", vx, vy, n_negatives=5)
        assert calls == []


def _with_cpus(monkeypatch, cpus, blas_threads=1):
    """Let the process see cpus CPUs and numpy's BLAS read blas_threads threads,
    whatever the test run's own BLAS setting."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(trainer_mod, "_blas_threads", lambda: blas_threads)


@pytest.fixture
def forks(monkeypatch):
    """The processes forked while the test runs, counted at os.fork."""
    calls, real = [], os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


class TestTwoCores:
    """evaluate ranks the second half of each batch in a forked worker when the
    process may use two CPUs; every report equals the one-CPU report."""

    @staticmethod
    def _evaluate(eval_setup, **kw):
        split, cfg, params, sched = eval_setup
        return evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                        split.vocab_y, **{"seed": 3, "n_negatives": 15, **kw})

    @pytest.mark.parametrize("n_steps", [1, None])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_reports_equal_one_cpu(self, eval_setup, monkeypatch, forks, batch_size,
                                   n_steps):
        _with_cpus(monkeypatch, 1)
        one = self._evaluate(eval_setup, batch_size=batch_size, n_steps=n_steps)
        assert forks == []
        _with_cpus(monkeypatch, 2)
        two = self._evaluate(eval_setup, batch_size=batch_size, n_steps=n_steps)
        assert two == one
        # a batch of one user has no second half
        assert len(forks) == (0 if batch_size == 1 else 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("blas_threads", [2, None])
    def test_several_blas_threads_fork_nothing(self, eval_setup, monkeypatch, forks,
                                               blas_threads):
        # the forked worker and the caller would share two cores with the
        # BLAS's own threads, which is slower than ranking serially
        _with_cpus(monkeypatch, 1)
        one = self._evaluate(eval_setup, batch_size=4)
        _with_cpus(monkeypatch, 2, blas_threads)
        assert self._evaluate(eval_setup, batch_size=4) == one
        assert forks == []

    def test_noise_robustness_equal_one_cpu(self, eval_setup, monkeypatch, forks):
        split, cfg, params, sched = eval_setup

        def rows():
            return noise_robustness(split.test, params, cfg, sched, "full",
                                    split.vocab_x, split.vocab_y, [0.0, 0.3],
                                    seed=3, n_negatives=15, batch_size=5)

        _with_cpus(monkeypatch, 1)
        one = rows()
        _with_cpus(monkeypatch, 2)
        assert rows() == one
        assert len(forks) == 2
        assert multiprocessing.active_children() == []

    def test_live_adam_executor_untouched(self, eval_setup, monkeypatch):
        # the worker is forked while Adam's thread may be live; the thread
        # does not exist in the child, which must never wait on it
        _with_cpus(monkeypatch, 1)
        one = self._evaluate(eval_setup, batch_size=4)
        monkeypatch.setattr(trainer_mod, "_pool", None)
        executor = trainer_mod._executor()
        try:
            assert executor.submit(lambda: 5).result(timeout=10) == 5
            _with_cpus(monkeypatch, 2)
            assert self._evaluate(eval_setup, batch_size=4) == one
            assert executor.submit(lambda: 6).result(timeout=10) == 6
        finally:
            executor.shutdown()
        assert multiprocessing.active_children() == []

    @staticmethod
    def _poison(eval_setup, monkeypatch, victim: int) -> None:
        """Make the last denoised vector of test user number victim non-finite."""
        split, sched = eval_setup[0], eval_setup[3]
        bad_user = split.test[victim][0].user_index
        last = strided_steps(sched.T, sched.T)[-1]
        users = []
        real_sample, real_denoise = evaluation.sample_batch, evaluation.denoise

        def sample(*args):
            users[:] = list(args[5])
            return real_sample(*args)

        def denoise(*args):
            out = real_denoise(*args)
            if args[3][0] == last:
                out.data[np.asarray(users) == bad_user] = np.nan
            return out

        monkeypatch.setattr(evaluation, "sample_batch", sample)
        monkeypatch.setattr(evaluation, "denoise", denoise)

    # batch_size 4: the second batch is rows 4-7, the caller ranks 4-5 and the worker 6-7
    @pytest.mark.parametrize("victim", [4, 7])
    def test_non_finite_sample_raises_in_caller(self, eval_setup, monkeypatch, forks,
                                                victim):
        self._poison(eval_setup, monkeypatch, victim)
        for cpus in (1, 2):
            _with_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as err:
                self._evaluate(eval_setup, batch_size=4)
            assert str(err.value) == "non-finite sample at the end of the reverse chain"
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("victim", [4, 7])
    def test_negative_shortage_raises_same_message(self, eval_setup, monkeypatch, forks,
                                                   victim):
        split = eval_setup[0]
        seq, (_, td) = split.test[victim]
        vocab = split.vocab_of(td)
        exclude = [s for s, _ in split.test]
        exclude[victim] = UserSequence(seq.user_index,
                                       [(int(g), td) for g in vocab.real_indices()])
        want = "domain %s has 0 eligible negatives, need 15" % td
        for cpus in (1, 2):
            _with_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as err:
                self._evaluate(eval_setup, batch_size=4, exclude_seqs=exclude)
            assert str(err.value) == want
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error(self, eval_setup, monkeypatch, forks):
        caller = os.getpid()
        real = evaluation.sample_batch

        def sample(*args):
            if os.getpid() != caller:
                os._exit(7)
            return real(*args)

        monkeypatch.setattr(evaluation, "sample_batch", sample)
        _with_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="evaluation worker exited with code 7"):
            self._evaluate(eval_setup, batch_size=4)
        assert len(forks) == 1
        assert multiprocessing.active_children() == []

    def test_worker_killed_between_batches_is_an_error(self, eval_setup, monkeypatch):
        import signal

        real, calls = evaluation.make_eval_batch, []

        def build(*args):
            calls.append(1)
            if len(calls) == 2:
                (worker,) = multiprocessing.active_children()
                os.kill(worker.pid, signal.SIGKILL)
                worker.join(60)
            return real(*args)

        monkeypatch.setattr(evaluation, "make_eval_batch", build)
        _with_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="evaluation worker exited with code -9"):
            self._evaluate(eval_setup, batch_size=4)
        assert multiprocessing.active_children() == []

    def test_one_cpu_or_no_fork_starts_no_process(self, eval_setup, monkeypatch, forks):
        _with_cpus(monkeypatch, 1)
        want = self._evaluate(eval_setup, batch_size=4)
        _with_cpus(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert self._evaluate(eval_setup, batch_size=4) == want
        assert forks == []

    def test_daemonic_caller_starts_no_process(self, eval_setup, monkeypatch):
        # a daemonic process may start no children: multiprocessing would raise
        _with_cpus(monkeypatch, 1)
        want = self._evaluate(eval_setup, batch_size=4)
        _with_cpus(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()

        def child():
            try:
                theirs.send(self._evaluate(eval_setup, batch_size=4))
            except Exception as exc:
                theirs.send(repr(exc))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        try:
            assert ours.poll(60)
            got = ours.recv()
        finally:
            proc.join(60)
        assert not proc.is_alive() and proc.exitcode == 0
        assert got == want


class TestRobustness:
    def test_rate_zero_retains_exactly_one(self, eval_setup):
        split, cfg, params, sched = eval_setup
        rows = noise_robustness(split.test, params, cfg, sched, "full",
                                split.vocab_x, split.vocab_y, [0.0, 0.2],
                                seed=3, n_negatives=15)
        assert rows[0]["noise_rate"] == 0.0
        assert rows[0]["retained"] == 1.0
        assert rows[1]["noise_rate"] == 0.2
        base = rows[0]["ndcg10"]
        assert rows[1]["retained"] == rows[1]["ndcg10"] / base

    def test_deterministic(self, eval_setup):
        split, cfg, params, sched = eval_setup
        kw = dict(seed=3, n_negatives=15)
        a = noise_robustness(split.test, params, cfg, sched, "full",
                             split.vocab_x, split.vocab_y, [0.0, 0.3], **kw)
        b = noise_robustness(split.test, params, cfg, sched, "full",
                             split.vocab_x, split.vocab_y, [0.0, 0.3], **kw)
        assert [r["ndcg10"] for r in a] == [r["ndcg10"] for r in b]

    def test_rate_streams_differ(self, eval_setup):
        split, cfg, params, sched = eval_setup
        rows = noise_robustness(split.test, params, cfg, sched, "full",
                                split.vocab_x, split.vocab_y,
                                [0.0, 0.1, 0.3], seed=3, n_negatives=15)
        fps = [r["report"].fingerprint["n_negatives"] for r in rows]
        assert fps == [15, 15, 15]

    @pytest.mark.parametrize("rates", [[0.1, 1.5], [0.0, 1.0], [-0.1, 0.2]])
    def test_rates_checked_before_any_pass(self, eval_setup, monkeypatch, rates):
        split, cfg, params, sched = eval_setup
        calls = []
        monkeypatch.setattr(evaluation, "evaluate", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="noise rate"):
            noise_robustness(split.test, params, cfg, sched, "full", split.vocab_x,
                             split.vocab_y, rates, seed=3, n_negatives=15)
        assert calls == []


class TestStepSweep:
    def test_full_chain_matches_default_eval(self, eval_setup):
        split, cfg, params, sched = eval_setup
        rep = evaluate(split.test, params, cfg, sched, "full", split.vocab_x,
                       split.vocab_y, seed=5, n_negatives=15)
        rows = step_sweep(split.test, params, cfg, sched, "full", split.vocab_x,
                          split.vocab_y, [sched.T, 2], seed=5, n_negatives=15)
        assert rows[0]["n_steps"] == sched.T
        assert rows[0]["report"] == rep
        assert rows[1]["report"] != rep

    def test_row_count_and_validation(self, eval_setup):
        split, cfg, params, sched = eval_setup
        rows = step_sweep(split.test, params, cfg, sched, "full", split.vocab_x,
                          split.vocab_y, [1, 2, 3], seed=5, n_negatives=10)
        assert [r["n_steps"] for r in rows] == [1, 2, 3]
        for bad in (0, sched.T + 1):
            with pytest.raises(ValueError, match=r"n_steps=%d outside \[1, %d\]" % (bad, sched.T)):
                step_sweep(split.test, params, cfg, sched, "full", split.vocab_x,
                           split.vocab_y, [bad], seed=5, n_negatives=10)

    def test_counts_checked_before_any_pass(self, eval_setup, monkeypatch):
        split, cfg, params, sched = eval_setup
        calls = []
        monkeypatch.setattr(evaluation, "evaluate", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match=r"n_steps=99 outside \[1, %d\]" % sched.T):
            step_sweep(split.test, params, cfg, sched, "full", split.vocab_x,
                       split.vocab_y, [1, 2, 99], seed=5, n_negatives=10)
        assert calls == []


class TestAblationHarness:
    def test_grid_shape(self, small_split_mod, sched_mod):
        from crossdiff.evaluation import ablation_study
        from crossdiff.trainer import TrainConfig

        split = small_split_mod
        cfg = tiny_model_cfg(split)
        tcfg = TrainConfig(batch_size=64, epochs=1, warmup_epochs=0, seed=0)
        rows = ablation_study(split, ["diff", "full"], cfg, tcfg, sched_mod,
                              seeds=(0, 1), n_negatives=10, eval_seed=2)
        assert [r["variant"] for r in rows] == ["diff", "full"]
        for row in rows:
            assert len(row["per_seed"]) == 2
            assert row["ndcg10_mean"] == pytest.approx(np.mean(row["per_seed"]))
            for rep in row["reports"]:
                assert rep.fingerprint["variant"] == row["variant"]
                assert rep.fingerprint["trained_steps"] != "untrained"

    @pytest.mark.parametrize("eval_steps", [0, 99])
    def test_bad_eval_steps_rejected_before_training(self, small_split_mod, sched_mod,
                                                     monkeypatch, eval_steps):
        from crossdiff.evaluation import run_ablation
        from crossdiff.trainer import TrainConfig

        calls = []
        real = trainer_mod.train_step

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_step", spy)
        with pytest.raises(ValueError, match="n_steps=%d outside" % eval_steps):
            run_ablation(small_split_mod, "diff", tiny_model_cfg(small_split_mod),
                         TrainConfig(batch_size=64, epochs=1), sched_mod,
                         n_negatives=10, eval_steps=eval_steps)
        assert calls == []

    def test_unknown_variant(self, small_split_mod, sched_mod):
        from crossdiff.evaluation import run_ablation
        from crossdiff.trainer import TrainConfig

        split = small_split_mod
        cfg = tiny_model_cfg(split)
        with pytest.raises(ValueError, match="variant"):
            run_ablation(split, "extra", cfg, TrainConfig(epochs=1), sched_mod)
