"""Parameter plumbing, batch assembly, attention masking, variant wiring."""

import numpy as np
import pytest

from crossdiff.autograd import Tensor
from crossdiff.data import (
    DOMAIN_X,
    DOMAIN_Y,
    PAD_OFFSET,
    UserSequence,
    Vocab,
)
from crossdiff.diffusion import build_schedule
from crossdiff.network import (
    VARIANTS,
    ModelConfig,
    VariantConfig,
    build_training_examples,
    causal_mask,
    denoise,
    embed_sequence,
    encode_domain,
    expected_param_count,
    fuse_guidance,
    guidance_forward,
    init_parameters,
    make_eval_batch,
    make_train_batch,
    param_specs,
    pool_last,
    training_forward,
)


def tiny_cfg(**kw):
    base = dict(d=8, n_heads=2, enc_layers=1, dec_layers=1, max_seq_len=10,
                T=4, vocab_x_size=7, vocab_y_size=6)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def vocabs():
    vx = Vocab(DOMAIN_X, 0, ["a%d" % i for i in range(5)])
    vy = Vocab(DOMAIN_Y, vx.size, ["b%d" % i for i in range(4)])
    return vx, vy


class TestConfig:
    def test_d_heads_divisibility(self):
        with pytest.raises(ValueError, match="multiple"):
            tiny_cfg(d=6, n_heads=4).validate()

    def test_layer_counts(self):
        with pytest.raises(ValueError, match="enc_layers"):
            tiny_cfg(enc_layers=0).validate()
        with pytest.raises(ValueError, match="T"):
            tiny_cfg(T=0).validate()

    def test_vocab_floor(self):
        with pytest.raises(ValueError, match="reserved"):
            tiny_cfg(vocab_x_size=2).validate()

    def test_variant_dependencies(self):
        with pytest.raises(ValueError, match="guidance"):
            VariantConfig(use_de=False, use_guidance=True, use_tricl=False).validate()
        with pytest.raises(ValueError, match="contrastive"):
            VariantConfig(use_de=False, use_guidance=False, use_tricl=True).validate()

    def test_variant_grid(self):
        assert set(VARIANTS) == {"diff", "diff_de", "diff_de_g", "diff_de_tricl", "full"}
        for v in VARIANTS.values():
            v.validate()
        assert not VARIANTS["diff"].use_de
        assert VARIANTS["full"] == VariantConfig(True, True, True)


class TestParameters:
    def test_count_matches_formula(self):
        for cfg in (tiny_cfg(), tiny_cfg(d=12, n_heads=3, enc_layers=2, dec_layers=2,
                                         T=7, vocab_x_size=11, vocab_y_size=9)):
            params = init_parameters(cfg)
            assert params.n_params == expected_param_count(cfg)
            assert params.n_params == sum(int(np.prod(s)) for _, s, _ in param_specs(cfg))

    def test_init_deterministic(self):
        cfg = tiny_cfg()
        a = init_parameters(cfg, rng_seed=3).to_vector()
        b = init_parameters(cfg, rng_seed=3).to_vector()
        c = init_parameters(cfg, rng_seed=4).to_vector()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_structured_inits(self):
        cfg = tiny_cfg()
        params = init_parameters(cfg)
        assert np.all(params["emb_x"].data[PAD_OFFSET] == 0.0)
        assert np.all(params["emb_y"].data[PAD_OFFSET] == 0.0)
        assert np.array_equal(params["fuse.w"].data, np.eye(cfg.d))
        assert np.all(params["enc_x.0.ln1.g"].data == 1.0)
        assert np.all(params["enc_x.0.ln1.b"].data == 0.0)
        assert np.all(params["dec.0.attn.bq"].data == 0.0)
        bound = np.sqrt(6.0 / (cfg.d + 4 * cfg.d))
        w1 = params["enc_c.0.mlp.w1"].data
        assert np.all(np.abs(w1) <= bound)

    def test_vector_round_trip(self):
        cfg = tiny_cfg()
        params = init_parameters(cfg, rng_seed=1)
        vec = params.to_vector()
        other = init_parameters(cfg, rng_seed=2)
        other.from_vector(vec)
        assert np.array_equal(other.to_vector(), vec)
        with pytest.raises(ValueError, match="length"):
            other.from_vector(vec[:-1])


class FakeSplit:
    def __init__(self, train):
        self.train = train


class TestTrainingExamples:
    def test_every_proper_prefix(self, vocabs):
        vx, vy = vocabs
        seq = UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                               (vy.index_of("b0"), DOMAIN_Y),
                               (vx.index_of("a1"), DOMAIN_X),
                               (vx.index_of("a2"), DOMAIN_X)])
        exs = build_training_examples(FakeSplit([seq]))
        assert len(exs) == 3
        assert [len(e.items) for e in exs] == [1, 2, 3]
        assert exs[0].next_item == seq.items[1]
        assert exs[2].next_item == seq.items[3]

    def test_other_item_is_first_later_cross_domain(self, vocabs):
        vx, vy = vocabs
        seq = UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                               (vx.index_of("a1"), DOMAIN_X),
                               (vy.index_of("b0"), DOMAIN_Y),
                               (vy.index_of("b1"), DOMAIN_Y),
                               (vx.index_of("a2"), DOMAIN_X)])
        exs = build_training_examples(FakeSplit([seq]))
        # prefix a0 -> next a1 (x), first later y is b0
        assert exs[0].other_item == seq.items[2]
        # prefix a0,a1 -> next b0 (y), first later x is a2
        assert exs[1].other_item == seq.items[4]
        # prefix ..b0 -> next b1 (y), later x exists
        assert exs[2].other_item == seq.items[4]
        # prefix ..b1 -> next a2 (x), nothing later
        assert exs[3].other_item is None

    def test_count_over_split(self, small_split):
        exs = build_training_examples(small_split)
        assert len(exs) == sum(len(s) - 1 for s in small_split.train)


class TestBatchAssembly:
    def test_interleave_map_recovers_merged(self, vocabs):
        vx, vy = vocabs
        seqs = [UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                                 (vy.index_of("b0"), DOMAIN_Y),
                                 (vx.index_of("a1"), DOMAIN_X)]),
                UserSequence(1, [(vy.index_of("b1"), DOMAIN_Y),
                                 (vy.index_of("b2"), DOMAIN_Y)])]
        batch = make_eval_batch(seqs, vx, vy)
        cat = np.concatenate([batch.x_idx, batch.y_idx], axis=1)
        for b in range(batch.size):
            for i in range(batch.merged_idx.shape[1]):
                if batch.merged_valid[b, i]:
                    assert cat[b, batch.inter_map[b, i]] == batch.merged_idx[b, i]

    def test_padding_and_last(self, vocabs):
        vx, vy = vocabs
        seqs = [UserSequence(0, [(vx.index_of("a0"), DOMAIN_X)]),
                UserSequence(1, [(vy.index_of("b0"), DOMAIN_Y),
                                 (vy.index_of("b1"), DOMAIN_Y),
                                 (vx.index_of("a1"), DOMAIN_X)])]
        batch = make_eval_batch(seqs, vx, vy)
        assert batch.merged_idx.shape == (2, 3)
        assert batch.merged_valid[0].tolist() == [1, 0, 0]
        assert batch.merged_last.tolist() == [0, 2]
        assert batch.merged_idx[0, 1] == vx.pad_index
        # domain-x stream of user 1 holds one item; user 0's y stream is empty
        assert batch.x_last.tolist() == [0, 0]
        assert batch.y_valid[0].sum() == 0
        assert batch.y_idx[0, 0] == vy.pad_index

    def test_train_batch_targets(self, vocabs):
        vx, vy = vocabs
        seq = UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                               (vx.index_of("a1"), DOMAIN_X),
                               (vy.index_of("b2"), DOMAIN_Y)])
        exs = build_training_examples(FakeSplit([seq]))
        batch = make_train_batch(exs, vx, vy)
        # example 0: next a1 (x), other b2 (y)
        assert batch.x0_idx[0] == vx.index_of("a1")
        assert batch.wx[0] == 1.0 and batch.tx[0] == vx.index_of("a1") - vx.base - 2
        assert batch.wy[0] == 1.0 and batch.ty[0] == vy.index_of("b2") - vy.base - 2
        # example 1: next b2 (y), no later x
        assert batch.x0_idx[1] == vy.index_of("b2")
        assert batch.wx[1] == 0.0 and batch.wy[1] == 1.0

    def test_augmented_rows(self, vocabs):
        vx, vy = vocabs
        seq = UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                               (vx.index_of("a1"), DOMAIN_X),
                               (vx.index_of("a2"), DOMAIN_X)])
        exs = build_training_examples(FakeSplit([seq]))
        aug = [[(vx.index_of("a3"), DOMAIN_X)], [(vx.index_of("a4"), DOMAIN_X),
                                                 (vx.index_of("a0"), DOMAIN_X)]]
        batch = make_train_batch(exs, vx, vy, augmented=aug)
        assert batch.aug_idx.shape == (2, 2)
        assert batch.aug_last.tolist() == [0, 1]
        assert batch.aug_valid[0].tolist() == [1, 0]

    def test_empty_batch_rejected(self, vocabs):
        vx, vy = vocabs
        with pytest.raises(ValueError, match="empty"):
            make_eval_batch([], vx, vy)
        with pytest.raises(ValueError, match="empty"):
            make_train_batch([], vx, vy)

    def test_reserved_target_rejected(self, vocabs):
        vx, vy = vocabs
        from crossdiff.network import TrainingExample
        bad = TrainingExample(0, ((vx.index_of("a0"), DOMAIN_X),),
                              (vx.pad_index, DOMAIN_X), None)
        with pytest.raises(ValueError, match="real item"):
            make_train_batch([bad], vx, vy)


class TestMasksAndEmbedding:
    def test_causal_mask_structure(self):
        valid = np.array([[1.0, 1.0, 0.0]])
        m = causal_mask(valid)
        assert m.shape == (1, 1, 3, 3)
        expect = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 0]], dtype=float)
        assert np.array_equal(m[0, 0], expect)

    def test_embed_matches_tables(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=5)
        idx = np.array([[2, vx.size + 3, 4]])
        h = embed_sequence(params, cfg, idx)
        table = np.concatenate([params["emb_x"].data, params["emb_y"].data])
        expect = table[idx[0]] + params["pos"].data[:3]
        assert np.allclose(h.data[0], expect, atol=0, rtol=0)

    def test_embed_length_guard(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size, max_seq_len=4)
        params = init_parameters(cfg)
        with pytest.raises(ValueError, match="max_seq_len"):
            embed_sequence(params, cfg, np.full((1, 5), 2))

    def test_causal_future_blind(self, vocabs):
        # within one padded batch, a prefix row and the full row agree bitwise
        # on every position the prefix covers
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size, enc_layers=2)
        params = init_parameters(cfg, rng_seed=2)
        full = [2, 3, 4, vx.size + 2, 5]
        k = 3
        idx = np.array([full, full[:k] + [vx.pad_index] * (len(full) - k)])
        valid = np.array([[1.0] * 5, [1.0] * k + [0.0] * (5 - k)])
        h = embed_sequence(params, cfg, idx)
        out = encode_domain(params, cfg, "enc_c", h, valid)
        assert np.array_equal(out.data[0, :k], out.data[1, :k])

    def test_pool_last_picks_row(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(3, 4, 5)))
        last = np.array([0, 3, 2])
        out = pool_last(h, last)
        assert np.array_equal(out.data, h.data[np.arange(3), last])

    def test_fuse_identity_reinterleaves(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg)   # fuse.w starts as identity
        gx = Tensor(np.arange(2 * 3 * cfg.d, dtype=float).reshape(2, 3, cfg.d))
        gy = Tensor(-np.arange(2 * 2 * cfg.d, dtype=float).reshape(2, 2, cfg.d))
        inter = np.array([[0, 3, 1, 2], [3, 0, 4, 1]])
        fused = fuse_guidance(params, gx, gy, inter)
        cat = np.concatenate([gx.data, gy.data], axis=1)
        for b in range(2):
            assert np.array_equal(fused.data[b], cat[b, inter[b]])


class TestForward:
    def make_batch(self, vx, vy, with_aug=False):
        seqs = [UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                                 (vy.index_of("b0"), DOMAIN_Y),
                                 (vx.index_of("a1"), DOMAIN_X),
                                 (vx.index_of("a2"), DOMAIN_X)]),
                UserSequence(1, [(vy.index_of("b1"), DOMAIN_Y),
                                 (vx.index_of("a3"), DOMAIN_X),
                                 (vy.index_of("b2"), DOMAIN_Y)])]
        exs = build_training_examples(FakeSplit(seqs))
        aug = [list(e.items) for e in exs] if with_aug else None
        return make_train_batch(exs, vx, vy, augmented=aug)

    def test_guide_shapes_per_variant(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=1)
        batch = self.make_batch(vx, vy)
        B, Lc = batch.merged_idx.shape
        for name, variant in VARIANTS.items():
            gb = guidance_forward(params, cfg, batch, variant)
            if variant.use_guidance:
                assert gb.guide.data.shape == (B, Lc, cfg.d), name
                assert np.array_equal(gb.guide_valid, batch.merged_valid)
            elif variant.use_de:
                assert gb.guide.data.shape == (B, 1, cfg.d), name
                assert gb.guide_valid.shape == (B, 1)
            else:
                assert gb.guide.data.shape == (B, Lc, cfg.d), name
            assert (gb.gx_hat is not None) == variant.use_de, name
            assert (gb.gd_hat is not None) == variant.use_de, name
            assert np.all(np.isfinite(gb.guide.data)), name

    def test_empty_domain_stream_is_finite(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=1)
        seqs = [UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                                 (vx.index_of("a1"), DOMAIN_X)])]
        batch = make_eval_batch(seqs, vx, vy)
        gb = guidance_forward(params, cfg, batch, VARIANTS["full"])
        assert np.all(np.isfinite(gb.guide.data))
        assert np.all(np.isfinite(gb.gy_hat.data))

    def test_training_forward_paths(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=1)
        sched = build_schedule(cfg.T)
        batch = self.make_batch(vx, vy, with_aug=True)
        B = batch.size
        rng = np.random.default_rng(0)
        t = rng.integers(1, cfg.T + 1, size=B)
        eps = rng.normal(size=(B, cfg.d))

        warm = training_forward(params, cfg, batch, VARIANTS["full"], sched,
                                None, None, warmup=True)
        assert warm.x0 is None and warm.x0_hat is None and warm.h_aug is None
        assert warm.guidance.gd_hat is not None

        out = training_forward(params, cfg, batch, VARIANTS["full"], sched, t, eps)
        assert out.x0_hat.data.shape == (B, cfg.d)
        assert out.h_aug.data.shape == (B, cfg.d)
        table = np.concatenate([params["emb_x"].data, params["emb_y"].data])
        assert np.array_equal(out.x0.data, table[batch.x0_idx])

        plain = training_forward(params, cfg, batch, VARIANTS["diff_de_g"], sched, t, eps)
        assert plain.h_aug is None

        with pytest.raises(ValueError, match="requires sampled"):
            training_forward(params, cfg, batch, VARIANTS["full"], sched, None, None)

    def test_forward_deterministic(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=1)
        sched = build_schedule(cfg.T)
        batch = self.make_batch(vx, vy)
        t = np.full(batch.size, 2)
        eps = np.random.default_rng(3).normal(size=(batch.size, cfg.d))
        a = training_forward(params, cfg, batch, VARIANTS["full"], sched, t, eps)
        b = training_forward(params, cfg, batch, VARIANTS["full"], sched, t, eps)
        assert np.array_equal(a.x0_hat.data, b.x0_hat.data)

    def test_denoise_validation(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg)
        x_t = Tensor(np.zeros((2, cfg.d)))
        guide = Tensor(np.zeros((2, 3, cfg.d)))
        ok_valid = np.ones((2, 3))
        for bad_t in (0, cfg.T + 1):
            with pytest.raises(ValueError, match="timesteps"):
                denoise(params, cfg, x_t, np.array([bad_t, 1]), guide, ok_valid)
        empty = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="guidance row"):
            denoise(params, cfg, x_t, np.array([1, 1]), guide, empty)

    def test_guidance_differs_across_variants(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=1)
        sched = build_schedule(cfg.T)
        batch = self.make_batch(vx, vy)
        t = np.full(batch.size, 1)
        eps = np.zeros((batch.size, cfg.d))
        outs = {name: training_forward(params, cfg, batch, v, sched, t, eps).x0_hat.data
                for name, v in VARIANTS.items()
                if not v.use_tricl}
        assert not np.array_equal(outs["diff"], outs["diff_de_g"])
        assert not np.array_equal(outs["diff_de"], outs["diff_de_g"])
