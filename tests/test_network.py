"""Parameter plumbing, batch assembly, attention masking, variant wiring."""

import gc
import math

import numpy as np
import pytest

from crossdiff import network
from crossdiff.autograd import (Tensor, _Worker, gather_concat, gather_rows, gelu,
                                layer_norm, masked_softmax, matmul, no_grad, reshape, sum_,
                                swapaxes)
from crossdiff.data import (
    DOMAIN_X,
    DOMAIN_Y,
    PAD_OFFSET,
    UserSequence,
    Vocab,
)
from crossdiff.diffusion import build_schedule, forward_diffuse
from crossdiff.network import (
    VARIANTS,
    ModelConfig,
    VariantConfig,
    build_training_examples,
    causal_mask,
    denoise,
    domain_views,
    embed_sequence,
    encode_domain,
    fuse_guidance,
    guide_memory,
    guidance_forward,
    init_parameters,
    last_positions,
    make_eval_batch,
    make_train_batch,
    pad_batch,
    param_specs,
    pool_last,
    training_forward,
)
from crossdiff.objectives import diffusion_loss, rec_loss, total_loss, tri_view_cl_loss

from conftest import grad_fixture, make_split


def expected_param_count(cfg):
    """Closed-form parameter count: four tables, fuse.w and, per layer, 12d^2
    weights and 12d biases and norm values (attention keys have no bias)."""
    d = cfg.d
    per_layer = 12 * d * d + 12 * d
    emb = (cfg.vocab_x_size + cfg.vocab_y_size + cfg.max_seq_len + cfg.T) * d
    return emb + (3 * cfg.enc_layers + cfg.dec_layers) * per_layer + d * d


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
        for n_heads in (0, -2):
            with pytest.raises(ValueError, match="n_heads must be >= 1"):
                tiny_cfg(n_heads=n_heads).validate()
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

    def test_no_dead_parameters(self):
        # a tensor no output depends on gets only rounding noise for a gradient
        cfg, batch = grad_fixture()
        params = init_parameters(cfg, rng_seed=9)
        theta = params.to_vector()
        params.from_vector(theta + 0.1 * np.random.default_rng(5).standard_normal(theta.size))
        _full_variant_loss(params, cfg, batch).backward()
        for name, p in params.items():
            assert p.grad is not None and np.linalg.norm(p.grad) > 1e-8, name

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


def reference_assemble(seqs, vocab_x, vocab_y):
    """Batch assembly before domain_views, item by item: merged, x and y rows,
    each padded to its own widest row, their last positions, and the map of
    each merged position into the concatenated [x; y] rows."""
    def pad_rows(rows, pad_value):
        L = max(1, max(len(r) for r in rows))
        idx = np.full((len(rows), L), pad_value, dtype=np.int64)
        valid = np.zeros((len(rows), L))
        last = np.zeros(len(rows), dtype=np.int64)
        for b, r in enumerate(rows):
            if r:
                idx[b, :len(r)] = r
                valid[b, :len(r)] = 1.0
                last[b] = len(r) - 1
        return idx, valid, last

    out = {}
    out["merged"] = pad_rows([[g for g, _ in items] for items in seqs], vocab_x.pad_index)
    out["x"] = pad_rows([[g for g, d in items if d == DOMAIN_X] for items in seqs],
                        vocab_x.pad_index)
    out["y"] = pad_rows([[g for g, d in items if d == DOMAIN_Y] for items in seqs],
                        vocab_y.pad_index)
    Lx = out["x"][0].shape[1]
    inter = np.zeros(out["merged"][0].shape, dtype=np.int64)
    for b, items in enumerate(seqs):
        rx = ry = 0
        for i, (_, d) in enumerate(items):
            if d == DOMAIN_X:
                inter[b, i] = rx
                rx += 1
            else:
                inter[b, i] = Lx + ry
                ry += 1
    out["inter_map"] = inter
    return out


def reference_pad(ref, L, vocab_x, vocab_y):
    """reference_assemble's layouts right-padded to length L, with the map's
    y rows moved behind the padded x rows."""
    def pad(a, value):
        return np.pad(a, ((0, 0), (0, L - a.shape[1])), constant_values=value)

    Lx = ref["x"][0].shape[1]
    out = {name: (pad(ref[name][0], v.pad_index), pad(ref[name][1], 0.0), ref[name][2])
           for name, v in (("merged", vocab_x), ("x", vocab_x), ("y", vocab_y))}
    inter = ref["inter_map"]
    out["inter_map"] = pad(np.where(inter < Lx, inter, inter + (L - Lx)), 0)
    return out


class TestBatchAssembly:
    def view_cfg(self, vx, vy):
        return tiny_cfg(vocab_x_size=vx.size, vocab_y_size=vy.size)

    def test_interleave_map_recovers_merged(self, vocabs):
        vx, vy = vocabs
        seqs = [UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                                 (vy.index_of("b0"), DOMAIN_Y),
                                 (vx.index_of("a1"), DOMAIN_X)]),
                UserSequence(1, [(vy.index_of("b1"), DOMAIN_Y),
                                 (vy.index_of("b2"), DOMAIN_Y)])]
        batch = make_eval_batch(seqs, vx, vy)
        (x_idx, _), (y_idx, _), inter = domain_views(self.view_cfg(vx, vy),
                                                     batch.idx, batch.valid)
        cat = np.concatenate([x_idx, y_idx], axis=1)
        for b in range(batch.size):
            for i in range(batch.idx.shape[1]):
                if batch.valid[b, i]:
                    assert cat[b, inter[b, i]] == batch.idx[b, i]

    def test_pad_batch(self, vocabs):
        vx, vy = vocabs
        seqs = [UserSequence(0, [(vx.index_of("a0"), DOMAIN_X),
                                 (vy.index_of("b0"), DOMAIN_Y),
                                 (vx.index_of("a1"), DOMAIN_X)]),
                UserSequence(1, [(vy.index_of("b1"), DOMAIN_Y)])]
        cfg = self.view_cfg(vx, vy)
        batch = make_eval_batch(seqs, vx, vy)
        padded = pad_batch(batch, 6, vx.pad_index)
        assert padded.idx.shape == padded.valid.shape == (2, 6)
        assert np.array_equal(padded.idx[:, :3], batch.idx)
        assert np.array_equal(padded.valid[:, :3], batch.valid)
        assert not np.any(padded.valid[:, 3:])
        assert np.all(padded.idx[:, 3:] == vx.pad_index)
        views = domain_views(cfg, batch.idx, batch.valid)
        padded_views = domain_views(cfg, padded.idx, padded.valid)
        for (idx, valid), (p_idx, p_valid) in zip(views[:2], padded_views[:2]):
            assert p_idx.shape == p_valid.shape == (2, 6)
            assert np.array_equal(p_idx[:, :3], idx)
            assert np.array_equal(p_valid[:, :3], valid)
            assert not np.any(p_valid[:, 3:])
            assert np.array_equal(last_positions(p_valid), last_positions(valid))
        assert np.array_equal(last_positions(padded.valid), last_positions(batch.valid))
        (x_idx, _), (y_idx, _), inter = padded_views
        assert np.all(x_idx[:, 2:] == vx.pad_index)
        assert np.all(y_idx[:, 1:] == vy.pad_index)
        cat = np.concatenate([x_idx, y_idx], axis=1)
        for b in range(2):
            real = padded.valid[b] > 0
            assert np.array_equal(cat[b, inter[b, real]], padded.idx[b, real])
        assert inter.tolist() == [[0, 6, 1, 0, 0, 0], [6, 0, 0, 0, 0, 0]]

    def test_padding_and_last(self, vocabs):
        vx, vy = vocabs
        seqs = [UserSequence(0, [(vx.index_of("a0"), DOMAIN_X)]),
                UserSequence(1, [(vy.index_of("b0"), DOMAIN_Y),
                                 (vy.index_of("b1"), DOMAIN_Y),
                                 (vx.index_of("a1"), DOMAIN_X)])]
        batch = make_eval_batch(seqs, vx, vy)
        assert batch.idx.shape == (2, 3)
        assert batch.valid[0].tolist() == [1, 0, 0]
        assert last_positions(batch.valid).tolist() == [0, 2]
        assert batch.idx[0, 1] == vx.pad_index
        # domain-x view of user 1 holds one item; user 0's y view is empty
        (_, x_valid), (y_idx, y_valid), _ = domain_views(self.view_cfg(vx, vy),
                                                         batch.idx, batch.valid)
        assert last_positions(x_valid).tolist() == [0, 0]
        assert y_valid[0].sum() == 0
        assert y_idx[0, 0] == vy.pad_index

    @pytest.mark.parametrize("seed", range(4))
    def test_views_match_reference_assembly(self, vocabs, seed):
        # rows 0 and 3 have no y token, rows 1 and 4 no x token; domain masks count
        vx, vy = vocabs
        cfg = self.view_cfg(vx, vy)
        rng = np.random.default_rng(seed)
        tokens = {d: [v.mask_index] + v.real_indices().tolist()
                  for d, v in ((DOMAIN_X, vx), (DOMAIN_Y, vy))}
        seqs = []
        for b in range(6):
            p_y = (0.0, 1.0, 0.5)[b % 3]
            domains = [DOMAIN_Y if rng.random() < p_y else DOMAIN_X
                       for _ in range(rng.integers(1, cfg.max_seq_len + 1))]
            seqs.append(UserSequence(b, [(int(rng.choice(tokens[d])), d) for d in domains]))
        batch = make_eval_batch(seqs, vx, vy)
        ref = reference_assemble([s.items for s in seqs], vx, vy)
        L = batch.idx.shape[1]
        for padded in (False, True):
            if padded:
                batch = pad_batch(batch, cfg.max_seq_len, vx.pad_index)
                ref = reference_pad(ref, cfg.max_seq_len, vx, vy)
                L = cfg.max_seq_len
            assert np.array_equal(batch.idx, ref["merged"][0])
            assert np.array_equal(batch.valid, ref["merged"][1])
            assert np.array_equal(last_positions(batch.valid), ref["merged"][2])
            x_view, y_view, inter = domain_views(cfg, batch.idx, batch.valid)
            for name, (idx, valid), pad in (("x", x_view, vx.pad_index),
                                            ("y", y_view, vy.pad_index)):
                r_idx, r_valid, r_last = ref[name]
                w = r_idx.shape[1]
                assert idx.shape == valid.shape == (len(seqs), L), (name, padded)
                assert np.array_equal(idx[:, :w], r_idx), (name, padded)
                assert np.array_equal(valid[:, :w], r_valid), (name, padded)
                assert np.all(idx[:, w:] == pad) and not np.any(valid[:, w:]), (name, padded)
                assert np.array_equal(last_positions(valid), r_last), (name, padded)
            # the views keep width L, so y rows start at L, not at the widest x row
            Lx = ref["x"][0].shape[1]
            r_inter = np.where(ref["inter_map"] < Lx, ref["inter_map"],
                               ref["inter_map"] - Lx + L) * (batch.valid > 0)
            assert np.array_equal(inter, r_inter), padded

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
        assert last_positions(batch.aug_valid).tolist() == [0, 1]
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
        B, Lc = batch.idx.shape
        for name, variant in VARIANTS.items():
            gb = guidance_forward(params, cfg, batch, variant)
            if variant.use_guidance:
                assert gb.guide.data.shape == (B, Lc, cfg.d), name
                assert np.array_equal(gb.guide_valid, batch.valid)
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

        warm = training_forward(params, cfg, batch, VARIANTS["full"], sched, None, None)
        assert warm.x0 is None and warm.x0_hat is None and warm.h_aug is None
        assert warm.guidance.gd_hat is not None

        out = training_forward(params, cfg, batch, VARIANTS["full"], sched, t, eps)
        assert out.x0_hat.data.shape == (B, cfg.d)
        assert out.h_aug.data.shape == (B, cfg.d)
        table = np.concatenate([params["emb_x"].data, params["emb_y"].data])
        assert np.array_equal(out.x0.data, table[batch.x0_idx])

        plain = training_forward(params, cfg, batch, VARIANTS["diff_de_g"], sched, t, eps)
        assert plain.h_aug is None

        for half in ((t, None), (None, eps)):
            with pytest.raises(ValueError, match="both timesteps and noise"):
                training_forward(params, cfg, batch, VARIANTS["full"], sched, *half)

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
                denoise(params, cfg, x_t, np.array([bad_t, 1]),
                        guide_memory(params, cfg, guide, ok_valid))
        empty = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="guidance row"):
            denoise(params, cfg, x_t, np.array([1, 1]),
                    guide_memory(params, cfg, guide, empty))

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


def reference_denoise(params, cfg, x_t, t, guide, guide_valid):
    """The denoiser without the guide memory or the single-key shortcut: the
    token runs q, k, scores and a softmax over itself, and every call
    projects the guide into keys and values again."""
    H, dh = cfg.n_heads, cfg.d // cfg.n_heads

    def proj(prefix, which, x):
        out = matmul(x, params["%s.attn.w%s" % (prefix, which)])
        return out if which == "k" else out + params["%s.attn.b%s" % (prefix, which)]

    def heads(x, B, L):
        return swapaxes(reshape(x, (B, L, H, dh)), 1, 2)

    def block(prefix, h, mask, guide=None):
        a = layer_norm(h, params[prefix + ".ln1.g"], params[prefix + ".ln1.b"])
        kv_in = a if guide is None else guide
        B, Lq, Lk = a.data.shape[0], a.data.shape[1], kv_in.data.shape[1]
        q = heads(proj(prefix, "q", a), B, Lq)
        k = heads(proj(prefix, "k", kv_in), B, Lk)
        v = heads(proj(prefix, "v", kv_in), B, Lk)
        probs = masked_softmax(matmul(q, swapaxes(k, -1, -2)) * (1.0 / math.sqrt(dh)), mask)
        h = h + proj(prefix, "o", reshape(swapaxes(matmul(probs, v), 1, 2), (B, Lq, cfg.d)))
        m = layer_norm(h, params[prefix + ".ln2.g"], params[prefix + ".ln2.b"])
        mlp = gelu(matmul(m, params[prefix + ".mlp.w1"]) + params[prefix + ".mlp.b1"])
        return h + (matmul(mlp, params[prefix + ".mlp.w2"]) + params[prefix + ".mlp.b2"])

    B = x_t.data.shape[0]
    tok = reshape(x_t + gather_rows(params["step_emb"], t - 1), (B, 1, cfg.d))
    for i in range(cfg.enc_layers):
        tok = block("enc_c.%d" % i, tok, np.ones((B, 1, 1, 1)))
    for i in range(cfg.dec_layers):
        tok = block("dec.%d" % i, tok, guide_valid[:, None, None, :], guide)
    return reshape(tok, (B, cfg.d))


class TestReverseChainShortcuts:
    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_single_key_attention_is_exact(self, vocabs, B, n_heads):
        # a softmax over one key is exactly 1, so o(v(x)) is the attention
        vx, vy = vocabs
        cfg = tiny_cfg(d=32, n_heads=n_heads, vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=4)
        tok = Tensor(np.random.default_rng(B).normal(size=(B, cfg.d)))
        prefix = "enc_c.0"

        def softmax_context(a):
            q, k, v = (network._heads(network._proj(params, prefix, w, a), B, 1, cfg)
                       for w in "qkv")
            return network._attend(q, k, v, np.ones((B, 1, 1, 1)), cfg)

        one_key = network._block(params, prefix, tok,
                                 lambda a: network._proj(params, prefix, "v", a))
        softmax = network._block(params, prefix, tok, softmax_context)
        assert np.array_equal(one_key.data, softmax.data)

    def test_denoise_matches_reference(self, vocabs):
        vx, vy = vocabs
        cfg = tiny_cfg(d=16, n_heads=2, enc_layers=2, dec_layers=2,
                       vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=6)
        rng = np.random.default_rng(6)
        x_t = Tensor(rng.normal(size=(5, cfg.d)))
        t = np.array([1, 2, 3, 4, 4])
        guide = Tensor(rng.normal(size=(5, 3, cfg.d)))
        valid = np.array([[1.0, 1, 1], [1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 1]])
        got = denoise(params, cfg, x_t, t, guide_memory(params, cfg, guide, valid))
        want = reference_denoise(params, cfg, x_t, t, guide, valid)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_denoise_matches_reference_per_shape(self, vocabs, B, n_heads):
        # the reference runs enc_c's token as a softmax over itself, so this
        # pins that a one-key softmax is exactly 1, bit for bit
        vx, vy = vocabs
        cfg = tiny_cfg(d=16, n_heads=n_heads, enc_layers=2, dec_layers=2,
                       vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=6)
        rng = np.random.default_rng(6 + B)
        x_t = Tensor(rng.normal(size=(B, cfg.d)))
        t = rng.integers(1, cfg.T + 1, size=B)
        guide = Tensor(rng.normal(size=(B, 3, cfg.d)))
        valid = np.array([[1.0, 1, 1], [1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 1],
                          [0, 1, 0], [0, 1, 1]])[:B]
        got = denoise(params, cfg, x_t, t, guide_memory(params, cfg, guide, valid))
        want = reference_denoise(params, cfg, x_t, t, guide, valid)
        assert np.array_equal(got.data, want.data)

    def test_training_grads_match_reference(self):
        # the dropped q/k path of the token only ever added exact zeros
        cfg, batch = grad_fixture()
        variant = VARIANTS["full"]
        sched = build_schedule(cfg.T)
        t = np.array([1, 2, 3, 5], dtype=np.int64)
        eps = np.random.default_rng(123).standard_normal((4, cfg.d))

        def loss_and_grads(forward):
            params = init_parameters(cfg, rng_seed=9)
            x0, x0_hat, gb, h_aug = forward(params)
            l_rec = rec_loss(x0_hat, gb.gx_hat, gb.gy_hat, batch.tx, batch.wx,
                             batch.ty, batch.wy, params["emb_x"], params["emb_y"])
            loss = total_loss(diffusion_loss(x0, x0_hat), l_rec,
                              tri_view_cl_loss(x0_hat, gb.gd_hat, h_aug))[0]
            loss.backward()
            return loss.data, {n: (p.grad if p.grad is not None else np.zeros_like(p.data))
                               for n, p in params.items()}

        def current(params):
            b = training_forward(params, cfg, batch, variant, sched, t, eps)
            return b.x0, b.x0_hat, b.guidance, b.h_aug

        def reference(params):
            gb = guidance_forward(params, cfg, batch, variant)
            x0 = gather_concat(params["emb_x"], params["emb_y"], batch.x0_idx)
            x_t = forward_diffuse(x0, t, eps, sched)
            x0_hat = reference_denoise(params, cfg, x_t, t, gb.guide, gb.guide_valid)
            h = embed_sequence(params, cfg, batch.aug_idx)
            h_aug = encode_domain(params, cfg, "enc_c", h, batch.aug_valid,
                                 last=last_positions(batch.aug_valid))
            return x0, x0_hat, gb, h_aug

        loss, grads = loss_and_grads(current)
        ref_loss, ref_grads = loss_and_grads(reference)
        assert loss == ref_loss
        assert list(grads) == list(ref_grads)
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


def reference_guidance(params, cfg, batch, variant):
    """The guidance forward that runs every row of both domain encoders and
    fuses them whatever the variant reads: (guide, guide_valid, gx_hat,
    gy_hat, gd_hat)."""
    gx_hat = gy_hat = gd_hat = fused = None
    if variant.use_de:
        (x_idx, x_valid), (y_idx, y_valid), inter_map = domain_views(cfg, batch.idx,
                                                                     batch.valid)
        gx_rows = encode_domain(params, cfg, "enc_x", embed_sequence(params, cfg, x_idx),
                                x_valid)
        gy_rows = encode_domain(params, cfg, "enc_y", embed_sequence(params, cfg, y_idx),
                                y_valid)
        fused = fuse_guidance(params, gx_rows, gy_rows, inter_map)
        gx_hat = pool_last(gx_rows, last_positions(x_valid))
        gy_hat = pool_last(gy_rows, last_positions(y_valid))
        gd_hat = pool_last(fused, last_positions(batch.valid))
    h = embed_sequence(params, cfg, batch.idx)
    if variant.use_guidance:
        guide, guide_valid = fused, batch.valid
    elif variant.use_de:
        pooled = encode_domain(params, cfg, "enc_c", h, batch.valid,
                               last=last_positions(batch.valid))
        guide = reshape(pooled, (batch.size, 1, cfg.d))
        guide_valid = np.ones((batch.size, 1))
    else:
        guide, guide_valid = encode_domain(params, cfg, "enc_c", h, batch.valid), batch.valid
    return guide, guide_valid, gx_hat, gy_hat, gd_hat


class TestTrimmedGuidance:
    """Warm-up and the unguided variants encode only each sequence's last row
    in the domain encoders; every value they read keeps its bits."""

    @staticmethod
    def case(vocabs, B):
        # the first sequence holds no domain-y token; the others end in
        # domain y's only token, in y alone, in y after y, in x after y, and
        # so on, at lengths 1 to 6
        vx, vy = vocabs
        cfg = tiny_cfg(d=16, n_heads=2, enc_layers=2, dec_layers=1,
                       vocab_x_size=vx.size, vocab_y_size=vy.size)
        params = init_parameters(cfg, rng_seed=8)
        theta = params.to_vector()
        params.from_vector(theta + 0.1 * np.random.default_rng(8).standard_normal(theta.size))
        rows = ["a1 a3", "a0 b2", "b1", "a2 b0 b3", "b2 a4 a0", "a3 b1 a1 b0 a2 b3", "a0"]
        seqs = [UserSequence(u, [(vx.index_of(s), DOMAIN_X) if s[0] == "a"
                                 else (vy.index_of(s), DOMAIN_Y) for s in row.split()])
                for u, row in enumerate(rows[:B])]
        return cfg, params, make_eval_batch(seqs, vx, vy)

    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_pooled_rows_and_guide_match_full_rows(self, vocabs, B, name):
        cfg, params, batch = self.case(vocabs, B)
        variant = VARIANTS[name]
        want = reference_guidance(params, cfg, batch, variant)
        for guide in (True, False):
            gb = guidance_forward(params, cfg, batch, variant, guide=guide)
            got = (gb.guide, gb.guide_valid, gb.gx_hat, gb.gy_hat, gb.gd_hat)
            expect = want if guide else (None, None) + want[2:]
            for field, g, w in zip(("guide", "guide_valid", "gx_hat", "gy_hat", "gd_hat"),
                                   got, expect):
                if w is None:
                    assert g is None, (guide, field)
                else:
                    assert np.array_equal(getattr(g, "data", g), getattr(w, "data", w)), \
                        (guide, field)

    @pytest.mark.parametrize("name", [n for n, v in VARIANTS.items() if v.use_de])
    def test_warmup_builds_no_guide(self, vocabs, name):
        cfg, params, batch = self.case(vocabs, 7)
        warm = training_forward(params, cfg, batch, VARIANTS[name], build_schedule(cfg.T),
                                None, None)
        gb = warm.guidance
        assert gb.guide is None and gb.guide_valid is None
        assert all(h.data.shape == (batch.size, cfg.d)
                   for h in (gb.gx_hat, gb.gy_hat, gb.gd_hat))


def reference_encode_domain(params, cfg, bank, h, valid):
    """encode_domain before packing: every block runs on the whole padded
    (B, L, d) layout, padded rows included."""
    B, L = valid.shape
    H, dh = cfg.n_heads, cfg.d // cfg.n_heads
    mask = causal_mask(valid)

    def proj(prefix, which, x):
        return matmul(x, params["%s.attn.w%s" % (prefix, which)],
                      None if which == "k" else params["%s.attn.b%s" % (prefix, which)])

    for i in range(cfg.enc_layers):
        prefix = "%s.%d" % (bank, i)
        a = layer_norm(h, params[prefix + ".ln1.g"], params[prefix + ".ln1.b"])
        q, k, v = (swapaxes(reshape(proj(prefix, w, a), (B, L, H, dh)), 1, 2) for w in "qkv")
        probs = masked_softmax(matmul(q, swapaxes(k, -1, -2)) * (1.0 / math.sqrt(dh)), mask)
        h = h + proj(prefix, "o", reshape(swapaxes(matmul(probs, v), 1, 2), (B, L, cfg.d)))
        m = layer_norm(h, params[prefix + ".ln2.g"], params[prefix + ".ln2.b"])
        u = gelu(matmul(m, params[prefix + ".mlp.w1"], params[prefix + ".mlp.b1"]))
        h = h + matmul(u, params[prefix + ".mlp.w2"], params[prefix + ".mlp.b2"])
    return h


# (B, L, lengths): per-sequence real lengths, 0 for an empty domain sequence
PADDING_PATTERNS = [
    (1, 1, [1]),
    (1, 1, [0]),
    (1, 6, [4]),
    (4, 1, [1, 0, 1, 1]),
    (5, 7, [7, 0, 3, 1, 5]),
    (9, 12, "random"),
]


def _packed_case(d, n_layers, B, L, lengths, seed):
    """Perturbed parameters (non-zero biases, non-unit gains), random token
    rows for every position and the valid mask of `lengths`."""
    cfg = tiny_cfg(d=d, n_heads=2, enc_layers=n_layers, max_seq_len=12)
    params = init_parameters(cfg, rng_seed=seed)
    rng = np.random.default_rng(seed)
    params.from_vector(params.to_vector() + 0.1 * rng.standard_normal(params.n_params))
    if lengths == "random":
        lengths = rng.integers(0, L + 1, size=B)
        lengths[0] = 0
    valid = (np.arange(L)[None, :] < np.asarray(lengths)[:, None]).astype(float)
    h = Tensor(rng.standard_normal((B, L, d)))
    last = np.maximum(valid.sum(axis=1).astype(np.int64) - 1, 0)
    return cfg, params, h, valid, last


class TestPackedEncoder:
    @pytest.mark.parametrize("d", [8, 64])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("pattern", range(len(PADDING_PATTERNS)))
    def test_rows_match_padded_reference(self, d, n_layers, pattern):
        """Every real row, and row 0 of an empty sequence, has the padded
        encoder's bits; the other rows are zeros."""
        cfg, params, h, valid, _ = _packed_case(d, n_layers, *PADDING_PATTERNS[pattern],
                                                seed=pattern)
        got = encode_domain(params, cfg, "enc_y", h, valid).data
        want = reference_encode_domain(params, cfg, "enc_y", h, valid).data
        kept = valid > 0
        kept[:, 0] |= ~kept.any(axis=1)
        assert got[kept].tobytes() == want[kept].tobytes()
        assert not np.any(got[~kept])

    @pytest.mark.parametrize("d", [8, 64])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("pattern", range(len(PADDING_PATTERNS)))
    def test_last_matches_pool_last(self, d, n_layers, pattern):
        cfg, params, h, valid, last = _packed_case(d, n_layers, *PADDING_PATTERNS[pattern],
                                                   seed=pattern)
        full = encode_domain(params, cfg, "enc_c", h, valid)
        pooled = encode_domain(params, cfg, "enc_c", h, valid, last=last)
        assert pooled.data.shape == (h.data.shape[0], d)
        assert pooled.data.tobytes() == pool_last(full, last).data.tobytes()

    def test_last_must_be_a_computed_row(self):
        cfg, params, h, valid, last = _packed_case(8, 1, *PADDING_PATTERNS[4], seed=4)
        # past an empty and a 3-token sequence; one past the end, which would
        # land on the next sequence's row 0; and before the start, which would
        # land on the previous sequence's last row
        for b, pos in ((1, 1), (2, 3), (0, 7), (1, -1)):
            bad = last.copy()
            bad[b] = pos
            with pytest.raises(ValueError, match="last"):
                encode_domain(params, cfg, "enc_c", h, valid, last=bad)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_gradients_with_an_empty_sequence(self, pooled):
        """Finite differences, at test_02's tolerance, over the token rows
        and every parameter of a two-layer bank, on a batch that holds an
        empty sequence."""
        cfg, params, h, valid, last = _packed_case(4, 2, 3, 3, [2, 0, 3], seed=11)
        last = last if pooled else None
        leaves = [h] + [params[n] for n in params.names() if n.startswith("enc_x.")]
        h.requires_grad = True
        out = encode_domain(params, cfg, "enc_x", h, valid, last=last)
        w = np.random.default_rng(12).standard_normal(out.data.shape)
        sum_(out * w).backward()

        def f():
            with no_grad():
                return float(np.sum(encode_domain(params, cfg, "enc_x", h, valid,
                                                  last=last).data * w))

        step = 1e-6
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape
            flat = leaf.data.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = f()
                flat[j] = orig - step
                dn = f()
                flat[j] = orig
                fd = (up - dn) / (2 * step)
                an = leaf.grad.reshape(-1)[j]
                assert abs(an - fd) / max(1.0, abs(an), abs(fd)) <= 1e-4, (j, an, fd)


def _full_variant_loss(params, cfg, batch, seed=123):
    """Sum of the three objectives for one main-stage batch of the full variant."""
    rng = np.random.default_rng(seed)
    t = rng.integers(1, cfg.T + 1, size=batch.size)
    eps = rng.standard_normal((batch.size, cfg.d))
    b = training_forward(params, cfg, batch, VARIANTS["full"], build_schedule(cfg.T), t, eps)
    gb = b.guidance
    l_rec = rec_loss(b.x0_hat, gb.gx_hat, gb.gy_hat, batch.tx, batch.wx, batch.ty, batch.wy,
                     params["emb_x"], params["emb_y"])
    return total_loss(diffusion_loss(b.x0, b.x0_hat), l_rec,
                      tri_view_cl_loss(b.x0_hat, gb.gd_hat, b.h_aug))[0]


def _bench_shaped():
    """A 128-example batch at the benchmark's width (d=32, 2 heads), where
    BLAS may take other kernels than at grad_fixture's size."""
    split, _ = make_split(n_users=40)
    examples = build_training_examples(split)[:128]
    assert len(examples) == 128
    cfg = ModelConfig(d=32, n_heads=2, enc_layers=1, dec_layers=1, max_seq_len=15, T=20,
                      vocab_x_size=split.vocab_x.size, vocab_y_size=split.vocab_y.size)
    aug = [ex.items[::-1] for ex in examples]
    return cfg, make_train_batch(examples, split.vocab_x, split.vocab_y, augmented=aug)


def _backward_keeping_grads(self):
    """Tensor.backward as it was before interior gradients were released."""
    topo, seen, stack = [], set(), [(self, False)]
    while stack:
        node, expanded = stack.pop()
        if not node.requires_grad:
            continue
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._parents:
            stack.append((p, False))
    self._accumulate(np.ones_like(self.data))
    worker = _Worker()
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad, worker)


def _graph_nodes(root):
    """Every tensor of root's graph that needs a gradient."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(p for p, _ in node._parents)
    return nodes


class TestGradientHandOver:
    @pytest.mark.parametrize("shape", ["grad_fixture", "bench"])
    def test_interior_grads_released(self, shape, monkeypatch):
        """Backward drops each interior gradient once it is handed over, and
        the leaves get the bits that keeping every gradient gives."""
        cfg, batch = grad_fixture() if shape == "grad_fixture" else _bench_shaped()

        def run():
            params = init_parameters(cfg, rng_seed=9)
            loss = _full_variant_loss(params, cfg, batch)
            nodes = _graph_nodes(loss)
            loss.backward()
            interior = [n for n in nodes if n._backward is not None]
            return {n: p.grad for n, p in params.items()}, interior

        got, interior = run()
        assert len(interior) > 200
        assert all(n.grad is None for n in interior)
        with monkeypatch.context() as m:
            m.setattr(Tensor, "backward", _backward_keeping_grads)
            want, kept = run()
        assert all(n.grad is not None for n in kept)
        assert list(got) == list(want)
        for name in got:
            assert (got[name] is None) == (want[name] is None), name
            if got[name] is not None:
                assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("shape", ["grad_fixture", "bench"])
    def test_grads_match_zero_filled_accumulation(self, shape, monkeypatch):
        """Keeping the first gradient as given stores the bytes that staging
        it in a zero-filled array and adding in place would."""
        cfg, batch = grad_fixture() if shape == "grad_fixture" else _bench_shaped()

        def grads():
            params = init_parameters(cfg, rng_seed=9)
            _full_variant_loss(params, cfg, batch).backward()
            return {n: p.grad for n, p in params.items()}

        def zero_filled(self, g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad += g

        got = grads()
        with monkeypatch.context() as m:
            m.setattr(Tensor, "_accumulate", zero_filled)
            want = grads()
        assert list(got) == list(want)
        for name in got:
            assert got[name].shape == want[name].shape, name
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_dropped_training_graph_leaves_no_cycle(self):
        """Reference counting alone frees a whole training graph."""
        cfg, batch = grad_fixture()
        params = init_parameters(cfg, rng_seed=9)
        gc.collect()
        gc.disable()
        try:
            _full_variant_loss(params, cfg, batch).backward()
            params.zero_grads()
            assert gc.collect() == 0
        finally:
            gc.enable()
