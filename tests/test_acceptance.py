"""Whole-system acceptance checks, one numbered test per requirement.

Each test is self-contained: it builds what it needs, checks the numbered
property at its stated tolerance, and enforces its own runtime budget.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from crossdiff.autograd import Tensor, no_grad
from crossdiff.cli import main as cli_main
from crossdiff.data import (DOMAIN_X, SyntheticConfig, UserSequence,
                            filter_and_split, filter_and_split_with_stats,
                            generate_synthetic, ingest_log, load_split)
from crossdiff.diffusion import build_schedule, forward_diffuse, reverse_step
from crossdiff.evaluation import (ablation_study, auto_negatives,
                                  compute_metrics, evaluate, noise_robustness,
                                  overall_ndcg, rank_of_positive, sample_batch,
                                  score_items, step_sweep)
from crossdiff.network import (VARIANTS, ModelConfig, build_training_examples,
                               guidance_forward, init_parameters,
                               make_eval_batch, training_forward)
from crossdiff.objectives import (diffusion_loss, rec_loss, total_loss,
                                  tri_view_cl_loss)
from crossdiff.trainer import TrainConfig, fit, init_state, load_checkpoint, save_checkpoint

from conftest import grad_fixture


# ---------------------------------------------------------------------------
# shared benchmark: 200 users with cross-domain predictive structure

BENCH_T = 20


def bench_model_cfg(split, d=32):
    return ModelConfig(d=d, n_heads=2, enc_layers=1, dec_layers=1,
                       max_seq_len=15, T=BENCH_T,
                       vocab_x_size=split.vocab_x.size,
                       vocab_y_size=split.vocab_y.size)


def bench_train_cfg(**kw):
    base = dict(lr=1e-3, batch_size=128, epochs=30, warmup_epochs=2,
                grad_clip=5.0, aug_rate=0.2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def bench_split():
    events, _ = generate_synthetic(SyntheticConfig(n_users=200, noise_rate=0.2,
                                                   rng_seed=11))
    return filter_and_split(events)


@pytest.fixture(scope="session")
def bench_model(bench_split):
    """One trained full-variant model reused by the harness checks."""
    split = bench_split
    mcfg = bench_model_cfg(split)
    sched = build_schedule(BENCH_T)
    state = init_state(mcfg, bench_train_cfg(), sched, variant="full")
    fit(state, split, eval_every=0)
    return state


# ---------------------------------------------------------------------------
# 1. diffusion math

def test_01_diffusion_math():
    """Schedule shape, forward moments, exact posterior, final-step determinism."""
    t0 = time.monotonic()
    sched = build_schedule(50)
    prev = 1.0
    for t in range(1, 51):
        ab = sched.alpha_bar(t)
        assert 0.0 < ab < 1.0
        assert ab < prev
        prev = ab

    rng = np.random.default_rng(42)
    x0_row = np.array([1.5, -0.7, 0.0, 2.0])
    n = 100_000
    for t in (1, 10, 50):
        ab = sched.alpha_bar(t)
        eps = rng.standard_normal((n, 4))
        x_t = forward_diffuse(np.tile(x0_row, (n, 1)), t, eps, sched)
        want_mean = np.sqrt(ab) * x0_row
        got_mean = x_t.mean(axis=0)
        assert np.all(np.abs(got_mean - want_mean)
                      <= 0.05 * np.maximum(1.0, np.abs(want_mean)))
        got_var = x_t.var(axis=0).mean()
        assert abs(got_var / (1.0 - ab) - 1.0) <= 0.05

    # scalar Bayes oracle for q(x_s | x_t, x0), any s < t
    for t, s in ((50, 49), (30, 29), (30, 10), (7, 0), (1, 0)):
        ab_t, ab_s = sched.alpha_bar(t), sched.alpha_bar(s)
        a = ab_t / ab_s
        x_t, x0h = 0.83, -0.41
        mean = (np.sqrt(ab_s) * (1 - a) * x0h + np.sqrt(a) * (1 - ab_s) * x_t) \
            / (1 - ab_t)
        var = (1 - a) * (1 - ab_s) / (1 - ab_t)
        mu = reverse_step(np.array([x_t]), t, np.array([x0h]), sched, np.zeros(1),
                          t_prev=s)
        assert abs(mu[0] - (x0h if s == 0 else mean)) < 1e-10
        if s > 0:
            stepped = reverse_step(np.array([x_t]), t, np.array([x0h]), sched,
                                   np.ones(1), t_prev=s)
            assert abs((stepped[0] - mu[0]) - np.sqrt(var)) < 1e-10

    # the t=1 transition ignores its noise argument entirely
    x_t = np.array([0.3, -1.2])
    x0h = np.array([0.9, 0.1])
    out_a = reverse_step(x_t, 1, x0h, sched, np.full(2, 5.0), t_prev=0)
    out_b = reverse_step(x_t, 1, x0h, sched, np.full(2, -5.0), t_prev=0)
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(out_a, x0h)

    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. analytic gradients vs central finite differences, every parameter

def test_02_gradient_correctness():
    """Backward pass of the combined loss agrees with finite differences."""
    t0 = time.monotonic()
    cfg, batch = grad_fixture()
    variant = VARIANTS["full"]
    sched = build_schedule(cfg.T)
    t_arr = np.array([1, 2, 3, 5], dtype=np.int64)
    eps = np.random.default_rng(123).standard_normal((4, cfg.d))
    params = init_parameters(cfg, rng_seed=9)

    def loss_at(pset):
        bundle = training_forward(pset, cfg, batch, variant, sched, t_arr, eps)
        gb = bundle.guidance
        l_diff = diffusion_loss(bundle.x0, bundle.x0_hat)
        l_rec = rec_loss(bundle.x0_hat, gb.gx_hat, gb.gy_hat, batch.tx,
                         batch.wx, batch.ty, batch.wy,
                         pset["emb_x"], pset["emb_y"])
        l_cl = tri_view_cl_loss(bundle.x0_hat, gb.gd_hat, bundle.h_aug)
        return total_loss(l_diff, l_rec, l_cl)[0]

    params.zero_grads()
    loss_at(params).backward()
    analytic = np.concatenate([
        (t.grad if t.grad is not None else np.zeros_like(t.data)).ravel()
        for t in params.values()])

    theta = params.to_vector()
    h = 1e-6
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        v = theta.copy()
        v[i] += h
        params.from_vector(v)
        up = float(loss_at(params).data)
        v[i] -= 2 * h
        params.from_vector(v)
        dn = float(loss_at(params).data)
        fd[i] = (up - dn) / (2 * h)

    err = np.abs(analytic - fd) / np.maximum(1.0, np.maximum(np.abs(analytic),
                                                             np.abs(fd)))
    assert err.max() <= 1e-4, "worst relative gradient error %.3e" % err.max()
    assert theta.size > 1000   # the check really did cover every parameter
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. loss oracles

def _oracle_diffusion(x0, x0_hat):
    return float(np.mean([np.sum((x0[b] - x0_hat[b]) ** 2)
                          for b in range(x0.shape[0])]))


def _oracle_rec(x0_hat, gx, gy, tx, wx, ty, wy, ex, ey):
    B = (x0_hat if x0_hat is not None else gx).shape[0]
    total = 0.0
    for dom_heads, emb, tg, w in (((x0_hat, gx), ex, tx, wx),
                                  ((x0_hat, gy), ey, ty, wy)):
        real = emb[2:]
        for h in dom_heads:
            if h is None:
                continue
            for b in range(B):
                if w[b] == 0.0:
                    continue
                logits = real @ h[b]
                total += w[b] * (logsumexp(logits) - logits[tg[b]])
    return total / B


def _oracle_tricl(h_c, h_d, h_aug):
    B = h_c.shape[0]
    views = np.concatenate([h_c, h_d, h_aug], axis=0)
    views = views / np.maximum(np.linalg.norm(views, axis=1, keepdims=True),
                               1e-12)
    total = 0.0
    for v in range(3):
        for w in range(3):
            if v == w:
                continue
            for u in range(B):
                s_ap = views[v * B + u] @ views[w * B + u]
                negs = [views[k * B + j] @ views[v * B + u]
                        for k in range(3) for j in range(B) if j != u]
                total += np.log(np.exp(s_ap) + np.sum(np.exp(negs))) - s_ap
    return total / (6 * B)


def test_03_loss_oracles():
    """Each objective matches a brute-force reimplementation; closed forms hit exactly."""
    rng = np.random.default_rng(77)
    for _ in range(100):
        B = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        nx = int(rng.integers(3, 7))
        ny = int(rng.integers(3, 7))
        x0 = rng.standard_normal((B, d))
        x0h = rng.standard_normal((B, d))
        assert abs(float(diffusion_loss(Tensor(x0), Tensor(x0h)).data)
                   - _oracle_diffusion(x0, x0h)) < 1e-10

        ex = rng.standard_normal((nx + 2, d))
        ey = rng.standard_normal((ny + 2, d))
        gx = rng.standard_normal((B, d))
        gy = rng.standard_normal((B, d))
        tx = rng.integers(0, nx, B)
        ty = rng.integers(0, ny, B)
        wx = (rng.random(B) < 0.7).astype(float)
        wy = np.where(wx == 0.0, 1.0, (rng.random(B) < 0.5).astype(float))
        got = rec_loss(Tensor(x0h), Tensor(gx), Tensor(gy), tx, wx, ty, wy,
                       Tensor(ex), Tensor(ey))
        want = _oracle_rec(x0h, gx, gy, tx, wx, ty, wy, ex, ey)
        assert abs(float(got.data) - want) < 1e-10

        hc = rng.standard_normal((B, d))
        hd = rng.standard_normal((B, d))
        ha = rng.standard_normal((B, d))
        got = tri_view_cl_loss(Tensor(hc), Tensor(hd), Tensor(ha))
        assert abs(float(got.data) - _oracle_tricl(hc, hd, ha)) < 1e-10

    # uniform logits: cross-entropy equals log of the real-item count
    for n_real in (4, 9, 33):
        emb = np.random.default_rng(1).standard_normal((n_real + 2, 3))
        zeros = Tensor(np.zeros((2, 3)))
        got = rec_loss(zeros, None, None, np.array([0, 2]), np.ones(2),
                       np.zeros(2, dtype=int), np.zeros(2),
                       Tensor(emb), Tensor(emb))
        assert abs(float(got.data) - math.log(n_real)) < 1e-10

    # identical views everywhere: every similarity ties, loss has a closed form
    for B in (2, 4, 9):
        v = np.tile(np.array([0.3, -1.1, 0.7]), (B, 1))
        got = tri_view_cl_loss(Tensor(v), Tensor(v), Tensor(v))
        assert abs(float(got.data) - math.log(3 * (B - 1) + 1)) < 1e-10


# ---------------------------------------------------------------------------
# 4. ranking-metric oracle

def _oracle_metrics(ranks, cutoffs=(5, 10), mrr_cutoff=10):
    out = {}
    for k in cutoffs:
        out["hit%d" % k] = np.mean([1.0 if r <= k else 0.0 for r in ranks])
        out["ndcg%d" % k] = np.mean([1.0 / np.log2(r + 1) if r <= k else 0.0
                                     for r in ranks])
    out["mrr"] = np.mean([1.0 / r if r <= mrr_cutoff else 0.0 for r in ranks])
    return out


def test_04_metric_oracle():
    """compute_metrics agrees with loops; a random scorer lands on the analytic MRR."""
    rng = np.random.default_rng(50)
    for _ in range(1000):
        ranks = rng.integers(1, 500, size=int(rng.integers(1, 50))).tolist()
        mv = compute_metrics(ranks)
        want = _oracle_metrics(ranks)
        assert abs(mv.hit[5] - want["hit5"]) < 1e-12
        assert abs(mv.hit[10] - want["hit10"]) < 1e-12
        assert abs(mv.ndcg[5] - want["ndcg5"]) < 1e-12
        assert abs(mv.ndcg[10] - want["ndcg10"]) < 1e-12
        assert abs(mv.mrr - want["mrr"]) < 1e-12
        assert mv.hit[5] <= mv.hit[10] + 1e-15
        assert mv.ndcg[5] <= mv.ndcg[10] + 1e-15
        assert mv.mrr <= mv.hit[10] + 1e-15

    # scores carry no signal, so the positive's rank is uniform on 1..1000
    n_users, n_cand = 2500, 1000
    ranks = []
    for u in range(n_users):
        scores = np.random.default_rng([8, u]).standard_normal(n_cand)
        ranks.append(rank_of_positive(scores))
    mrr = compute_metrics(ranks).mrr
    h10 = sum(1.0 / r for r in range(1, 11))
    mean = h10 / n_cand
    second = sum(1.0 / r ** 2 for r in range(1, 11)) / n_cand
    sigma = math.sqrt((second - mean ** 2) / n_users)
    assert abs(mrr - mean) <= 3 * sigma
    assert abs(mean - 0.00293) < 1e-5


# ---------------------------------------------------------------------------
# 5. memorization smoke test

def _training_target_hr1(state, split, mcfg, sched):
    examples = build_training_examples(split)
    variant = VARIANTS[state.variant_name]
    hits = 0
    for lo in range(0, len(examples), 32):
        chunk = examples[lo:lo + 32]
        seqs = [UserSequence(ex.user_index, list(ex.items)) for ex in chunk]
        batch = make_eval_batch(seqs, split.vocab_x, split.vocab_y)
        with no_grad():
            gb = guidance_forward(state.params, mcfg, batch, variant)
        x0 = sample_batch(state.params, mcfg, sched, gb.guide, gb.guide_valid,
                          batch.user_index, 101, mcfg.T)
        for b, ex in enumerate(chunk):
            tg, td = ex.next_item
            vocab = split.vocab_of(td)
            g_hat = (gb.gx_hat if td == DOMAIN_X else gb.gy_hat).data[b]
            emb = state.params["emb_x" if td == DOMAIN_X else "emb_y"].data
            top = int(np.argmax(score_items(x0[b], g_hat, emb))) + vocab.base
            hits += int(top == tg)
    return hits / len(examples)


def test_05_overfit_smoke():
    """Eight users, twenty items per domain: the model memorizes its targets."""
    t0 = time.monotonic()
    events, _ = generate_synthetic(SyntheticConfig(
        n_users=8, n_items_x=20, n_items_y=20, n_shared_interests=2,
        n_specific_interests=1, noise_rate=0.0, rng_seed=7))
    split = filter_and_split(events)
    mcfg = ModelConfig(d=48, n_heads=2, enc_layers=1, dec_layers=1,
                       max_seq_len=15, T=6, vocab_x_size=split.vocab_x.size,
                       vocab_y_size=split.vocab_y.size)
    tcfg = TrainConfig(lr=5e-3, batch_size=16, epochs=46, warmup_epochs=2,
                       grad_clip=5.0, aug_rate=0.2, seed=0)
    sched = build_schedule(mcfg.T)
    state = init_state(mcfg, tcfg, sched, variant="full")
    fit(state, split, eval_every=0)
    assert 400 <= state.global_step <= 600   # about five hundred updates
    hr1 = _training_target_hr1(state, split, mcfg, sched)
    assert hr1 >= 0.9, "training-target HR@1 %.3f" % hr1
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 6. guidance ablation on the benchmark

def test_06_guidance_ablation(bench_split):
    """Guided variants clearly beat the unguided baseline, averaged over seeds."""
    t0 = time.monotonic()
    rows = ablation_study(bench_split, ["diff", "diff_de_g", "full"],
                          bench_model_cfg(bench_split), bench_train_cfg(),
                          build_schedule(BENCH_T), seeds=(0, 1, 2),
                          eval_seed=101)
    means = {r["variant"]: r["ndcg10_mean"] for r in rows}
    assert means["full"] >= 1.10 * means["diff"], \
        "full %.4f vs diff %.4f" % (means["full"], means["diff"])
    assert means["diff_de_g"] >= means["diff"], \
        "diff_de_g %.4f vs diff %.4f" % (means["diff_de_g"], means["diff"])
    assert time.monotonic() - t0 < 900.0


# ---------------------------------------------------------------------------
# 7. robustness to history corruption

def test_07_noise_robustness(bench_split, bench_model):
    """Clean run is the exact baseline; corruption never helps beyond tolerance."""
    state = bench_model
    negs = auto_negatives(bench_split)
    rows = noise_robustness(bench_split.test, state.params, state.model_cfg,
                            state.sched, "full", bench_split.vocab_x,
                            bench_split.vocab_y, (0.0, 0.1, 0.2, 0.3),
                            seed=101, n_negatives=negs,
                            trained_steps=state.global_step)
    retained = [r["retained"] for r in rows]
    assert retained[0] == 1.0
    for prev, cur in zip(retained, retained[1:]):
        assert cur <= prev + 0.03, "retained went %s" % (retained,)
    print("retained fractions at rates 0/.1/.2/.3: %s"
          % ", ".join("%.3f" % r for r in retained))


# ---------------------------------------------------------------------------
# 8. reverse-chain length sweep

def test_08_step_sweep(bench_split, bench_model):
    """Full-length sweep row is bitwise the plain evaluation; short chains stay close."""
    state = bench_model
    negs = auto_negatives(bench_split)
    full_rep = evaluate(bench_split.test, state.params, state.model_cfg,
                        state.sched, "full", bench_split.vocab_x,
                        bench_split.vocab_y, seed=101, n_negatives=negs,
                        trained_steps=state.global_step)
    base = overall_ndcg(full_rep, 10)
    rows = step_sweep(bench_split.test, state.params, state.model_cfg,
                      state.sched, "full", bench_split.vocab_x,
                      bench_split.vocab_y, list(range(5, BENCH_T + 1)),
                      seed=101, n_negatives=negs,
                      trained_steps=state.global_step)
    by_n = {r["n_steps"]: r["ndcg10"] for r in rows}
    assert by_n[BENCH_T] == base
    for n, nd in by_n.items():
        assert abs(nd - base) <= 0.10 * base, \
            "n_steps=%d drifted: %.4f vs %.4f" % (n, nd, base)


# ---------------------------------------------------------------------------
# 9. pipeline determinism and resume

SMALL_SYNTH = ["--set", "n_users=14", "--set", "n_items_x=30",
               "--set", "n_items_y=30", "--set", "seq_min=8",
               "--set", "seq_max=12", "--set", "n_shared=3",
               "--set", "n_specific=1"]
SMALL_TRAIN = ["--set", "d=8", "--set", "n_heads=2", "--set", "enc_layers=1",
               "--set", "dec_layers=1", "--set", "diffusion_steps=6",
               "--set", "epochs=2", "--set", "warmup_epochs=1",
               "--set", "batch_size=64", "--set", "n_negatives=12"]


def _chain(root, events):
    split = os.path.join(root, "split")
    run = os.path.join(root, "run")
    ev = os.path.join(root, "eval")
    assert cli_main(["prepare", "--input", events, "--out", split]) == 0
    assert cli_main(["train", "--data", split, "--out", run,
                     "--seed", "3"] + SMALL_TRAIN) == 0
    assert cli_main(["eval", "--checkpoint", os.path.join(run, "latest"),
                     "--data", split, "--out", ev,
                     "--set", "n_negatives=12"]) == 0
    return split, run, ev


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_09_pipeline_determinism(tmp_path):
    """Identical seeds give byte-identical artifacts; resume changes nothing."""
    data = str(tmp_path / "data")
    assert cli_main(["synth", "--out", data, "--seed", "3"] + SMALL_SYNTH) == 0
    events = os.path.join(data, "events.tsv")
    sa, ra, ea = _chain(str(tmp_path / "a"), events)
    sb, rb, eb = _chain(str(tmp_path / "b"), events)
    pairs = [(os.path.join(sa, n), os.path.join(sb, n))
             for n in ("vocab.json", "train.jsonl", "valid.jsonl",
                       "test.jsonl", "stats.json")]
    pairs += [(os.path.join(ra, n), os.path.join(rb, n))
              for n in ("history.csv", os.path.join("latest", "params.bin"),
                        os.path.join("latest", "optimizer.bin"),
                        os.path.join("best", "params.bin"))]
    pairs.append((os.path.join(ea, "metrics.csv"),
                  os.path.join(eb, "metrics.csv")))
    for a, b in pairs:
        assert _bytes(a) == _bytes(b), "%s differs between reruns" % a

    # an interrupted run, resumed from its checkpoint, is bitwise the straight run
    split = load_split(sa)
    mcfg = ModelConfig(d=8, n_heads=2, enc_layers=1, dec_layers=1,
                       max_seq_len=15, T=6, vocab_x_size=split.vocab_x.size,
                       vocab_y_size=split.vocab_y.size)
    tcfg = TrainConfig(lr=1e-3, batch_size=32, epochs=4, warmup_epochs=1,
                       grad_clip=5.0, aug_rate=0.2, seed=5)
    sched = build_schedule(6)
    straight = fit(init_state(mcfg, tcfg, sched, variant="full"), split,
                   eval_every=0)
    half = init_state(mcfg, tcfg, sched, variant="full")
    fit(half, split, eval_every=0, max_epochs=2)
    ck = str(tmp_path / "ck")
    save_checkpoint(ck, half)
    resumed = fit(load_checkpoint(ck), split, eval_every=0)
    assert np.array_equal(straight.params.to_vector(),
                          resumed.params.to_vector())
    a = [rec["l_total"] for rec in straight.history]
    b = [rec["l_total"] for rec in half.history] \
        + [rec["l_total"] for rec in resumed.history[len(half.history):]]
    assert a == [rec["l_total"] for rec in resumed.history]
    assert len(a) == 4


# ---------------------------------------------------------------------------
# 10. preprocessing conformance on a hand-built log

FIXTURE_ROWS = [
    # u1: 12 events, 6 per domain -> kept
    ("u1", "xa", "x", 1), ("u1", "ya", "y", 2), ("u1", "xb", "x", 3),
    ("u1", "yb", "y", 4), ("u1", "xc", "x", 5), ("u1", "yc", "y", 6),
    ("u1", "xd", "x", 7), ("u1", "yd", "y", 8), ("u1", "xe", "x", 9),
    ("u1", "ye", "y", 10), ("u1", "xf", "x", 11), ("u1", "yf", "y", 12),
    # u2: 9 events total -> dropped by the overall threshold
    ("u2", "xa", "x", 1), ("u2", "ya", "y", 2), ("u2", "xb", "x", 3),
    ("u2", "yb", "y", 4), ("u2", "xc", "x", 5), ("u2", "yc", "y", 6),
    ("u2", "xd", "x", 7), ("u2", "yd", "y", 8), ("u2", "xe", "x", 9),
    # u3: 12 events but only 2 in domain y -> dropped by the per-domain floor
    ("u3", "xa", "x", 1), ("u3", "ya", "y", 2), ("u3", "xb", "x", 3),
    ("u3", "xc", "x", 4), ("u3", "xd", "x", 5), ("u3", "yb", "y", 6),
    ("u3", "xe", "x", 7), ("u3", "xf", "x", 8), ("u3", "xg", "x", 9),
    ("u3", "xh", "x", 10), ("u3", "xi", "x", 11), ("u3", "xz", "x", 12),
    # u4: exactly 10 events with exactly 3 in domain x -> kept at the boundary
    ("u4", "ya", "y", 1), ("u4", "xa", "x", 2), ("u4", "yb", "y", 3),
    ("u4", "yc", "y", 4), ("u4", "xb", "x", 5), ("u4", "yd", "y", 6),
    ("u4", "ye", "y", 7), ("u4", "xc", "x", 8), ("u4", "yg", "y", 9),
    ("u4", "yh", "y", 10),
    # u5: 11 events but only 2 in domain x -> dropped by the per-domain floor
    ("u5", "xa", "x", 1), ("u5", "ya", "y", 2), ("u5", "yb", "y", 3),
    ("u5", "yc", "y", 4), ("u5", "yd", "y", 5), ("u5", "xb", "x", 6),
    ("u5", "ye", "y", 7), ("u5", "yf", "y", 8), ("u5", "yg", "y", 9),
    ("u5", "yh", "y", 10), ("u5", "yi", "y", 11),
    # u6: 16 events -> kept, truncated to the most recent 15 (xz falls off)
    ("u6", "xz", "x", 1), ("u6", "ya", "y", 2), ("u6", "xg", "x", 3),
    ("u6", "yb", "y", 4), ("u6", "xh", "x", 5), ("u6", "yw", "y", 6),
    ("u6", "xi", "x", 7), ("u6", "ya", "y", 8), ("u6", "xg", "x", 9),
    ("u6", "yb", "y", 10), ("u6", "xa", "x", 11), ("u6", "yw", "y", 12),
    ("u6", "xh", "x", 13), ("u6", "yv", "y", 14), ("u6", "xi", "x", 15),
    ("u6", "ya", "y", 16),
]


def _write_fixture(path):
    lines = ["user_id\titem_id\tdomain\ttimestamp"]
    lines += ["%s\t%s\t%s\t%d" % row for row in FIXTURE_ROWS]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_10_preprocessing_conformance(tmp_path):
    """Both filter rules and the leave-one-out split on a fully enumerated log."""
    log = str(tmp_path / "fixture.tsv")
    _write_fixture(log)
    events, row_errors = ingest_log(log)
    assert row_errors == []
    assert len(events) == 70

    stats = filter_and_split_with_stats(events)[1]
    assert stats["n_events"] == 70
    assert stats["n_users_total"] == 6
    assert stats["n_users_kept"] == 3
    assert stats["dropped_by_total_threshold"] == 1
    assert stats["dropped_by_domain_threshold"] == 2

    split = filter_and_split(events)
    assert split.user_ids == ["u1", "u4", "u6"]
    assert split.vocab_x.items == ["xa", "xb", "xc", "xd", "xe", "xf",
                                   "xg", "xh", "xi"]
    assert split.vocab_y.items == ["ya", "yb", "yc", "yd", "ye", "yf",
                                   "yg", "yh", "yv", "yw"]

    # global indices: domain x real items start at 2, domain y at 13
    def gx(name):
        return split.vocab_x.index_of(name)

    def gy(name):
        return split.vocab_y.index_of(name)

    assert gx("xa") == 2 and gx("xi") == 10
    assert gy("ya") == 13 and gy("yw") == 22

    expect = {
        "u1": ([2, 13, 3, 14, 4, 15, 5, 16, 6, 17], (7, "x"), (18, "y")),
        "u4": ([13, 2, 14, 15, 3, 16, 17, 4], (19, "y"), (20, "y")),
        "u6": ([13, 8, 14, 9, 22, 10, 13, 8, 14, 2, 22, 9, 21],
               (10, "x"), (13, "y")),
    }
    for uid, (train_idx, vtgt, ttgt) in expect.items():
        ui = split.user_ids.index(uid)
        assert split.train[ui].indices == train_idx
        vseq, got_v = split.validation[ui]
        assert vseq.indices == train_idx
        assert got_v == vtgt
        tseq, got_t = split.test[ui]
        assert tseq.indices == train_idx + [vtgt[0]]
        assert got_t == ttgt

    # the item seen only in dropped or truncated history never enters the vocab
    with pytest.raises(KeyError):
        split.vocab_x.index_of("xz")

    # same log through the command line, with and without a loosened threshold
    out = str(tmp_path / "prep")
    assert cli_main(["prepare", "--input", log, "--out", out]) == 0
    import json
    with open(os.path.join(out, "stats.json")) as fh:
        st = json.load(fh)
    assert st["n_users_kept"] == 3
    assert st["n_items_x"] == 9 and st["n_items_y"] == 10

    loose = str(tmp_path / "loose")
    assert cli_main(["prepare", "--input", log, "--out", loose,
                     "--min-interactions", "1"]) == 0
    with open(os.path.join(loose, "stats.json")) as fh:
        st = json.load(fh)
    assert st["n_users_kept"] == 4            # the short-history user comes back
    assert st["dropped_by_total_threshold"] == 0
    assert st["dropped_by_domain_threshold"] == 2
