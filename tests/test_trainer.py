"""Optimizer math, schedule shape, batching, warm-up staging, checkpoints."""

import json
import math
import os
from collections import OrderedDict

import numpy as np
import pytest

import crossdiff.trainer as trainer_mod
from crossdiff.autograd import Tensor
from crossdiff.network import ParameterSet, build_training_examples
from crossdiff.trainer import (
    Adam,
    TrainConfig,
    _bucketed_batches,
    count_steps_per_epoch,
    effective_warmup_epochs,
    fit,
    init_state,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train_step,
)

from conftest import tiny_model_cfg


def bare_params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    tensors = OrderedDict()
    for name, shape in shapes:
        tensors[name] = Tensor(rng.normal(size=shape), requires_grad=True)
    return ParameterSet(None, tensors)


class TestTrainConfig:
    def test_validation(self):
        TrainConfig().validate()
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0).validate()
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError, match="aug_rate"):
            TrainConfig(aug_rate=1.0).validate()
        with pytest.raises(ValueError, match="grad_clip"):
            TrainConfig(grad_clip=-1.0).validate()


class TestLrSchedule:
    def test_warmup_endpoints(self):
        base, W, S = 0.4, 10, 100
        assert lr_at(0, S, W, base) == base / W
        assert lr_at(W - 1, S, W, base) == base
        assert lr_at(S - 1, S, W, base) == 0.0

    def test_warmup_linear(self):
        base, W, S = 1.0, 8, 50
        for s in range(W):
            assert abs(lr_at(s, S, W, base) - base * (s + 1) / W) < 1e-15

    def test_monotone(self):
        base, W, S = 0.3, 5, 60
        vals = [lr_at(s, S, W, base) for s in range(S)]
        assert all(b > a for a, b in zip(vals[:W], vals[1:W]))
        assert all(b <= a for a, b in zip(vals[W - 1:], vals[W:]))

    def test_cosine_midpoint(self):
        # halfway through decay the rate sits at half the base
        base, W = 0.2, 0
        S = 100
        assert abs(lr_at(49, S, W, base) - 0.5 * base) < 1e-12

    def test_no_warmup(self):
        assert lr_at(0, 10, 0, 1.0) == 0.5 * (1.0 + math.cos(math.pi * 0.1))

    def test_degenerate_total(self):
        assert lr_at(3, 4, 4, 1.0) == 1.0     # still ramping
        assert lr_at(4, 4, 4, 1.0) == 0.0     # past the end

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_at(-1, 10, 2, 1.0)
        with pytest.raises(ValueError):
            lr_at(0, 0, 0, 1.0)


def reference_adam_run(grads_per_step, p0, lr, b1, b2, eps):
    """Textbook bias-corrected Adam applied step by step."""
    p = p0.copy()
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    for t, g in enumerate(grads_per_step, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdam:
    def test_matches_reference(self):
        rng = np.random.default_rng(21)
        shapes = [("a", (3, 2)), ("b", (4,))]
        params = bare_params(shapes, seed=1)
        p0 = {n: p.data.copy() for n, p in params.items()}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        opt = Adam(params, b1, b2, eps)
        grads = {n: [rng.normal(size=s) for _ in range(5)] for n, s in shapes}
        for step in range(5):
            for n, _ in shapes:
                params[n].grad = grads[n][step]
            opt.step(params, lr)
        for n, _ in shapes:
            want = reference_adam_run(grads[n], p0[n], lr, b1, b2, eps)
            assert np.max(np.abs(params[n].data - want)) < 1e-12

    def test_zero_lr_freezes_params_not_moments(self):
        params = bare_params([("a", (4,))])
        before = params["a"].data.copy()
        opt = Adam(params)
        params["a"].grad = np.ones(4)
        opt.step(params, 0.0)
        assert np.array_equal(params["a"].data, before)
        assert opt.t == 1
        assert np.all(opt.m["a"] != 0.0)

    def test_moments_decay_without_gradient(self):
        params = bare_params([("a", (2,))])
        opt = Adam(params, 0.9, 0.99)
        params["a"].grad = np.array([1.0, -2.0])
        opt.step(params, 0.0)
        m1 = opt.m["a"].copy()
        v1 = opt.v["a"].copy()
        params["a"].grad = None
        opt.step(params, 0.0)
        assert np.allclose(opt.m["a"], 0.9 * m1, atol=0, rtol=1e-15)
        assert np.allclose(opt.v["a"], 0.99 * v1, atol=0, rtol=1e-15)

    def test_grad_clip_rescales_globally(self):
        mk = lambda: bare_params([("a", (3,)), ("b", (2,))], seed=2)
        g_a = np.array([3.0, 0.0, 4.0])
        g_b = np.array([0.0, 12.0])     # global norm 13
        clip = 1.3
        clipped = mk()
        opt1 = Adam(clipped)
        clipped["a"].grad, clipped["b"].grad = g_a, g_b
        opt1.step(clipped, 0.01, grad_clip=clip)
        manual = mk()
        opt2 = Adam(manual)
        manual["a"].grad, manual["b"].grad = g_a * 0.1, g_b * 0.1
        opt2.step(manual, 0.01)
        assert np.max(np.abs(clipped["a"].data - manual["a"].data)) < 1e-15
        assert np.max(np.abs(clipped["b"].data - manual["b"].data)) < 1e-15

    def test_clip_noop_below_threshold(self):
        params = bare_params([("a", (2,))])
        opt = Adam(params)
        params["a"].grad = np.array([0.3, 0.4])
        before = params["a"].data.copy()
        opt.step(params, 0.1, grad_clip=10.0)
        moved_small = params["a"].data.copy()
        params2 = bare_params([("a", (2,))])
        opt2 = Adam(params2)
        params2["a"].grad = np.array([0.3, 0.4])
        opt2.step(params2, 0.1)
        assert np.array_equal(moved_small, params2["a"].data)
        assert not np.array_equal(moved_small, before)

    @pytest.mark.parametrize("grad_clip", [None, 5.0])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_rejected_before_any_change(self, grad_clip, bad):
        params = bare_params([("a", (3,)), ("b", (2,)), ("c", (2,))], seed=4)
        opt = Adam(params)
        for n in params.names():
            params[n].grad = np.ones(params[n].data.shape)
        opt.step(params, 0.01, grad_clip=grad_clip)
        before = {n: (params[n].data.copy(), opt.m[n].copy(), opt.v[n].copy())
                  for n in params.names()}
        params["b"].grad = np.array([1.0, bad])
        params["c"].grad = np.array([bad, 1.0])
        with pytest.raises(FloatingPointError, match="non-finite at b"):
            opt.step(params, 0.01, grad_clip=grad_clip)
        assert opt.t == 1
        for n, (p, m, v) in before.items():
            assert np.array_equal(params[n].data, p)
            assert np.array_equal(opt.m[n], m)
            assert np.array_equal(opt.v[n], v)


class TestStateSetup:
    def test_init_state_checks(self, small_split, small_sched):
        cfg = tiny_model_cfg(small_split)
        with pytest.raises(ValueError, match="variant"):
            init_state(cfg, TrainConfig(), small_sched, variant="mega")
        bad = tiny_model_cfg(small_split, T=9)
        with pytest.raises(ValueError, match="disagrees"):
            init_state(bad, TrainConfig(), small_sched)

    def test_warmup_only_with_domain_encoders(self, small_split, small_sched):
        cfg = tiny_model_cfg(small_split)
        tcfg = TrainConfig(warmup_epochs=3)
        assert effective_warmup_epochs(init_state(cfg, tcfg, small_sched, "full")) == 3
        assert effective_warmup_epochs(init_state(cfg, tcfg, small_sched, "diff")) == 0
        assert effective_warmup_epochs(init_state(cfg, tcfg, small_sched, "diff_de")) == 3


class TestBucketing:
    def make_examples(self, split):
        return build_training_examples(split)

    def test_partition_and_uniform_length(self, small_split):
        examples = self.make_examples(small_split)
        rng = np.random.default_rng(3)
        batches = _bucketed_batches(examples, 16, rng)
        seen = np.concatenate(batches)
        assert sorted(seen.tolist()) == list(range(len(examples)))
        for batch in batches:
            lens = {len(examples[i].items) for i in batch}
            assert len(lens) == 1
            assert len(batch) <= 16

    def test_count_matches(self, small_split):
        examples = self.make_examples(small_split)
        rng = np.random.default_rng(4)
        batches = _bucketed_batches(examples, 16, rng)
        assert len(batches) == count_steps_per_epoch(examples, 16)

    def test_shuffles_between_epochs(self, small_split):
        examples = self.make_examples(small_split)
        rng = np.random.default_rng(5)
        a = [b.tolist() for b in _bucketed_batches(examples, 16, rng)]
        b = [b.tolist() for b in _bucketed_batches(examples, 16, rng)]
        assert a != b


class TestTrainingLoop:
    def test_warmup_leaves_denoiser_untouched(self, small_split, small_sched):
        cfg = tiny_model_cfg(small_split)
        state = init_state(cfg, TrainConfig(batch_size=32, epochs=3,
                                            warmup_epochs=1, seed=3),
                           small_sched, "full")
        # the fusion projection feeds only the denoiser and the contrastive
        # view, neither of which runs during warm-up
        frozen = {n: state.params[n].data.copy() for n in state.params.names()
                  if n in ("step_emb", "fuse.w")
                  or n.startswith(("dec.", "enc_c."))}
        touched = {n: state.params[n].data.copy()
                   for n in ("emb_x", "emb_y", "pos", "enc_x.0.attn.wq",
                             "enc_y.0.mlp.w1")}
        examples = build_training_examples(small_split)
        from crossdiff.network import make_train_batch
        batch = make_train_batch(examples[:8], small_split.vocab_x, small_split.vocab_y)
        bd = train_step(state, batch, warmup=True, lr=0.01)
        assert bd.l_diff == 0.0 and bd.l_tri_cl == 0.0 and bd.l_rec > 0.0
        for n, before in frozen.items():
            assert np.array_equal(state.params[n].data, before), n
        for n, before in touched.items():
            assert not np.array_equal(state.params[n].data, before), n

    def test_main_stage_has_all_terms(self, small_split, small_sched):
        cfg = tiny_model_cfg(small_split)
        state = init_state(cfg, TrainConfig(batch_size=32, epochs=1, seed=3),
                           small_sched, "full")
        examples = build_training_examples(small_split)
        from crossdiff.data import AUGMENTATION_OPS, AugmentationSpec, augment
        from crossdiff.data import UserSequence
        from crossdiff.network import make_train_batch
        exs = examples[:8]
        aug = [augment(UserSequence(e.user_index, list(e.items)),
                       AugmentationSpec("mask", 0.3, i), small_split.vocab_x,
                       small_split.vocab_y).items for i, e in enumerate(exs)]
        batch = make_train_batch(exs, small_split.vocab_x, small_split.vocab_y, aug)
        bd = train_step(state, batch, warmup=False, lr=1e-3)
        assert bd.l_diff > 0 and bd.l_rec > 0 and bd.l_tri_cl > 0
        assert abs(bd.l_total - (bd.l_diff + bd.l_rec + bd.l_tri_cl)) < 1e-12

    def test_fit_runs_and_records(self, small_split, small_sched, tmp_path):
        cfg = tiny_model_cfg(small_split)
        tcfg = TrainConfig(batch_size=64, epochs=3, warmup_epochs=1, seed=5)
        state = init_state(cfg, tcfg, small_sched, "full")
        out = str(tmp_path / "run")
        fit(state, small_split, out_dir=out, eval_every=2, eval_negatives=15)
        assert state.epoch == 3
        assert len(state.history) == 3
        assert state.history[0]["stage"] == "warmup"
        assert state.history[1]["stage"] == "main"
        assert "val_ndcg10" in state.history[1]
        assert state.best_epoch in (2,)
        assert os.path.isdir(os.path.join(out, "latest"))
        assert os.path.isdir(os.path.join(out, "best"))
        examples = build_training_examples(small_split)
        assert state.global_step == 3 * count_steps_per_epoch(examples, 64)

    def test_variant_without_encoders_skips_warmup(self, small_split, small_sched):
        cfg = tiny_model_cfg(small_split)
        tcfg = TrainConfig(batch_size=64, epochs=1, warmup_epochs=2, seed=5)
        state = init_state(cfg, tcfg, small_sched, "diff")
        fit(state, small_split, eval_every=0)
        assert state.history[0]["stage"] == "main"
        assert state.history[0]["l_diff"] > 0

    def test_divergence_saves_crash_checkpoint(self, small_split, small_sched,
                                               tmp_path, monkeypatch):
        cfg = tiny_model_cfg(small_split)
        state = init_state(cfg, TrainConfig(epochs=1, warmup_epochs=0, seed=5),
                           small_sched, "diff_de_g")

        def boom(state, batch, warmup, lr):
            raise FloatingPointError("non-finite loss component l_diff = inf")

        monkeypatch.setattr(trainer_mod, "train_step", boom)
        out = str(tmp_path / "run")
        with pytest.raises(RuntimeError, match="diverged"):
            fit(state, small_split, out_dir=out, eval_every=0)
        assert os.path.isfile(os.path.join(out, "crash", "manifest.json"))

    @pytest.mark.parametrize("grad_clip", [None, 5.0])
    def test_infinite_gradient_under_finite_loss_stops_before_the_step(
            self, small_split, small_sched, tmp_path, monkeypatch, grad_clip):
        cfg = tiny_model_cfg(small_split)
        state = init_state(cfg, TrainConfig(batch_size=32, epochs=1, warmup_epochs=0,
                                            grad_clip=grad_clip, seed=5),
                           small_sched, "full")
        real_backward = Tensor.backward
        calls, before = [], {}

        def poisoned_backward(self):
            # the second step's loss is finite; one of its gradients is not
            real_backward(self)
            calls.append(1)
            if len(calls) == 2:
                before["params"] = state.params.to_vector()
                before["t"] = state.opt.t
                before["step"] = state.global_step
                state.params["fuse.w"].grad[0, 0] = np.inf

        monkeypatch.setattr(Tensor, "backward", poisoned_backward)
        out = str(tmp_path / "run")
        with pytest.raises(RuntimeError, match="diverged.*non-finite at fuse.w"):
            fit(state, small_split, out_dir=out, eval_every=0)
        assert state.opt.t == before["t"] and state.global_step == before["step"]
        crash = load_checkpoint(os.path.join(out, "crash"))
        assert np.array_equal(crash.params.to_vector(), before["params"])
        assert crash.opt.t == before["t"] and crash.global_step == before["step"]
        for name in crash.params.names():
            assert np.all(np.isfinite(crash.opt.m[name]))
            assert np.all(np.isfinite(crash.opt.v[name]))

    def test_rejects_zero_negatives_before_training(self, small_split, small_sched):
        state = init_state(tiny_model_cfg(small_split), TrainConfig(epochs=1, seed=5),
                           small_sched, "full")
        with pytest.raises(ValueError, match="n_negatives"):
            fit(state, small_split, eval_negatives=0)
        assert state.global_step == 0


class TestCheckpoints:
    def trained_state(self, small_split, small_sched, epochs=2, seed=9):
        cfg = tiny_model_cfg(small_split)
        tcfg = TrainConfig(batch_size=64, epochs=epochs, warmup_epochs=1, seed=seed)
        state = init_state(cfg, tcfg, small_sched, "full")
        fit(state, small_split, eval_every=1, eval_negatives=10)
        return state

    def test_round_trip_bitwise(self, small_split, small_sched, tmp_path):
        state = self.trained_state(small_split, small_sched)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        back = load_checkpoint(ckpt)
        assert np.array_equal(back.params.to_vector(), state.params.to_vector())
        for name in state.params.names():
            assert np.array_equal(back.opt.m[name], state.opt.m[name])
            assert np.array_equal(back.opt.v[name], state.opt.v[name])
        assert back.opt.t == state.opt.t
        assert back.epoch == state.epoch
        assert back.global_step == state.global_step
        assert back.best_metric == state.best_metric
        assert np.array_equal(back.best_params, state.best_params)
        assert back.history == state.history
        assert back.rng.bit_generator.state == state.rng.bit_generator.state
        # both generators continue identically
        assert back.rng.integers(1 << 30) == state.rng.integers(1 << 30)

    def test_blob_layout(self, small_split, small_sched, tmp_path):
        """Blobs are the parameters, then the m and v moments, in parameter
        order, each flattened in C order as little-endian float64."""
        state = self.trained_state(small_split, small_sched)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        names = state.params.names()
        want = {
            "params.bin": state.params.to_vector(),
            "optimizer.bin": np.concatenate([state.opt.m[n].ravel() for n in names]
                                            + [state.opt.v[n].ravel() for n in names]),
            "best.bin": state.best_params,
        }
        for blob, vec in want.items():
            with open(os.path.join(ckpt, blob), "rb") as fh:
                assert fh.read() == vec.astype("<f8").tobytes(), blob

    def test_load_draws_no_initialization(self, small_split, small_sched, tmp_path,
                                          monkeypatch):
        state = self.trained_state(small_split, small_sched, epochs=1)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint must not initialize parameters")

        monkeypatch.setattr(trainer_mod, "init_parameters", no_init)
        back = load_checkpoint(ckpt)
        assert np.array_equal(back.params.to_vector(), state.params.to_vector())

    def test_resume_equals_uninterrupted(self, small_split, small_sched, tmp_path):
        cfg = tiny_model_cfg(small_split)

        def fresh(seed=11):
            tcfg = TrainConfig(batch_size=64, epochs=4, warmup_epochs=1, seed=seed)
            return init_state(cfg, tcfg, small_sched, "full")

        straight = fresh()
        fit(straight, small_split, eval_every=0)

        # same 4-epoch run interrupted after two epochs, then resumed
        half = fresh()
        fit(half, small_split, eval_every=0, max_epochs=2)
        assert half.epoch == 2
        ckpt = str(tmp_path / "half")
        save_checkpoint(ckpt, half)
        resumed = load_checkpoint(ckpt)
        fit(resumed, small_split, eval_every=0)

        assert resumed.global_step == straight.global_step
        assert np.array_equal(resumed.params.to_vector(), straight.params.to_vector())
        tail = [r["l_total"] for r in resumed.history]
        want = [r["l_total"] for r in straight.history]
        assert tail == want

    def test_manifest_mismatch_rejected(self, small_split, small_sched, tmp_path):
        state = self.trained_state(small_split, small_sched, epochs=1)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        mp = os.path.join(ckpt, "manifest.json")
        with open(mp) as fh:
            manifest = json.load(fh)
        manifest["model_cfg"]["d"] = 16
        with open(mp, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="does not match"):
            load_checkpoint(ckpt)

    def test_format_version_check(self, small_split, small_sched, tmp_path):
        state = self.trained_state(small_split, small_sched, epochs=1)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        mp = os.path.join(ckpt, "manifest.json")
        with open(mp) as fh:
            manifest = json.load(fh)
        manifest["format_version"] = 99
        with open(mp, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("blob,keep", [("params.bin", 7), ("optimizer.bin", -1),
                                           ("best.bin", 0)])
    def test_truncated_blob_rejected(self, small_split, small_sched, tmp_path,
                                     blob, keep):
        state = self.trained_state(small_split, small_sched, epochs=1)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        path = os.path.join(ckpt, blob)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:8 * keep] if keep >= 0 else data[:-8])
        with pytest.raises(ValueError, match=blob):
            load_checkpoint(ckpt)


def _state_bits(state):
    """Everything a checkpoint restores, as comparable values."""
    names = state.params.names()
    return (state.params.to_vector().tobytes(),
            [(state.opt.m[n].tobytes(), state.opt.v[n].tobytes()) for n in names],
            state.opt.t, state.epoch, state.global_step, state.best_metric,
            state.best_epoch, None if state.best_params is None else state.best_params.tobytes(),
            state.history, state.rng.bit_generator.state)


class TestCheckpointCrashes:
    """A save that dies part-way never leaves a checkpoint that loads but is wrong."""

    @pytest.fixture(scope="class")
    def two_states(self, tmp_path_factory):
        from conftest import make_split
        from crossdiff.diffusion import build_schedule

        split, _ = make_split()
        state = init_state(tiny_model_cfg(split),
                           TrainConfig(batch_size=64, epochs=2, warmup_epochs=0, seed=9),
                           build_schedule(6), "full")
        fit(state, split, eval_every=1, eval_negatives=10, max_epochs=1)
        first = str(tmp_path_factory.mktemp("first") / "ckpt")
        save_checkpoint(first, state)
        fit(state, split, eval_every=1, eval_negatives=10, max_epochs=1)
        return load_checkpoint(first), state

    @staticmethod
    def fail_nth(mp, n, what):
        """Make the n-th file write ("write", the file never created; "truncate",
        created empty) or the n-th os.rename ("rename") in the trainer raise."""
        real_open, real_rename, count = open, os.rename, [0]

        def hit():
            count[0] += 1
            return count[0] == n

        def failing_open(path, mode="r", *args, **kwargs):
            if "w" in mode and what != "rename" and hit():
                if what == "truncate":
                    real_open(path, mode).close()
                raise OSError("injected failure writing %s" % path)
            return real_open(path, mode, *args, **kwargs)

        def failing_rename(src, dst):
            if what == "rename" and hit():
                raise OSError("injected failure renaming %s" % src)
            return real_rename(src, dst)

        mp.setattr(trainer_mod, "open", failing_open, raising=False)
        mp.setattr(trainer_mod.os, "rename", failing_rename)

    def loads_as(self, ckpt, state):
        try:
            back = load_checkpoint(ckpt)
        except (OSError, ValueError):
            return True
        return _state_bits(back) == _state_bits(state)

    @pytest.mark.parametrize("what,n", [("write", n) for n in (1, 2, 3, 4)]
                             + [("truncate", n) for n in (1, 2, 3, 4)]
                             + [("rename", n) for n in (1, 2)])
    def test_crash_leaves_previous_or_nothing(self, two_states, tmp_path, monkeypatch,
                                              what, n):
        prev, new = two_states
        assert prev.best_params is not None   # four files: manifest and three blobs
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, prev)
        with monkeypatch.context() as mp:
            self.fail_nth(mp, n, what)
            with pytest.raises(OSError, match="injected"):
                save_checkpoint(ckpt, new)
        assert self.loads_as(ckpt, prev)

        # a save that dies right after the crash still leaves the previous state
        with monkeypatch.context() as mp:
            self.fail_nth(mp, 1, "write")
            with pytest.raises(OSError, match="injected"):
                save_checkpoint(ckpt, new)
        assert _state_bits(load_checkpoint(ckpt)) == _state_bits(prev)

        save_checkpoint(ckpt, new)
        assert sorted(os.listdir(tmp_path)) == ["ckpt"]
        assert _state_bits(load_checkpoint(ckpt)) == _state_bits(new)
