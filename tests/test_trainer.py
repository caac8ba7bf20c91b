"""Optimizer math, schedule shape, batching, warm-up staging, checkpoints."""

import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import crossdiff.evaluation as evaluation_mod
import crossdiff.network as network_mod
import crossdiff.trainer as trainer_mod
from crossdiff.autograd import Tensor, _Worker
from crossdiff.data import (AugmentationSpec, SyntheticConfig, UserSequence, augment,
                            filter_and_split, generate_synthetic)
from crossdiff.diffusion import build_schedule
from crossdiff.network import (ModelConfig, ParameterSet, build_training_examples,
                               make_train_batch)
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
    store = np.concatenate([rng.normal(size=shape).ravel() for _, shape in shapes])
    return ParameterSet(store, shapes)


def small_batches(split):
    """A warm-up batch of eight prefix examples, and the same examples as a
    main-stage batch with masked augmented views."""
    exs = build_training_examples(split)[:8]
    aug = [augment(UserSequence(e.user_index, list(e.items)),
                   AugmentationSpec("mask", 0.3, i), split.vocab_x,
                   split.vocab_y).items for i, e in enumerate(exs)]
    return (make_train_batch(exs, split.vocab_x, split.vocab_y),
            make_train_batch(exs, split.vocab_x, split.vocab_y, aug))


@pytest.fixture
def pooled(monkeypatch):
    """Adam and backward on two threads for any model size, as on a two-core
    machine with one BLAS thread."""
    monkeypatch.setattr(trainer_mod, "_pool", None)
    monkeypatch.setattr(trainer_mod, "_POOL_MIN_PARAMS", 0)
    monkeypatch.setattr(trainer_mod, "_blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


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
        for key in ("lr", "grad_clip"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="^%s must be positive and finite" % key):
                    TrainConfig(**{key: value}).validate()


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
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05   # Adam's constants
        opt = Adam(params)
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
        # "a" gets no gradient in the second step, as None in one run and as
        # explicit zeros in the other; with a clip of 0.5, "b"'s gradient
        # (norm 5) makes the clip fire
        for grad_clip in (None, 0.5):
            runs = []
            for missing in (None, np.zeros(2)):
                params = bare_params([("a", (2,)), ("b", (2,))])
                opt = Adam(params)
                params["a"].grad = np.array([1.0, -2.0])
                params["b"].grad = np.array([0.5, 0.25])
                opt.step(params, 0.1, grad_clip=grad_clip)
                m1, v1 = opt.m["a"].copy(), opt.v["a"].copy()
                params["a"].grad = missing
                params["b"].grad = np.array([3.0, -4.0])
                opt.step(params, 0.1, grad_clip=grad_clip)
                assert np.array_equal(opt.m["a"], 0.9 * m1)
                assert np.array_equal(opt.v["a"], 0.999 * v1)
                runs.append((params, opt))
            (p_none, opt_none), (p_zero, opt_zero) = runs
            for n in ("a", "b"):
                assert np.array_equal(p_none[n].data, p_zero[n].data)
                assert np.array_equal(opt_none.m[n], opt_zero.m[n])
                assert np.array_equal(opt_none.v[n], opt_zero.v[n])

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

    @staticmethod
    def check_non_finite_rejected(grad_clip, bad):
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

    @pytest.mark.parametrize("grad_clip", [None, 5.0])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_rejected_before_any_change(self, grad_clip, bad):
        self.check_non_finite_rejected(grad_clip, bad)

    @pytest.mark.parametrize("grad_clip", [None, 5.0])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_rejected_on_two_threads(self, pooled, grad_clip, bad):
        self.check_non_finite_rejected(grad_clip, bad)
        assert trainer_mod._pool is not None

    @staticmethod
    def run_steps(n_steps=6):
        """Several steps on mixed shapes; the clip fires from the second step
        on, and "b" has no gradient in the fourth."""
        shapes = [("a", (5, 4)), ("b", (4,)), ("c", (3, 7, 2)), ("d", (1,)), ("e", (6,))]
        params = bare_params(shapes, seed=8)
        opt = Adam(params)
        rng = np.random.default_rng(9)
        for step in range(n_steps):
            for n, shape in shapes:
                params[n].grad = rng.normal(size=shape) * (0.1 if step == 0 else 3.0)
            if step == 3:
                params["b"].grad = None
            opt.step(params, 0.05, grad_clip=2.0)
        return params, opt

    def test_two_threads_match_inline_bit_for_bit(self, pooled, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
            p_inline, opt_inline = self.run_steps()
        assert trainer_mod._pool is None           # below the threshold: inline
        p_pooled, opt_pooled = self.run_steps()
        assert trainer_mod._pool is not None
        assert opt_pooled.t == opt_inline.t == 6
        for n in p_inline.names():
            assert np.array_equal(p_pooled[n].data, p_inline[n].data)
            assert np.array_equal(opt_pooled.m[n], opt_inline.m[n])
            assert np.array_equal(opt_pooled.v[n], opt_inline.v[n])

    def test_two_threads_match_inline_under_frequent_switches(self, pooled, monkeypatch):
        # many small parameters, so both threads move from tensor to tensor
        # constantly, with the interpreter switching threads every microsecond
        shapes = [("p%02d" % i, (1 + i % 5, 3)) for i in range(60)]
        rng = np.random.default_rng(10)
        grads = [{n: rng.normal(size=s) for n, s in shapes} for _ in range(3)]

        def run():
            params = bare_params(shapes, seed=11)
            opt = Adam(params)
            for g in grads:
                for n, _ in shapes:
                    params[n].grad = g[n]
                opt.step(params, 0.01, grad_clip=1.0)
            return params, opt

        with monkeypatch.context() as mp:
            mp.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
            p_inline, opt_inline = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            p_pooled, opt_pooled = run()
        finally:
            sys.setswitchinterval(interval)
        assert trainer_mod._pool is not None
        assert list(opt_pooled.m) == list(opt_inline.m) == [n for n, _ in shapes]
        for n, _ in shapes:
            assert np.array_equal(p_pooled[n].data, p_inline[n].data)
            assert np.array_equal(opt_pooled.m[n], opt_inline.m[n])
            assert np.array_equal(opt_pooled.v[n], opt_inline.v[n])

    def test_one_core_builds_no_executor(self, pooled, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self.run_steps()
        assert trainer_mod._pool is None

    @pytest.mark.parametrize("cpus", [None, 1, 2])
    def test_without_affinity_counts_the_machines_cpus(self, pooled, monkeypatch, cpus):
        # macOS and Windows have no os.sched_getaffinity; os.cpu_count may be None
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        params, opt = self.run_steps()
        assert (trainer_mod._pool is not None) == (cpus == 2)
        monkeypatch.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
        p_inline, opt_inline = self.run_steps()
        assert opt.t == opt_inline.t == 6
        for n in p_inline.names():
            assert np.array_equal(params[n].data, p_inline[n].data)
            assert np.array_equal(opt.m[n], opt_inline.m[n])
            assert np.array_equal(opt.v[n], opt_inline.v[n])

    @staticmethod
    def blocked_run(shapes, clip):
        """Four steps on bare_params(shapes): small gradients in the first,
        none for the first tensor in the third. The params, the optimizer and
        the gradients each step got (None where there was none)."""
        params = bare_params(shapes, seed=12)
        opt = Adam(params)
        rng = np.random.default_rng(13)
        given = []
        for step in range(4):
            grads = {n: rng.normal(size=s) * (0.1 if step == 0 else 3.0) for n, s in shapes}
            if step == 2:
                grads[shapes[0][0]] = None
            for n, g in grads.items():
                params[n].grad = g
            opt.step(params, 0.05, grad_clip=clip)
            given.append(grads)
        return params, opt, given

    # clip 2.0 fires in the steps with large gradients, 1e6 never
    @pytest.mark.parametrize("clip", [None, 2.0, 1e6])
    @pytest.mark.parametrize("shapes", [[("a", (7, 5))],
                                        [("a", (5, 4)), ("b", (4,)), ("c", (3, 7, 2)),
                                         ("d", (1,)), ("e", (6,))]],
                             ids=["one tensor", "five tensors"])
    def test_blocks_and_cut_inside_tensors_match_inline(self, pooled, monkeypatch,
                                                        shapes, clip):
        sizes = [math.prod(s) for _, s in shapes]
        n = sum(sizes)
        assert n // 2 not in np.cumsum([0] + sizes)     # the cut falls inside a tensor
        runs = {}
        for block, two in ((trainer_mod._BLOCK, False), (3, False), (3, True),
                           (trainer_mod._BLOCK, True)):
            with monkeypatch.context() as mp:
                mp.setattr(trainer_mod, "_BLOCK", block)
                if not two:
                    mp.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
                runs[block, two] = self.blocked_run(shapes, clip)
            assert (trainer_mod._pool is not None) == two
        params, opt, given = runs.pop((trainer_mod._BLOCK, False))
        for p_other, opt_other, _ in runs.values():
            assert opt_other.t == opt.t == 4
            assert p_other.store.tobytes() == params.store.tobytes()
            assert opt_other.moments.tobytes() == opt.moments.tobytes()

        fired = []
        for grads in given:
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()
                                 if g is not None))
            fired.append(clip is not None and norm > clip)
            for name, g in grads.items():
                grads[name] = (np.zeros(dict(shapes)[name]) if g is None
                               else g * (clip / norm) if fired[-1] else g)
        assert any(fired) == (clip == 2.0)
        p0 = bare_params(shapes, seed=12)
        for name, _ in shapes:
            want = reference_adam_run([grads[name] for grads in given], p0[name].data,
                                      0.05, 0.9, 0.999, 1e-8)
            assert np.max(np.abs(params[name].data - want)) < 1e-12

    @pytest.mark.parametrize("grad_clip", [None, 1.0])
    @pytest.mark.parametrize("two", [False, True], ids=["one_thread", "two_threads"])
    def test_skipped_tensors_match_the_full_update(self, pooled, monkeypatch, grad_clip,
                                                   two):
        # "n" has a gradient only in the first step, then none but non-zero
        # moments; "z" never has one and keeps zero moments; "g" always has
        # one. Blocks of 4 elements, and on two threads the cut falls inside "z".
        shapes = [("n", (2, 3)), ("z", (7,)), ("g", (3, 4))]
        monkeypatch.setattr(trainer_mod, "_BLOCK", 4)
        if not two:
            monkeypatch.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
        rng = np.random.default_rng(14)
        given = [{"n": rng.normal(size=(2, 3)), "z": None, "g": rng.normal(size=(3, 4))}]
        given += [{"n": None, "z": None, "g": rng.normal(size=(3, 4))} for _ in range(3)]
        params = bare_params(shapes, seed=15)
        opt = Adam(params)
        ref = {n: (params[n].data.copy(), np.zeros(s), np.zeros(s)) for n, s in shapes}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        for t, grads in enumerate(given, start=1):
            for n, g in grads.items():
                params[n].grad = g
            opt.step(params, lr, grad_clip)
            # the update without the skip: every tensor, 0.0 for a missing gradient
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in
                                 (0.0 if g is None else g for g in grads.values())))
            scale = grad_clip / norm if grad_clip is not None and norm > grad_clip else None
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n, (p, m, v) in ref.items():
                g = 0.0 if grads[n] is None else grads[n]
                if scale is not None:
                    g = np.multiply(g, scale)
                np.add(m * b1, g * (1.0 - b1), out=m)
                np.add(v * b2, np.multiply(g, 1.0 - b2) * g, out=v)
                p -= ((m / c1) / (np.sqrt(v / c2) + eps)) * lr
                assert p.tobytes() == params[n].data.tobytes(), (t, n)
                assert m.tobytes() == opt.m[n].tobytes(), (t, n)
                assert v.tobytes() == opt.v[n].tobytes(), (t, n)
        assert (trainer_mod._pool is not None) == two
        assert not opt.m["z"].any() and not opt.v["z"].any()
        assert opt.m["n"].all() and opt.v["n"].all()

    @pytest.mark.parametrize("detach", [np.copy, np.transpose], ids=["copy", "transpose"])
    def test_detached_parameter_rejected_before_any_change(self, detach):
        params = bare_params([("a", (3,)), ("b", (2, 3)), ("c", (2,))], seed=5)
        opt = Adam(params)
        for n in params.names():
            params[n].grad = np.ones(params[n].data.shape)
        opt.step(params, 0.01)
        before = (params.to_vector(), opt.moments.copy())
        params["b"].data = detach(params["b"].data)
        params["b"].grad = np.ones(params["b"].data.shape)
        with pytest.raises(ValueError, match="parameter b is no longer a view"):
            opt.step(params, 0.01)
        assert opt.t == 1
        assert np.array_equal(params.store, before[0])
        assert np.array_equal(opt.moments, before[1])

    def test_forked_child_builds_its_own_executor(self, pooled, monkeypatch):
        self.run_steps(2)
        pid, first = trainer_mod._pool
        assert pid == os.getpid()
        self.run_steps(2)
        assert trainer_mod._pool[1] is first
        # a forked child sees the parent's executor, whose thread it lacks
        monkeypatch.setattr(os, "getpid", lambda: pid + 1)
        p_child, opt_child = self.run_steps()
        assert trainer_mod._pool[0] == pid + 1 and trainer_mod._pool[1] is not first
        monkeypatch.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
        p_inline, opt_inline = self.run_steps()
        for n in p_inline.names():
            assert np.array_equal(p_child[n].data, p_inline[n].data)

    @staticmethod
    def train_steps(split, sched, variant="full", each=lambda: None):
        """A warm-up step, in which the denoiser gets no gradient (none for a
        variant without the domain encoders, which skips warm-up), then two main
        steps with the clip firing, on the small model; the LossBreakdowns.
        each is called after every step."""
        state = init_state(tiny_model_cfg(split),
                           TrainConfig(batch_size=32, epochs=2, warmup_epochs=1,
                                       grad_clip=0.5, seed=7),
                           sched, variant)
        warm, main = small_batches(split)
        steps = [(warm, True, 1e-2)] if effective_warmup_epochs(state) else []
        bds = []
        for batch, warmup, lr in steps + [(main, False, 1e-3)] * 2:
            bds.append(train_step(state, batch, warmup, lr))
            each()
        return state, bds

    @staticmethod
    def spy_backward(monkeypatch):
        """For each Tensor.backward call, the pool it got and how many calls it
        submitted there."""
        seen, real = [], Tensor.backward

        class Counting:
            def __init__(self, pool):
                self.pool, self.n = pool, 0

            def submit(self, fn, *args):
                self.n += 1
                return self.pool.submit(fn, *args)

        def spy(self, pool=None):
            counting = None if pool is None else Counting(pool)
            try:
                real(self, pool=counting)
            finally:
                seen.append((pool, counting and counting.n))

        monkeypatch.setattr(Tensor, "backward", spy)
        return seen

    def test_backward_on_two_threads_matches_inline(self, pooled, monkeypatch,
                                                     small_split, small_sched):
        with monkeypatch.context() as mp:
            mp.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
            inline, bds_inline = self.train_steps(small_split, small_sched)
        seen = self.spy_backward(monkeypatch)
        state, bds = self.train_steps(small_split, small_sched)
        assert len(seen) == 3
        for pool, n in seen:
            assert pool is trainer_mod._pool[1] and n > 0
        assert bds == bds_inline and bds[0].l_diff == 0.0
        assert state.opt.t == inline.opt.t == 3
        for n in inline.params.names():
            assert state.params[n].data.tobytes() == inline.params[n].data.tobytes(), n
            assert state.opt.m[n].tobytes() == inline.opt.m[n].tobytes(), n
            assert state.opt.v[n].tobytes() == inline.opt.v[n].tobytes(), n

    @pytest.mark.parametrize("setting", ["one core", "large threshold", "two BLAS threads",
                                         "unknown BLAS"])
    def test_backward_gets_no_pool_inline(self, pooled, monkeypatch, small_split,
                                          small_sched, setting):
        if setting == "one core":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif setting == "large threshold":
            monkeypatch.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
        else:
            threads = 2 if setting == "two BLAS threads" else None
            monkeypatch.setattr(trainer_mod, "_blas_threads", lambda: threads)
        seen = self.spy_backward(monkeypatch)
        self.train_steps(small_split, small_sched)
        assert seen == [(None, None)] * 3
        assert trainer_mod._pool is None

    @pytest.mark.skipif(trainer_mod._blas_threads() is None,
                        reason="numpy's BLAS is not an OpenBLAS whose thread count can be read")
    def test_blas_threads_reads_the_runtime(self):
        code = "from crossdiff import trainer; print(trainer._blas_threads())"
        # OpenBLAS uses no more threads than the machine has cores
        for threads in ("1", "2")[:trainer_mod._cores()]:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            assert out.strip() == threads

    @pytest.mark.skipif(trainer_mod._blas_threads() is None,
                        reason="numpy's BLAS is not an OpenBLAS whose thread count can be read")
    def test_blas_threads_reads_a_path_with_a_space(self, monkeypatch, tmp_path):
        """A mapped library's path is read whole, spaces and all; a deleted
        library and one that cannot be opened are passed over, and with
        nothing else mapped the count is unknown."""
        threads = trainer_mod._blas_threads()
        with open("/proc/self/maps") as fh:
            loaded = sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in fh
                             if "openblas" in line.lower()})
        spaced = tmp_path / "sp ace" / "libs"
        spaced.mkdir(parents=True)
        links = [spaced / os.path.basename(path) for path in loaded]
        for link, path in zip(links, loaded):
            link.symlink_to(path)
        deleted = spaced / "libopenblas.so (deleted)"   # it opens, but its name says stale
        deleted.symlink_to(loaded[0])
        skipped = [str(deleted), str(spaced / "missing libopenblas.so")]

        def maps(paths):
            lines = "".join("7f00-7f01 r-xp 00000000 fe:00 1          %s\n" % p for p in paths)
            return lambda path: io.StringIO(lines)

        monkeypatch.setattr(trainer_mod, "open", maps(skipped + links), raising=False)
        trainer_mod._openblas_threads_getter.cache_clear()
        try:
            assert trainer_mod._blas_threads() == threads
            monkeypatch.setattr(trainer_mod, "open", maps(skipped), raising=False)
            trainer_mod._openblas_threads_getter.cache_clear()
            assert trainer_mod._blas_threads() is None
        finally:
            trainer_mod._openblas_threads_getter.cache_clear()

    def test_split_waits_for_the_second_half_and_raises_the_first_halfs_error(self):
        done = []

        def fn(half, lo, hi):
            if half == 0:
                raise ValueError("first half")
            time.sleep(0.1)
            done.append((lo, hi))
            raise KeyError("second half")

        with pytest.raises(ValueError, match="first half"):
            trainer_mod._split(None, fn, 3, 8)
        assert done == []   # without a pool the second half never starts
        pool = ThreadPoolExecutor(1)
        try:
            with pytest.raises(ValueError, match="first half"):
                trainer_mod._split(pool, fn, 3, 8)
            assert done == [(3, 8)]
        finally:
            pool.shutdown()


class TestForwardBranches:
    """The forward's enc_y and augmented-view enc_c on the worker thread."""

    # forward branches per main step: enc_y with the domain encoders, and the
    # augmented view with the contrastive term
    MAIN_BRANCHES = {"full": 2, "diff_de_g": 1, "diff_de_tricl": 2, "diff_de": 1, "diff": 0}

    @staticmethod
    def spy_branches(monkeypatch):
        """The futures of the forward branches submitted to the executor, in order."""
        pool, futures = trainer_mod._executor(), []
        real = pool.submit

        def submit(fn, *args, **kwargs):
            fut = real(fn, *args, **kwargs)
            if fn is network_mod.encode_sequence:
                futures.append(fut)
            return fut

        monkeypatch.setattr(pool, "submit", submit)
        return futures

    def run_counted(self, monkeypatch, split, sched, variant):
        """TestAdam.train_steps on two threads, and the branches each step submitted."""
        futures, counts = self.spy_branches(monkeypatch), []

        def each():
            counts.append(len(futures) - sum(counts))
            assert all(f.done() for f in futures)

        state, bds = TestAdam.train_steps(split, sched, variant, each)
        return state, bds, counts

    # the last case runs the two threads with the interpreter switching
    # between them every microsecond
    @pytest.mark.parametrize("variant,switch", [(v, None) for v in MAIN_BRANCHES]
                             + [("full", 1e-6)])
    def test_two_threads_match_inline(self, pooled, monkeypatch, small_split, small_sched,
                                      variant, switch):
        with monkeypatch.context() as mp:
            mp.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
            inline, bds_inline = TestAdam.train_steps(small_split, small_sched, variant)
        assert trainer_mod._pool is None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(switch or interval)
        try:
            state, bds, counts = self.run_counted(monkeypatch, small_split, small_sched,
                                                  variant)
        finally:
            sys.setswitchinterval(interval)
        main = self.MAIN_BRANCHES[variant]
        assert counts == ([1] if variant != "diff" else []) + [main, main]
        assert bds == bds_inline
        assert state.opt.t == inline.opt.t
        for n in inline.params.names():
            assert state.params[n].data.tobytes() == inline.params[n].data.tobytes(), n
            assert state.opt.m[n].tobytes() == inline.opt.m[n].tobytes(), n
            assert state.opt.v[n].tobytes() == inline.opt.v[n].tobytes(), n

    @staticmethod
    def failing(monkeypatch, name, bank, error, delay=0.0):
        """network.<name> raises error, delay seconds into a call: into each
        call with a bank of None, else into those for that encoder bank."""
        real = getattr(network_mod, name)

        def fn(*args, **kwargs):
            if bank is None or args[2] == bank:
                time.sleep(delay)
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(network_mod, name, fn)

    @pytest.mark.parametrize("bank", ["enc_y", "enc_c"])
    def test_worker_error_raised_before_any_change(self, pooled, monkeypatch, small_split,
                                                   small_sched, bank):
        state = init_state(tiny_model_cfg(small_split), TrainConfig(seed=3), small_sched,
                           "full")
        _, batch = small_batches(small_split)
        train_step(state, batch, False, 1e-3)
        before = (state.params.to_vector(), state.opt.t, state.global_step,
                  {n: (state.opt.m[n].copy(), state.opt.v[n].copy())
                   for n in state.params.names()})
        futures = self.spy_branches(monkeypatch)
        self.failing(monkeypatch, "encode_domain", bank, RuntimeError("worker " + bank))
        with pytest.raises(RuntimeError, match="worker " + bank):
            train_step(state, batch, False, 1e-3)
        # both branches were queued, enc_y first, before enc_x started
        assert len(futures) == 2
        assert all(f.done() for f in futures)
        failed = futures[0 if bank == "enc_y" else 1]
        assert isinstance(failed.exception(), RuntimeError)
        assert all(f.exception() is None for f in futures if f is not failed)
        assert np.array_equal(state.params.to_vector(), before[0])
        assert (state.opt.t, state.global_step) == before[1:3]
        for n, (m, v) in before[3].items():
            assert np.array_equal(state.opt.m[n], m) and np.array_equal(state.opt.v[n], v)

    # for each branch, the (function, bank) that fails on the worker and on
    # the caller while the branch runs
    BOTH_FAIL = {"enc_y": (("encode_domain", "enc_y"), ("encode_domain", "enc_x")),
                 "enc_c": (("encode_domain", "enc_c"), ("denoise", None))}

    @pytest.mark.parametrize("branch", sorted(BOTH_FAIL))
    @pytest.mark.parametrize("worker_first", [False, True])
    def test_caller_error_wins_and_no_branch_outlives_the_forward(
            self, pooled, monkeypatch, small_split, small_sched, branch, worker_first):
        cfg = tiny_model_cfg(small_split)
        state = init_state(cfg, TrainConfig(seed=3), small_sched, "full")
        _, batch = small_batches(small_split)
        t = np.full(batch.size, 2)
        eps = np.random.default_rng(0).standard_normal((batch.size, cfg.d))
        futures = self.spy_branches(monkeypatch)
        on_worker, on_caller = self.BOTH_FAIL[branch]
        # one thread raises 0.1 s after the other
        self.failing(monkeypatch, *on_worker, KeyError("worker"), 0.0 if worker_first else 0.1)
        self.failing(monkeypatch, *on_caller, ValueError("caller"), 0.1 if worker_first else 0.0)
        for pool in (None, trainer_mod._executor()):
            with pytest.raises(ValueError, match="caller"), _Worker(pool) as worker:
                network_mod.training_forward(state.params, cfg, batch, state.variant,
                                             small_sched, t, eps, worker.start)
            assert all(f.done() for f in futures)
        # both branches were queued, enc_y first, before enc_x started
        assert len(futures) == 2
        failed = futures[0 if branch == "enc_y" else 1]
        assert isinstance(failed.exception(), KeyError)
        assert all(f.exception() is None for f in futures if f is not failed)

    def test_loss_error_waits_for_the_augmented_view(self, pooled, monkeypatch,
                                                     small_split, small_sched):
        """A loss built while the worker still encodes the augmented view
        raises: train_step waits for the view, and the loss's error is raised."""
        state = init_state(tiny_model_cfg(small_split), TrainConfig(seed=3), small_sched,
                           "full")
        _, batch = small_batches(small_split)
        futures = self.spy_branches(monkeypatch)
        self.failing(monkeypatch, "encode_domain", "enc_c", KeyError("worker"), 0.2)

        def rec_loss(*args):
            raise ValueError("caller")

        monkeypatch.setattr(trainer_mod, "rec_loss", rec_loss)
        with pytest.raises(ValueError, match="caller"):
            train_step(state, batch, False, 1e-3)
        assert len(futures) == 2 and all(f.done() for f in futures)
        assert isinstance(futures[1].exception(), KeyError)
        assert state.opt.t == 0 and state.global_step == 0

    @pytest.mark.parametrize("two_threads", [False, True])
    def test_losses_without_the_augmented_view_come_before_it(
            self, pooled, monkeypatch, small_split, small_sched, two_threads):
        """diffusion_loss and rec_loss are built before the augmented view is
        taken: with a pool, before its branch's result is asked for; without
        one, before the branch runs."""
        if not two_threads:
            monkeypatch.setattr(trainer_mod, "_POOL_MIN_PARAMS", 2 ** 60)
        events = []

        def spy(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return call

        for name in ("diffusion_loss", "rec_loss", "tri_view_cl_loss"):
            monkeypatch.setattr(trainer_mod, name, spy(name, getattr(trainer_mod, name)))
        real_encode = network_mod.encode_sequence
        monkeypatch.setattr(network_mod, "encode_sequence",
                            lambda *a, **k: spy("encode " + a[2], real_encode)(*a, **k))
        if two_threads:
            pool = trainer_mod._executor()
            real_submit = pool.submit

            def submit(fn, *args, **kwargs):
                fut = real_submit(fn, *args, **kwargs)
                if fn is network_mod.encode_sequence:
                    events.append("queue " + args[2])
                    if args[2] == "enc_c":
                        fut.result = spy("take enc_c", fut.result)
                return fut

            monkeypatch.setattr(pool, "submit", submit)
        state = init_state(tiny_model_cfg(small_split), TrainConfig(seed=3), small_sched,
                           "full")
        train_step(state, small_batches(small_split)[1], False, 1e-3)
        if two_threads:
            # the worker's passes run whenever it gets to them
            events = [e for e in events if e not in ("encode enc_y", "encode enc_c")]
            assert events == ["queue enc_y", "queue enc_c", "encode enc_x", "diffusion_loss",
                              "rec_loss", "take enc_c", "tri_view_cl_loss"]
        else:
            assert events == ["encode enc_x", "encode enc_y", "diffusion_loss", "rec_loss",
                              "encode enc_c", "tri_view_cl_loss"]


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


def spy_calls(monkeypatch, name):
    """Count the calls fit makes to trainer.<name>, which still runs."""
    calls = []
    real = getattr(trainer_mod, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, name, spy)
    return calls


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
        batch = make_train_batch(examples[:8], small_split.vocab_x, small_split.vocab_y)
        bd = train_step(state, batch, warmup=True, lr=0.01)
        assert bd.l_diff == 0.0 and bd.l_tri_cl == 0.0 and bd.l_rec > 0.0
        for n, before in frozen.items():
            assert np.array_equal(state.params[n].data, before), n
        for n, before in touched.items():
            assert not np.array_equal(state.params[n].data, before), n

    def test_long_prefix_rejected_before_any_step(self, small_split, small_sched,
                                                  monkeypatch):
        # the split keeps up to 15 items per user, so some training prefixes
        # are longer than the model's 9 positions
        cfg = replace(tiny_model_cfg(small_split), max_seq_len=9)
        state = init_state(cfg, TrainConfig(batch_size=4, epochs=1, seed=3),
                           small_sched, "full")
        calls = spy_calls(monkeypatch, "train_step")
        with pytest.raises(ValueError, match=r"user \d+: sequence length \d+ exceeds max_seq_len 9"):
            fit(state, small_split, eval_every=0)
        assert calls == []
        assert state.global_step == 0

    def test_long_validation_sequence_rejected_before_any_step(self, small_split,
                                                               small_sched, monkeypatch):
        cfg = tiny_model_cfg(small_split)
        seq, target = small_split.validation[-1]
        long_seq = UserSequence(seq.user_index, (list(seq.items) * 2)[:cfg.max_seq_len + 1])
        split = replace(small_split, validation=small_split.validation[:-1] + [(long_seq, target)])
        state = init_state(cfg, TrainConfig(batch_size=4, epochs=1, seed=3),
                           small_sched, "full")
        calls = spy_calls(monkeypatch, "train_step")
        with pytest.raises(ValueError, match="user %d: sequence length" % seq.user_index):
            fit(state, split, eval_every=1)
        assert calls == []

    def test_vocab_size_mismatch_rejected_before_any_step(self, small_split, small_sched,
                                                          monkeypatch):
        cfg = replace(tiny_model_cfg(small_split), vocab_y_size=small_split.vocab_y.size - 1)
        state = init_state(cfg, TrainConfig(batch_size=4, epochs=1, seed=3),
                           small_sched, "full")
        calls = spy_calls(monkeypatch, "train_step")
        with pytest.raises(ValueError, match="embedding tables have %d and %d"
                           % (cfg.vocab_x_size, cfg.vocab_y_size)):
            fit(state, small_split, eval_every=0)
        assert calls == []
        assert state.global_step == 0

    @pytest.mark.parametrize("eval_steps", [0, 7])
    def test_bad_eval_steps_rejected_before_any_step(self, small_split, small_sched,
                                                     monkeypatch, eval_steps):
        state = init_state(tiny_model_cfg(small_split),
                           TrainConfig(batch_size=4, epochs=1, seed=3), small_sched, "full")
        calls = spy_calls(monkeypatch, "train_step")
        with pytest.raises(ValueError, match=r"n_steps=%d outside \[1, 6\]" % eval_steps):
            fit(state, small_split, eval_every=1, eval_steps=eval_steps)
        assert calls == []
        assert state.global_step == 0

    @pytest.mark.parametrize("key", ["eval_every", "checkpoint_every"])
    def test_negative_period_rejected_before_any_step(self, small_split, small_sched,
                                                      monkeypatch, tmp_path, key):
        state = init_state(tiny_model_cfg(small_split),
                           TrainConfig(batch_size=4, epochs=1, seed=3), small_sched, "full")
        calls = spy_calls(monkeypatch, "train_step")
        with pytest.raises(ValueError, match=r"%s must be >= 0 \(0 turns it off\), got -3"
                           % key):
            fit(state, small_split, out_dir=str(tmp_path), **{key: -3})
        assert calls == []
        assert state.global_step == 0

    def test_bench_step_memory(self):
        """A benchmark-shaped step (B=128, prefix 12, d=32) peaks under 60 MB:
        interior gradients are dropped once handed over and a bias adds into
        its product (46 MB here). Keeping both, as before, peaked at 87 MB."""
        events, _ = generate_synthetic(SyntheticConfig(
            n_users=256, noise_rate=0.2, seq_len_range=(15, 15), rng_seed=3))
        split = filter_and_split(events)
        cfg = ModelConfig(d=32, n_heads=2, enc_layers=1, dec_layers=1, max_seq_len=15, T=20,
                          vocab_x_size=split.vocab_x.size, vocab_y_size=split.vocab_y.size)
        state = init_state(cfg, TrainConfig(lr=1e-3, batch_size=128, warmup_epochs=0,
                                            grad_clip=5.0, aug_rate=0.2),
                           build_schedule(cfg.T))
        examples = [ex for ex in build_training_examples(split) if len(ex.items) == 12][:128]
        assert len(examples) == 128
        aug = [augment(UserSequence(ex.user_index, list(ex.items)),
                       AugmentationSpec("mask", 0.2, i), split.vocab_x, split.vocab_y,
                       max_seq_len=15).items for i, ex in enumerate(examples)]
        batch = make_train_batch(examples, split.vocab_x, split.vocab_y, aug)
        train_step(state, batch, False, 1e-3)
        tracemalloc.start()
        try:
            train_step(state, batch, False, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)

    def test_main_stage_has_all_terms(self, small_split, small_sched):
        cfg = tiny_model_cfg(small_split)
        state = init_state(cfg, TrainConfig(batch_size=32, epochs=1, seed=3),
                           small_sched, "full")
        examples = build_training_examples(small_split)
        from crossdiff.data import AUGMENTATION_OPS
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

    @pytest.mark.parametrize("every,want", [(1, [1, 2, 3]), (2, [2, 3])])
    def test_latest_saved_once_per_epoch(self, small_split, small_sched, tmp_path,
                                         monkeypatch, every, want):
        saved = []
        real = trainer_mod.save_checkpoint

        def spy(ckpt_dir, state):
            if os.path.basename(ckpt_dir) == "latest":
                saved.append(state.epoch)
            return real(ckpt_dir, state)

        monkeypatch.setattr(trainer_mod, "save_checkpoint", spy)
        state = init_state(tiny_model_cfg(small_split),
                           TrainConfig(batch_size=64, epochs=3, seed=5), small_sched, "diff")
        fit(state, small_split, out_dir=str(tmp_path / "run"), eval_every=0,
            checkpoint_every=every)
        assert saved == want

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

        def poisoned_backward(self, pool=None):
            # the second step's loss is finite; one of its gradients is not
            real_backward(self, pool)
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

    def test_split_without_held_out_users_trains(self, small_split, small_sched):
        # no validation or test user to size negatives from, and none needed
        split = replace(small_split, validation=[], test=[])
        state = init_state(tiny_model_cfg(split),
                           TrainConfig(batch_size=64, epochs=2, warmup_epochs=1, seed=5),
                           small_sched, "diff_de")
        fit(state, split, eval_every=0)
        assert [r["stage"] for r in state.history] == ["warmup", "main"]
        assert state.global_step == 2 * count_steps_per_epoch(
            build_training_examples(split), 64)

    @pytest.mark.parametrize("eval_every,want", [(0, 0), (1, 1)])
    def test_auto_negatives_only_when_validating(self, small_split, small_sched,
                                                 monkeypatch, eval_every, want):
        calls = []
        real = evaluation_mod.auto_negatives

        def spy(split):
            calls.append(1)
            return real(split)

        monkeypatch.setattr(evaluation_mod, "auto_negatives", spy)
        state = init_state(tiny_model_cfg(small_split),
                           TrainConfig(batch_size=64, epochs=1, warmup_epochs=0, seed=5),
                           small_sched, "diff")
        fit(state, small_split, eval_every=eval_every, eval_steps=1)
        assert len(calls) == want

    def test_rejects_zero_negatives_before_training(self, small_split, small_sched):
        state = init_state(tiny_model_cfg(small_split), TrainConfig(epochs=1, seed=5),
                           small_sched, "full")
        with pytest.raises(ValueError, match="n_negatives"):
            fit(state, small_split, eval_negatives=0)
        assert state.global_step == 0


class TestParameterStore:
    @staticmethod
    def assert_views(state):
        for name, p in state.params.items():
            assert np.shares_memory(p.data, state.params.store), name
            for moment in (state.opt.m, state.opt.v):
                assert np.shares_memory(moment[name], state.opt.moments), name

    def test_every_tensor_stays_a_view(self, small_split, small_sched, tmp_path):
        state = init_state(tiny_model_cfg(small_split), TrainConfig(seed=2), small_sched,
                           "full")
        vec = state.params.to_vector()
        assert not np.shares_memory(vec, state.params.store)
        self.assert_views(state)
        state.params.from_vector(vec + 1.0)
        assert np.array_equal(np.concatenate([p.data.ravel() for p in state.params.values()]),
                              vec + 1.0)
        self.assert_views(state)
        _, batch = small_batches(small_split)
        train_step(state, batch, False, 1e-3)
        self.assert_views(state)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        back = load_checkpoint(ckpt)
        self.assert_views(back)
        train_step(back, batch, False, 1e-3)
        train_step(state, batch, False, 1e-3)
        assert back.params.store.tobytes() == state.params.store.tobytes()

    def test_best_params_unchanged_by_later_epochs(self, small_split, small_sched,
                                                   monkeypatch):
        from crossdiff import evaluation
        metrics = iter([0.5, 0.1, 0.2])   # the first epoch is the best
        monkeypatch.setattr(evaluation, "overall_ndcg", lambda report, k: next(metrics))
        state = init_state(tiny_model_cfg(small_split),
                           TrainConfig(batch_size=64, epochs=3, warmup_epochs=0, seed=9),
                           small_sched, "full")
        fit(state, small_split, eval_every=1, eval_negatives=10, max_epochs=1)
        first = state.params.to_vector()
        fit(state, small_split, eval_every=1, eval_negatives=10)
        assert state.best_epoch == 1 and state.epoch == 3
        assert np.array_equal(state.best_params, first)
        assert not np.array_equal(state.params.store, first)


def _set_field(key, value):
    """A manifest edit that sets one field."""
    return lambda text: json.dumps({**json.loads(text), key: value})


# progress fields of the wrong type or range: each would load, then fail or
# train wrongly in the next fit
_BAD_FIELDS = [("adam_t", "3"), ("adam_t", -5), ("adam_t", 2.5), ("adam_t", True),
               ("epoch", "1"), ("global_step", "x"), ("best_epoch", "z"),
               ("best_epoch", -2), ("history", 5), ("best_metric", "hi"),
               ("best_metric", math.nan), ("has_best", "no")]


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

    @pytest.mark.parametrize("edit,match", [
        (lambda m: m.update(variant="bogus"), "unknown variant"),
        (lambda m: m["train_cfg"].update(lr=-1), "lr must be positive"),
        (lambda m: m["schedule"].update(T=3), "disagrees"),
    ], ids=["variant", "lr", "schedule_T"])
    def test_bad_run_description_rejected(self, small_split, small_sched, tmp_path,
                                          edit, match):
        # the checks init_state makes on a new run also guard a restored one
        state = self.trained_state(small_split, small_sched, epochs=1)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        mp = os.path.join(ckpt, "manifest.json")
        with open(mp) as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(mp, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(ckpt)

    # format 2 stored every attention layer's key bias and TrainConfig's Adam
    # constants, and named the decoder's first norm lnq
    @pytest.mark.parametrize("version", [2, 99])
    def test_format_version_check(self, small_split, small_sched, tmp_path, version):
        state = self.trained_state(small_split, small_sched, epochs=1)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        mp = os.path.join(ckpt, "manifest.json")
        with open(mp) as fh:
            manifest = json.load(fh)
        manifest["format_version"] = version
        with open(mp, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match=r"manifest\.json: .*unsupported checkpoint "
                                             r"format %d\)" % version):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit, error", [
        (lambda text: "{variant: full}", r"JSONDecodeError: Expecting property name"),
        (lambda text: "[1, 2]", r"TypeError: list indices"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "variant"}), r"KeyError: 'variant'"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "rng_state"}), r"KeyError: 'rng_state'"),
        (lambda text: json.dumps({**json.loads(text), "model_cfg": {"width": 3}}),
         r"TypeError: .*unexpected keyword argument 'width'"),
    ] + [(_set_field(key, value), r"ValueError: %s must be " % key) for key, value in _BAD_FIELDS],
        ids=["not_json", "not_an_object", "no_variant", "no_rng_state",
             "unknown_model_key"] + ["%s=%r" % kv for kv in _BAD_FIELDS])
    def test_malformed_manifest_names_the_file(self, small_split, small_sched, tmp_path,
                                               edit, error):
        state = self.trained_state(small_split, small_sched, epochs=1)
        ckpt = str(tmp_path / "ckpt")
        save_checkpoint(ckpt, state)
        mp = os.path.join(ckpt, "manifest.json")
        with open(mp) as fh:
            text = fh.read()
        with open(mp, "w") as fh:
            fh.write(edit(text))
        with pytest.raises(ValueError, match=r"%s: malformed manifest \(%s"
                           % (re.escape(mp), error)):
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
