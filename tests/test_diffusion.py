"""Schedule, forward corruption, and reverse-transition correctness.

The reverse posterior is checked against numeric quadrature over the
intermediate variable: two passes (coarse then refined grid) give an oracle
that never touches the closed-form coefficients under test.
"""

import numpy as np
import pytest

from crossdiff.autograd import Tensor, sum_
from crossdiff.diffusion import (build_schedule, forward_diffuse, reverse_step,
                                 strided_steps)


def quad_posterior(x0, xt, t, s, sched):
    """Numeric mean/variance of the intermediate state given endpoints."""
    ab_t, ab_s = sched.alpha_bar(t), sched.alpha_bar(s)
    a_ts = ab_t / ab_s

    def weights(grid):
        lp = (-(xt - np.sqrt(a_ts) * grid) ** 2 / (2 * (1 - a_ts))
              - (grid - np.sqrt(ab_s) * x0) ** 2 / (2 * (1 - ab_s)))
        w = np.exp(lp - lp.max())
        return w / w.sum()

    coarse = np.linspace(-25.0, 25.0, 200001)
    w = weights(coarse)
    m = float(np.sum(coarse * w))
    sd = float(np.sqrt(np.sum((coarse - m) ** 2 * w)))
    fine = np.linspace(m - 12 * sd, m + 12 * sd, 400001)
    w = weights(fine)
    mean = float(np.sum(fine * w))
    var = float(np.sum((fine - mean) ** 2 * w))
    return mean, var


def reverse_mean_std(x0_hat, xt, t, s, sched):
    """Mean and noise scale of the implemented transition, probed externally."""
    x_t = np.array([xt])
    m = reverse_step(x_t, t, np.array([x0_hat]), sched, np.zeros(1), t_prev=s)[0]
    m1 = reverse_step(x_t, t, np.array([x0_hat]), sched, np.ones(1), t_prev=s)[0]
    return float(m), float(m1 - m)


class TestSchedule:
    def test_linear_endpoints_inclusive(self):
        s = build_schedule(10, 1e-4, 0.02)
        assert s.betas[0] == 1e-4
        assert s.betas[-1] == 0.02
        assert np.all(np.diff(s.betas) > 0)

    def test_alpha_bar_log_space_oracle(self):
        s = build_schedule(200, 1e-4, 0.02)
        oracle = np.exp(np.cumsum(np.log1p(-s.betas)))
        assert np.max(np.abs(s.alpha_bars - oracle)) < 1e-12

    def test_alpha_bar_monotone_and_bounded(self):
        s = build_schedule(50)
        assert s.alpha_bar(0) == 1.0
        bars = np.array([s.alpha_bar(t) for t in range(s.T + 1)])
        assert np.all(np.diff(bars) < 0)
        assert np.all((bars > 0) & (bars <= 1))

    def test_spec_round_trip(self):
        s = build_schedule(17, 2e-4, 0.01)
        s2 = build_schedule(**s.spec())
        assert np.array_equal(s.betas, s2.betas)

    @pytest.mark.parametrize("kwargs", [
        dict(T=0), dict(T=5, beta_start=0.0), dict(T=5, beta_start=0.3, beta_end=0.2),
        dict(T=5, beta_end=1.0),
    ])
    def test_invalid_args(self, kwargs):
        with pytest.raises(ValueError):
            build_schedule(**{"T": 10, **kwargs})


class TestForward:
    def test_exact_reconstruction_identity(self):
        s = build_schedule(30)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(8)
        eps = rng.standard_normal(8)
        for t in (1, 7, 30):
            x_t = forward_diffuse(x0, t, eps, s)
            ab = s.alpha_bar(t)
            rec = (x_t - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
            assert np.max(np.abs(rec - x0)) < 1e-12

    def test_moments_match_analytic(self):
        s = build_schedule(20)
        rng = np.random.default_rng(1)
        x0 = 0.7
        n = 20000
        for t in (1, 10, 20):
            eps = rng.standard_normal(n)
            xt = forward_diffuse(np.full(n, x0), t, eps, s)
            ab = s.alpha_bar(t)
            se = np.sqrt((1 - ab) / n)
            assert abs(xt.mean() - np.sqrt(ab) * x0) < 5 * se
            assert abs(xt.var() / (1 - ab) - 1.0) < 0.05

    def test_t_out_of_range(self):
        s = build_schedule(5)
        for t in (0, 6):
            with pytest.raises(ValueError):
                forward_diffuse(np.zeros(2), t, np.zeros(2), s)
            with pytest.raises(ValueError):
                forward_diffuse(np.zeros((2, 3)), np.array([1, t]), np.zeros((2, 3)), s)

    def test_shape_mismatch(self):
        s = build_schedule(5)
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros(2), 1, np.zeros(3), s)
        with pytest.raises(ValueError, match="timesteps"):
            forward_diffuse(np.zeros((2, 3)), np.array([1, 2, 3]), np.zeros((2, 3)), s)

    def test_per_row_t_matches_scalar_rows(self):
        s = build_schedule(30)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((6, 5))
        eps = rng.standard_normal((6, 5))
        t = np.array([1, 30, 7, 7, 18, 2])
        batch = forward_diffuse(x0, t, eps, s)
        for i, ti in enumerate(t):
            one = forward_diffuse(x0[i], int(ti), eps[i], s)
            assert np.array_equal(batch[i], one)

    def test_tensor_input_keeps_values_and_gradient(self):
        s = build_schedule(10)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((3, 4))
        eps = rng.standard_normal((3, 4))
        t = np.array([2, 9, 5])
        leaf = Tensor(x0, requires_grad=True)
        out = forward_diffuse(leaf, t, eps, s)
        assert isinstance(out, Tensor)
        assert np.array_equal(out.data, forward_diffuse(x0, t, eps, s))
        sum_(out).backward()
        want = np.sqrt(s.alpha_bars[t - 1])[:, None] * np.ones((3, 4))
        assert np.array_equal(leaf.grad, want)


class TestReverse:
    @pytest.mark.parametrize("t,s_prev", [(2, 1), (10, 9), (25, 24), (25, 12),
                                          (50, 1), (7, 3)])
    def test_posterior_matches_quadrature(self, t, s_prev):
        sched = build_schedule(50)
        rng = np.random.default_rng(t * 100 + s_prev)
        for _ in range(3):
            x0 = float(rng.uniform(-2, 2))
            xt = float(rng.uniform(-2, 2))
            om, ov = quad_posterior(x0, xt, t, s_prev, sched)
            m, sd = reverse_mean_std(x0, xt, t, s_prev, sched)
            assert abs(m - om) < 1e-10
            assert abs(sd * sd - ov) < 1e-10

    def test_final_step_deterministic(self):
        sched = build_schedule(10)
        x0_hat = np.array([0.3, -1.2])
        out = reverse_step(np.array([2.0, -2.0]), 1, x0_hat, sched, np.full(2, 99.0),
                           t_prev=0)
        assert np.array_equal(out, x0_hat)

    def test_vectorized_matches_scalar(self):
        sched = build_schedule(12)
        rng = np.random.default_rng(3)
        xt = rng.standard_normal(5)
        x0h = rng.standard_normal(5)
        noise = rng.standard_normal(5)
        batch = reverse_step(xt, 8, x0h, sched, noise)
        for i in range(5):
            one = reverse_step(xt[i:i + 1], 8, x0h[i:i + 1], sched, noise[i:i + 1])
            assert batch[i] == one[0]

    def test_invalid_t_prev(self):
        sched = build_schedule(10)
        for bad in (5, 7, -1):
            with pytest.raises(ValueError):
                reverse_step(np.zeros(2), 5, np.zeros(2), sched, np.zeros(2), t_prev=bad)

    def test_non_finite_input_rejected(self):
        sched = build_schedule(10)
        with pytest.raises(ValueError):
            reverse_step(np.array([np.nan]), 5, np.zeros(1), sched, np.zeros(1))


class TestStridedSteps:
    def test_full_schedule(self):
        assert strided_steps(7, 7) == [7, 6, 5, 4, 3, 2, 1]

    def test_single(self):
        assert strided_steps(50, 1) == [50]

    def test_endpoints_and_monotone(self):
        for T, n in [(50, 5), (50, 10), (13, 4), (50, 49), (10, 2)]:
            steps = strided_steps(T, n)
            assert steps[0] == T and steps[-1] == 1
            assert all(a > b for a, b in zip(steps, steps[1:]))
            assert len(steps) <= n

    def test_bounds(self):
        with pytest.raises(ValueError):
            strided_steps(10, 0)
        with pytest.raises(ValueError):
            strided_steps(10, 11)
