"""Noise schedule, forward corruption, reverse transitions.

Plain numpy arrays throughout, except that forward_diffuse also corrupts an
autograd Tensor so the training pass can differentiate through it.
Timestep convention: t runs 1..T; array slot t-1 stores the
step-t coefficients; cumulative signal fraction at t=0 is defined as 1 so
the final reverse transition is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor


@dataclass(frozen=True)
class DiffusionSchedule:
    T: int
    betas: np.ndarray        # (T,), noise variance added at each step
    alpha_bars: np.ndarray   # (T,), cumulative products of 1 - betas
    beta_start: float
    beta_end: float

    def alpha_bar(self, t: int) -> float:
        """Cumulative signal fraction at step t, with alpha_bar(0) == 1."""
        if t == 0:
            return 1.0
        return float(self.alpha_bars[t - 1])

    def spec(self) -> dict:
        """Serializable recipe; build_schedule(**spec) reconstructs bit-exactly."""
        return {"T": self.T, "beta_start": self.beta_start, "beta_end": self.beta_end}


def build_schedule(T: int, beta_start: float = 1e-4,
                   beta_end: float = 0.02) -> DiffusionSchedule:
    """Linear noise-variance ramp inclusive of both endpoints."""
    if T < 1:
        raise ValueError("T must be >= 1, got %d" % T)
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1, got (%r, %r)"
                         % (beta_start, beta_end))
    betas = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alpha_bars = np.cumprod(1.0 - betas)
    return DiffusionSchedule(T=T, betas=betas, alpha_bars=alpha_bars,
                             beta_start=float(beta_start), beta_end=float(beta_end))


def forward_diffuse(x0, t, eps: np.ndarray, sched: DiffusionSchedule):
    """Jump straight from the clean vector to its step-t corruption x_t.

    t is one step for every row or an int array with one step per row of x0.
    x0 may be an autograd Tensor, in which case x_t is one too and gradient
    flows back into x0.
    """
    t = np.asarray(t)
    if t.ndim > 1 or np.any(t < 1) or np.any(t > sched.T):
        raise ValueError("t=%s outside [1, %d]" % (t, sched.T))
    if not isinstance(x0, Tensor):
        x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError("shape mismatch: x0 %r vs eps %r" % (x0.shape, eps.shape))
    ab = sched.alpha_bars[t - 1]
    if t.ndim == 1:
        if eps.shape[:1] != t.shape:
            raise ValueError("%d timesteps for x0 of shape %r" % (t.size, eps.shape))
        ab = ab.reshape(ab.shape + (1,) * (eps.ndim - 1))
    return x0 * np.sqrt(ab) + np.sqrt(1.0 - ab) * eps


def reverse_step(x_t: np.ndarray, t: int, x0_hat: np.ndarray,
                 sched: DiffusionSchedule, noise: np.ndarray,
                 t_prev: int | None = None) -> np.ndarray:
    """One posterior transition from step t toward the clean vector.

    With t_prev = t-1 this is the exact single-step posterior given the clean
    vector; any smaller t_prev gives the strided-schedule analogue. The final
    transition (t_prev == 0) is deterministic and returns x0_hat.
    """
    if t < 1:
        raise ValueError("t must be >= 1, got %d" % t)
    if t_prev is None:
        t_prev = t - 1
    if not (0 <= t_prev < t):
        raise ValueError("t_prev=%d must lie in [0, %d)" % (t_prev, t))
    x_t = np.asarray(x_t, dtype=np.float64)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if not (np.all(np.isfinite(x_t)) and np.all(np.isfinite(x0_hat))):
        raise ValueError("non-finite input to reverse_step at t=%d" % t)

    ab_t = sched.alpha_bar(t)
    ab_s = sched.alpha_bar(t_prev)
    a_ts = ab_t / ab_s            # signal kept between t_prev and t
    b_ts = 1.0 - a_ts
    denom = 1.0 - ab_t
    mean = (np.sqrt(ab_s) * b_ts / denom) * x0_hat \
        + (np.sqrt(a_ts) * (1.0 - ab_s) / denom) * x_t
    var = b_ts * (1.0 - ab_s) / denom
    if t_prev == 0:
        return mean
    return mean + np.sqrt(var) * noise


def strided_steps(T: int, n_steps: int) -> list[int]:
    """Evenly spaced descending timesteps; endpoints T and 1 always included."""
    if not (1 <= n_steps <= T):
        raise ValueError("n_steps=%d outside [1, %d]" % (n_steps, T))
    if n_steps == 1:
        return [T]
    raw = np.round(np.linspace(T, 1, n_steps)).astype(int)
    steps, prev = [], None
    for s in raw:
        if s != prev:
            steps.append(int(s))
            prev = s
    return steps
