"""
Forward corruption and exact reversal
=====================================

A walk through the noise process that the recommender inverts: how fast
signal decays along the schedule, what one corrupted vector looks like,
and why the reverse chain lands exactly on the clean vector when the
denoiser is given perfect information.
"""

import numpy as np

from crossdiff.diffusion import (build_schedule, forward_diffuse, reverse_step,
                                 strided_steps)

rng = np.random.default_rng(0)

# ----------------------------------------------------------------------
# The schedule: linear betas, cumulative signal fraction alpha-bar
# ----------------------------------------------------------------------

sched = build_schedule(T=50)
print("signal fraction alpha_bar(t) along the chain")
for t in (1, 5, 10, 20, 30, 40, 50):
    ab = sched.alpha_bar(t)
    bar = "#" * int(round(40 * ab))
    print("  t=%2d  %.4f  %s" % (t, ab, bar))

# ----------------------------------------------------------------------
# Forward jump: one draw of x_t from the clean vector, any t in one step
# ----------------------------------------------------------------------

x0 = np.array([1.0, -2.0, 0.5, 0.0])
print("\nclean vector      ", np.round(x0, 3))
for t in (1, 25, 50):
    eps = rng.standard_normal(x0.shape)
    x_t = forward_diffuse(x0, t, eps, sched)
    print("corrupted at t=%2d " % t, np.round(x_t, 3))

# ----------------------------------------------------------------------
# Reverse chain with an oracle denoiser: hand it the true x0 at every
# step and the chain walks back to x0 exactly (the last step t=1 -> 0
# is deterministic by construction).
# ----------------------------------------------------------------------

t = 50
x = forward_diffuse(x0, t, rng.standard_normal(x0.shape), sched)
steps = list(range(50, 0, -1))
for i, t in enumerate(steps):
    t_prev = steps[i + 1] if i + 1 < len(steps) else 0
    noise = rng.standard_normal(x0.shape) if t_prev > 0 else np.zeros_like(x0)
    x = reverse_step(x, t, x0, sched, noise, t_prev=t_prev)
print("\nafter the full reverse chain with an oracle denoiser:")
print("  reconstruction  ", np.round(x, 12))
print("  max |error|      %.2e" % np.max(np.abs(x - x0)))

# ----------------------------------------------------------------------
# Strided sub-schedules: the same chain in far fewer steps. The stride
# always keeps T as the entry point and 1 as the exit.
# ----------------------------------------------------------------------

print("\nstrided step sequences")
for n in (50, 10, 5, 1):
    s = strided_steps(50, n)
    shown = s if len(s) <= 10 else s[:4] + ["..."] + s[-3:]
    print("  n=%2d: %s" % (n, shown))
