"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Everything downstream (encoders, denoiser, losses) is built from the handful
of primitives here, so each primitive carries its own exact backward rule and
is covered by finite-difference tests. All math runs in float64; there is no
device or dtype dispatch.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference / evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy array plus the closure needed to backpropagate through it."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        track = _grad_enabled and (bool(requires_grad) or any(p.requires_grad for p in parents))
        self.requires_grad = track
        self._parents = parents if track else ()
        self._backward = backward if track else None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar tensor, got shape %r" % (self.shape,))
        # iterative postorder; training graphs get deep enough to trip the
        # recursion limit
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
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # operator sugar; constants are promoted on the fly
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(_wrap(other), _NEG_ONE))

    def __rsub__(self, other):
        return add(_wrap(other), mul(self, _NEG_ONE))

    def __neg__(self):
        return mul(self, _NEG_ONE)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _attach(out, backward):
    if out.requires_grad:
        out._backward = backward
    return out


_NEG_ONE = Tensor(-1.0)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _attach(out, backward)


def mul(a, b):
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _attach(out, backward)


def div(a, b):
    out = Tensor(a.data / b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _attach(out, backward)


def matmul(a, b):
    """Batched matrix product, numpy broadcasting rules on leading axes."""
    out = Tensor(np.matmul(a.data, b.data), parents=(a, b))

    def stack_backward(g):
        # a stack times one matrix: each gradient is one GEMM over the
        # flattened rows, not per-example products summed by _unbroadcast.
        # The forward stays per-example, so that a row's output does not
        # depend on which other rows share its batch.
        k, m = b.data.shape
        g2 = g.reshape(-1, m)
        if a.requires_grad:
            a._accumulate((g2 @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            b._accumulate(a.data.reshape(-1, k).T @ g2)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    if b.data.ndim == 2 and a.data.ndim > 2:
        return _attach(out, stack_backward)
    return _attach(out, backward)


def exp(a):
    # backward closures capture output arrays, never the output Tensor: a
    # closure stored on its own output makes every graph a reference cycle
    # that only the cycle collector frees
    e = np.exp(a.data)
    out = Tensor(e, parents=(a,))

    def backward(g):
        a._accumulate(g * e)

    return _attach(out, backward)


def log(a):
    out = Tensor(np.log(a.data), parents=(a,))

    def backward(g):
        a._accumulate(g / a.data)

    return _attach(out, backward)


def sqrt(a):
    r = np.sqrt(a.data)
    out = Tensor(r, parents=(a,))

    def backward(g):
        a._accumulate(g * 0.5 / r)

    return _attach(out, backward)


def gelu(a):
    """Gaussian-error linear unit, exact erf form."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    out = Tensor(x * cdf, parents=(a,))

    def backward(g):
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        a._accumulate(g * (cdf + x * pdf))

    return _attach(out, backward)


def sum_(a, axis=None, keepdims=False):
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,))

    def backward(g):
        if axis is not None and not keepdims:
            for ax in sorted(np.atleast_1d(axis) % a.data.ndim):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _attach(out, backward)


def mean(a, axis=None, keepdims=False):
    if axis is None:
        n = a.data.size
    else:
        n = int(np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), Tensor(1.0 / n))


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _attach(out, backward)


def swapaxes(a, ax1, ax2):
    out = Tensor(np.swapaxes(a.data, ax1, ax2), parents=(a,))

    def backward(g):
        a._accumulate(np.swapaxes(g, ax1, ax2))

    return _attach(out, backward)


def concat(tensors, axis=0):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _attach(out, backward)


def slice_rows(a, start, stop):
    """Rows [start, stop) along axis 0; gradient zero-pads the complement."""
    out = Tensor(a.data[start:stop], parents=(a,))

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        a._accumulate(full)

    return _attach(out, backward)


def gather_rows(table, idx):
    """table: (N, d); idx: int array of any shape -> (idx.shape, d)."""
    idx = np.asarray(idx)
    out = Tensor(table.data[idx], parents=(table,))

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        table._accumulate(full)

    return _attach(out, backward)


def gather_concat(table_a, table_b, idx):
    """Gather from the virtual concatenation [table_a; table_b] without copying it.

    Indices < len(table_a) hit table_a, the rest hit table_b shifted down.
    """
    idx = np.asarray(idx)
    split = table_a.data.shape[0]
    in_a = idx < split
    local = np.where(in_a, idx, idx - split)
    data = np.where(in_a[..., None], table_a.data[np.where(in_a, local, 0)],
                    table_b.data[np.where(in_a, 0, local)])
    out = Tensor(data, parents=(table_a, table_b))

    def backward(g):
        if table_a.requires_grad:
            full = np.zeros_like(table_a.data)
            np.add.at(full, local[in_a], g[in_a])
            table_a._accumulate(full)
        if table_b.requires_grad:
            full = np.zeros_like(table_b.data)
            np.add.at(full, local[~in_a], g[~in_a])
            table_b._accumulate(full)

    return _attach(out, backward)


def take_rows(src, idx):
    """src: (B, L, d); idx: (B, M) -> out[b, m] = src[b, idx[b, m]]."""
    idx = np.asarray(idx)
    batch = np.arange(src.data.shape[0])[:, None]
    out = Tensor(src.data[batch, idx], parents=(src,))

    def backward(g):
        full = np.zeros_like(src.data)
        np.add.at(full, (batch, idx), g)
        src._accumulate(full)

    return _attach(out, backward)


def take_last_axis(src, idx):
    """src: (..., V); idx: int array matching src's leading shape -> (...,)."""
    idx = np.asarray(idx)
    lead = np.indices(idx.shape)
    out = Tensor(src.data[(*lead, idx)], parents=(src,))

    def backward(g):
        full = np.zeros_like(src.data)
        np.add.at(full, (*lead, idx), g)
        src._accumulate(full)

    return _attach(out, backward)


def masked_softmax(x, mask):
    """Softmax over the last axis restricted to mask==1; fully-masked rows yield zeros.

    `mask` is a constant 0/1 ndarray broadcastable to x. The zero-row fallback
    keeps attention over all-padding sequences finite.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
    neg = np.where(mask, x.data, -np.inf)
    m = np.max(neg, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.where(mask, np.exp(neg - m), 0.0)
    s = e.sum(axis=-1, keepdims=True)
    p = e / np.where(s == 0.0, 1.0, s)
    out = Tensor(p, parents=(x,))

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        x._accumulate(p * (g - inner))

    return _attach(out, backward)


def layer_norm(x, gain, bias):
    """Normalize over the last axis (eps 1e-8), then scale and shift. gain/bias: (d,)."""
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-8)
    xhat = xc * inv
    out = Tensor(gain.data * xhat + bias.data, parents=(x, gain, bias))

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            t1 = gx * inv
            t2 = xhat * (gx * xhat).sum(axis=-1, keepdims=True) * inv / d
            t3 = inv * gx.sum(axis=-1, keepdims=True) / d
            x._accumulate(t1 - t2 - t3)

    return _attach(out, backward)


def l2_normalize(x):
    """x / sqrt(||x||^2 + 1e-12) along the last axis, from primitives so gradients flow."""
    nrm = sqrt(sum_(mul(x, x), axis=-1, keepdims=True) + Tensor(1e-12))
    return div(x, nrm)
